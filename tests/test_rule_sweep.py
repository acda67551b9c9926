"""The five decision rules on a seeded family of 400 cyclic groups.

Each of 200 words in s1..s8 (random.Random(2), lengths 60 and 61 in
turn) gives Gamma = <w> and Gamma = <w b>, with b the Bertini involution.
Every rule is called directly on every group, so a group on which a
Rational rule and a NotRational rule both fire would show here even
where the report stops at its first hit.  The last two tests pin the
abstract's rank-one statement on one cyclic group of order 5.
"""

import random
from collections import Counter
from functools import cache

import numpy as np
import pytest

from dpone.criteria import (
    RULES,
    Verdict,
    check_not_rational_carter,
    check_not_rational_even,
    check_not_rational_stars,
    check_rational_triple,
    check_rational_two_stars,
    gamma_report,
    replay_carter,
    replay_even,
    replay_stars,
    replay_triple,
    replay_two_stars,
)
from dpone.curves import bertini_isometry, curve_table
from dpone.lattice import GroupSpec, fixed_rank, permutation_isometry, simple_roots
from dpone.stars import star_masks, star_table
from dpone.weyl import element_order, parse_element, reflection_permutation

REPLAYS = {
    check_rational_two_stars: replay_two_stars,
    check_rational_triple: replay_triple,
    check_not_rational_carter: replay_carter,
    check_not_rational_stars: replay_stars,
    check_not_rational_even: replay_even,
}


@cache
def family() -> tuple[GroupSpec, ...]:
    """The 400 groups, each word composed on curve permutations."""
    t = curve_table()
    simple = [reflection_permutation(r) for r in simple_roots()]
    b = t.permutation_of(bertini_isometry())
    rng = random.Random(2)
    groups = []
    for k in range(200):
        perm = np.arange(240, dtype=np.int16)
        for _ in range(60 + k % 2):
            perm = perm[simple[rng.randint(1, 8) - 1]]  # perm(w s) = perm_w[perm_s]
        groups += [GroupSpec((t.isometry_of(perm),)), GroupSpec((t.isometry_of(perm[b]),))]
    return tuple(groups)


@cache
def sweep() -> tuple[dict[str, Verdict], ...]:
    """Per group, every rule that hits and its verdict; each witness replayed."""
    hits = []
    for gamma in family():
        hit = {}
        for name, verdict, check in RULES:
            witness = check(gamma)
            if witness is not None:
                assert REPLAYS[check](gamma, witness), name
                hit[name] = verdict
        hits.append(hit)
    return tuple(hits)


def sorted_row_setwise(perms, ids):
    """The setwise test star_masks replaced: each image row, sorted, is the row."""
    return (np.sort(perms[:, ids], axis=2) == np.sort(ids, axis=1)).all(axis=2)


def test_edge_lookup_setwise_matches_sorted_rows():
    perms = np.concatenate([gamma.generator_perms for gamma in family()])
    ids = star_table().ids_array
    setwise, _ = star_masks(perms, ids)
    assert np.array_equal(setwise, sorted_row_setwise(perms, ids))
    assert setwise.any(axis=1).sum() == 270  # groups with an invariant star


def test_family_hits():
    counts = Counter(name for hit in sweep() for name in hit)
    assert counts == {
        "rational_two_stars": 8,
        "rational_triple": 32,
        "not_rational_carter": 60,
        "not_rational_stars": 60,
        "not_rational_even": 227,
    }
    assert sum(not hit for hit in sweep()) == 123


def test_no_group_is_both_rational_and_not():
    for gamma, hit in zip(family(), sweep()):
        assert len(set(hit.values())) <= 1, (gamma, hit)


def test_fixed_rank_one_is_never_rational():
    for gamma, hit in zip(family(), sweep()):
        if fixed_rank(gamma) == 1:
            assert Verdict.RATIONAL not in hit.values(), gamma


def test_report_is_invariant_under_relabelling():
    """The report on each relabelled group is the first hit on the group."""
    sigma = list(range(1, 9))
    random.Random(3).shuffle(sigma)
    s = permutation_isometry(dict(zip(range(1, 9), sigma)))
    s_inv = s.inverse()
    for gamma, hit in zip(family(), sweep()):
        (m,) = gamma.generators
        report = gamma_report(GroupSpec((s @ m @ s_inv,)))
        rule, verdict = next(iter(hit.items()), (None, Verdict.INCONCLUSIVE))
        rank = fixed_rank(gamma)
        assert (report.verdict, report.rule) == (verdict, rule), gamma
        assert report.ranks == {"G": 9, "Gamma": rank, "combined": rank}, gamma


@cache
def coxeter_power_report():
    """gamma_report for Gamma = <c^6>, c = s1 s2 ... s8 a Coxeter element."""
    c6 = parse_element("s " + "1 2 3 4 5 6 7 8 " * 6)
    assert element_order(c6) == 5
    return gamma_report(GroupSpec((c6,)))


def test_coxeter_power_has_invariant_picard_number_one():
    assert coxeter_power_report().ranks == {"G": 9, "Gamma": 1, "combined": 1}


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: no rule reads rank one yet; a sixth rule waits on "
    "the spans.install KeyError that perfbench raises for it",
)
def test_rank_one_gamma_is_not_rational():
    # the abstract: with G trivial and invariant Picard number 1, X is not
    # k-rational
    assert coxeter_power_report().verdict is Verdict.NOT_RATIONAL
