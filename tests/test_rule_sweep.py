"""The five decision rules on a seeded family of 400 cyclic groups.

Each of 200 words in s1..s8 (random.Random(2), lengths 60 and 61 in
turn) gives Gamma = <w> and Gamma = <w b>, with b the Bertini involution.
Every rule is called directly on every group, so a group on which a
Rational rule and a NotRational rule both fire would show here even
where the report stops at its first hit.
"""

import random
from collections import Counter
from functools import cache

import numpy as np

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
from dpone.weyl import reflection_permutation

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
