"""The five decision rules on `families.family()`, 400 seeded cyclic groups.

Each of 200 words in s1..s8 (random.Random(2), lengths 60 and 61 in
turn) gives Gamma = <w> and Gamma = <w b>, with b the Bertini involution.
Every rule is called directly on every group, so a group on which a
Rational rule and a NotRational rule both fire would show here even
where the report stops at its first hit.  Each rule's hit count, each
group's rank by every route and its star masks by the edge lookup, the
row-major gather and sorted rows are rows of the differential table
(test_differential.py).  The last two tests pin the abstract's rank-one
statement on one cyclic group of order 5.
"""

import random
from functools import cache

import numpy as np
import pytest

from dpone.criteria import RULES, Verdict, gamma_report
from dpone.groups import GroupSpec
from dpone.lattice import (
    LatticeIsometry,
    fixed_rank,
    is_isometry,
    permutation_isometry,
    permutation_of_isometry,
)
from dpone.stars import star_masks, star_table
from dpone.weyl import element_order, parse_element
from families import family
from oracles import assert_row, loop_is_isometry, loop_permutation_of_isometry, matrix_fixed_rank


@cache
def sweep() -> tuple[dict[str, Verdict], ...]:
    """Per group, every rule that hits and its verdict.  The differential
    table replays each witness on this family."""
    return tuple(
        {name: verdict for name, verdict, check in RULES if check(gamma) is not None}
        for gamma in family()
    )


def test_family_groups_with_an_invariant_star():
    perms = np.concatenate([gamma.generator_perms for gamma in family()])
    setwise, _ = star_masks(perms, star_table().ids_array)
    assert setwise.any(axis=1).sum() == 270  # groups with an invariant star


def test_no_group_is_both_rational_and_not():
    for gamma, hit in zip(family(), sweep()):
        assert len(set(hit.values())) <= 1, (gamma, hit)
    assert sum(not hit for hit in sweep()) == 123  # groups no rule decides


def test_fixed_rank_one_is_never_rational():
    for gamma, hit in zip(family(), sweep()):
        if fixed_rank(gamma) == 1:
            assert Verdict.RATIONAL not in hit.values(), gamma


def test_matrix_checks_match_their_loop_oracles():
    """is_isometry, the fixed rank and permutation_of_isometry on the 400
    generators, each against the matrix loop it replaced."""
    for gamma in family():
        (m,) = gamma.generators
        assert is_isometry(m.matrix) and loop_is_isometry(m.matrix), gamma
        assert fixed_rank(gamma) == matrix_fixed_rank(gamma.generators), gamma
        assert permutation_of_isometry(m) == loop_permutation_of_isometry(m), gamma


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
def coxeter_power() -> LatticeIsometry:
    """c^6, c = s1 s2 ... s8 a Coxeter element."""
    c6 = parse_element("s " + "1 2 3 4 5 6 7 8 " * 6)
    assert element_order(c6) == 5
    return c6


@cache
def coxeter_power_report():
    """gamma_report for Gamma = <c^6>."""
    return gamma_report(GroupSpec((coxeter_power(),)))


def test_coxeter_power_has_invariant_picard_number_one():
    assert coxeter_power_report().ranks == {"G": 9, "Gamma": 1, "combined": 1}
    assert_row("fixed_rank", GroupSpec((coxeter_power(),)))  # by every route


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: no rule reads rank one yet; a sixth rule waits on "
    "the spans.install KeyError that perfbench raises for it",
)
def test_rank_one_gamma_is_not_rational():
    # the abstract: with G trivial and invariant Picard number 1, X is not
    # k-rational
    assert coxeter_power_report().verdict is Verdict.NOT_RATIONAL
