"""The lemma suite: named checks that replay the paper's lemmas.

`LEMMAS` maps each name `dpone verify-lemma` takes to a check that
returns its detail lines, ending "OK", or raises CheckFailure with a
counterexample; a failed library check (`CheckViolation`) raised inside
a check fails it too.  Only `verify-lemma` imports this module, and the
checks import `stars`, `groups` and `criteria` where used: `DP1lines`
and `A2A22` load none of them.  `A2A22` loads no numpy either: its
representatives are index 3-cycles, read off their curve images.
"""

from __future__ import annotations

from .curves import FAMILIES, curve_table
from .lattice import CheckViolation, fixed_rank, solve_norm
from .weyl import CarterType3, carter_type_order3, element_order, representative_order3


class CheckFailure(CheckViolation):
    """A lemma check found a counterexample."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _lemma_dp1lines() -> list[str]:
    curves = curve_table().curves
    _require(len(curves) == 240, f"expected 240 curves, got {len(curves)}")
    sizes = [sum(1 for c in curves if c.family == fam) for fam in FAMILIES]
    _require(
        sizes == [8, 28, 56, 56, 56, 28, 8],
        f"family sizes {sizes}",
    )
    solved = solve_norm(-1, -1)
    _require(
        solved == sorted(c.divisor for c in curves),
        "independent solver disagrees with the closed forms",
    )
    return ["240 curves; families 8/28/56/56/56/28/8; OK"]


def _lemma_a2a22() -> list[str]:
    out = []
    for ctype, expected_rank in ((CarterType3.A2, 7), (CarterType3.A2x2, 5)):
        m = representative_order3(ctype)
        order, rank = element_order(m), fixed_rank(m)
        _require(order == 3, f"{ctype.display} representative has order {order}")
        _require(rank == expected_rank, f"{ctype.display} fixed rank {rank}")
        _require(carter_type_order3(m) is ctype, f"{ctype.display} misclassified")
        out.append(f"{ctype.display}: order 3, rank {rank}")
    out.append("OK")
    return out


def _lemma_davidinv() -> list[str]:
    from .stars import invariant_curves, profile, split_invariant_stars

    out = []
    expected = {
        CarterType3.A2: (72, 1),
        CarterType3.A2x2: (12, 2),
        CarterType3.A2x3: (6, 12),
        CarterType3.A2x4: (0, 40),
    }
    for ctype, (n_inv, n_faithful) in expected.items():
        m = representative_order3(ctype)
        inv = invariant_curves(m)
        _, faithful = split_invariant_stars(m)
        _require(
            len(inv) == n_inv,
            f"{ctype.display}: {len(inv)} invariant curves, expected {n_inv}",
        )
        _require(
            len(faithful) == n_faithful,
            f"{ctype.display}: {len(faithful)} faithful stars, expected {n_faithful}",
        )
        out.append(
            f"{ctype.display}: invariant curves {len(inv)}, faithful stars {len(faithful)}"
        )
    # the A2 representative: every invariant curve meets its faithful star all-ones
    m = representative_order3(CarterType3.A2)
    faithful = split_invariant_stars(m)[1][0]
    for c in invariant_curves(m):
        _require(
            profile(c, faithful) is None,
            f"invariant curve {curve_table().curve(c).name} touches the star",
        )
    out.append("OK")
    return out


def _count_lines(census, total: int, what: str, note: str = "") -> list[str]:
    """The census's count line, once its counts add up to total."""
    _require(sum(census.values()) == total, f"census misses some of the {total} {what}")
    counts = ", ".join(f"{count} {kind}" for kind, count in census.items())
    return [f"{total} {what}: {counts}{note}", "OK"]


def _lemma_davidintersection() -> list[str]:
    from .stars import intersection_profile_census, star_table

    outside = len(star_table().ids_array) * (240 - 6)
    return _count_lines(
        intersection_profile_census(), outside, "outside (curve, star) pairs"
    )


def _lemma_2daviddef() -> list[str]:
    from .stars import star_table, trichotomy_census

    n = len(star_table().ids_array)
    return _count_lines(
        trichotomy_census(), n * (n - 1) // 2, "star pairs", " (share a Bertini pair)"
    )


def _lemma_davidauto() -> list[str]:
    from .stars import (
        PairType, sample_pairs_by_type, star_graph_automorphisms, star_table,
    )

    expected = {
        PairType.ASYNCHRONIZED: 288,
        PairType.SYNCHRONIZED: 24,
        PairType.ABNORMAL: 16,
    }
    out = []
    for s in star_table().stars[:10]:
        n = star_graph_automorphisms([s])
        _require(n == 12, f"single star automorphisms {n} != 12")
    out.append("single star: 12")
    samples = sample_pairs_by_type(10)
    for ptype, pairs in samples.items():
        for sa, sb in pairs:
            n = star_graph_automorphisms([sa, sb])
            _require(
                n == expected[ptype],
                f"{ptype.value} pair automorphisms {n} != {expected[ptype]}",
            )
        out.append(f"{ptype.value} pairs ({len(pairs)} sampled): {expected[ptype]}")
    out.append("OK")
    return out


def _lemma_davidmin() -> list[str]:
    from .criteria import ActionSetup, check_minimal_four_stars
    from .groups import TRIVIAL_GROUP, GroupSpec

    g = representative_order3(CarterType3.A2x4)
    setup = ActionSetup(GroupSpec((g,), "G"), TRIVIAL_GROUP)
    cert = check_minimal_four_stars(setup)
    _require(cert is not None, "no four-star certificate for the A2^4 element")
    _require(cert.combined_rank == 1, f"combined rank {cert.combined_rank}")
    return [f"four-star certificate, combined rank {cert.combined_rank}", "OK"]


def _lemma_davidmin_pair(ctype: CarterType3, rotations: str) -> list[str]:
    from .criteria import ActionSetup, check_minimal_four_stars, search_commuting_order3
    from .groups import TRIVIAL_GROUP, GroupSpec, eliminated_group
    from .stars import split_invariant_stars

    g = representative_order3(ctype)
    h = search_commuting_order3(g, split_invariant_stars(g)[0])
    setup = ActionSetup(GroupSpec((g, h), "G"), TRIVIAL_GROUP)
    cert = check_minimal_four_stars(setup)
    _require(cert is not None, f"no certificate for the {ctype.display} pair")
    # the certificate's rank is the closure's average trace; this one is
    # eliminated on the generators of a fresh group
    rank = fixed_rank(eliminated_group(setup.combined.generators))
    _require(rank == 1, f"direct rank {rank}")
    return [
        f"{ctype.display} with commuting {rotations}: rank {rank}, certificate found",
        "OK",
    ]


def _lemma_ratcor() -> list[str]:
    from .criteria import Verdict, Witness, gamma_report, replay_triple
    from .groups import TRIVIAL_GROUP, GroupSpec
    from .stars import PairType, sample_pairs_by_type

    out = []
    expected = {
        "trivial": (TRIVIAL_GROUP, Verdict.RATIONAL),
        "A2": (GroupSpec((representative_order3(CarterType3.A2),)), Verdict.RATIONAL),
        "A2^2": (GroupSpec((representative_order3(CarterType3.A2x2),)), Verdict.RATIONAL),
        "A2^3": (GroupSpec((representative_order3(CarterType3.A2x3),)), Verdict.NOT_RATIONAL),
        "A2^4": (GroupSpec((representative_order3(CarterType3.A2x4),)), Verdict.NOT_RATIONAL),
    }
    for name, (gamma, want) in expected.items():
        report = gamma_report(gamma)
        _require(
            report.verdict is want,
            f"{name}: verdict {report.verdict.value}, expected {want.value}",
        )
        out.append(f"{name}: {report.verdict.value} via {report.rule}")
        if report.rule == "rational_two_stars":
            a, b = report.witness.stars
            triple = Witness(curves=(a[0], b[0], a[1]))
            _require(
                replay_triple(gamma, triple),
                f"{name}: two-stars witness gives no triple",
            )
    # any asynchronized pair contains a qualifying triple
    for sa, sb in sample_pairs_by_type(25)[PairType.ASYNCHRONIZED]:
        a, b, c = sa[0], sb[0], sa[1]
        p = curve_table().pairing_array
        _require(
            p[a, b] == 1 and p[b, c] == 1 and p[a, c] == 0,
            "asynchronized pair without an adjacent-plus-cross triple",
        )
    out.append("every sampled asynchronized pair yields a triple")
    out.append("OK")
    return out


LEMMAS = {
    "DP1lines": _lemma_dp1lines,
    "A2A22": _lemma_a2a22,
    "Davidinv": _lemma_davidinv,
    "Davidintersection": _lemma_davidintersection,
    "2Daviddef": _lemma_2daviddef,
    "Davidauto": _lemma_davidauto,
    "Davidmin": _lemma_davidmin,
    "Davidmin1": lambda: _lemma_davidmin_pair(CarterType3.A2x3, "rotation"),
    "Davidmin2": lambda: _lemma_davidmin_pair(CarterType3.A2x2, "rotations"),
    "RatCor-consistency": _lemma_ratcor,
}
