"""The lemma suite: named checks that replay the paper's lemmas.

`LEMMAS` maps each name `dpone verify-lemma` takes to a check that
returns its detail lines, ending "OK", or raises CheckFailure with a
counterexample; a failed library check (`CheckViolation`) raised inside
a check fails it too.  The checks are the one home of the paper's exact
numbers: each acceptance criterion of tests/test_acceptance.py but the
fourth and the tenth runs its lemmas and pins their detail lines, so a
fact is asserted here and nowhere else.  Only `verify-lemma` imports
this module, and the checks import `stars`, `groups` and `criteria`
where used: `DP1lines` and `A2A22` load none of them, and no numpy
either.  `DP1lines` solves for the curves on Python integers, and the
`A2A22` representatives are index 3-cycles, read off their curve images.
"""

from __future__ import annotations

from .curves import FAMILIES, curve_table
from .lattice import (
    CheckViolation,
    cycles_string,
    fixed_rank,
    permutation_of_isometry,
    solve_norm,
)
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
    for ctype, expected_rank, cycles in (
        (CarterType3.A2, 7, "(1 2 3)"),
        (CarterType3.A2x2, 5, "(1 2 3)(4 5 6)"),
    ):
        m = representative_order3(ctype)
        order, rank = element_order(m), fixed_rank(m)
        _require(order == 3, f"{ctype.display} representative has order {order}")
        _require(rank == expected_rank, f"{ctype.display} fixed rank {rank}")
        _require(carter_type_order3(m) is ctype, f"{ctype.display} misclassified")
        text = cycles_string(permutation_of_isometry(m))
        _require(text == cycles, f"{ctype.display} representative is {text}, not {cycles}")
        out.append(f"{ctype.display}: order 3, rank {rank}")
    out.append("OK")
    return out


def _lemma_davidinv() -> list[str]:
    import numpy as np

    from .groups import GroupSpec
    from .stars import asynchronized, invariant_curves, profile, split_invariant_stars

    t = curve_table()
    out, census = [], {}
    # invariant curves, trivial and faithful stars, and the fixed rank of
    # the two classes A2A22 does not rank
    expected = {
        CarterType3.A2: (72, 120, 1, None),
        CarterType3.A2x2: (12, 2, 2, None),
        CarterType3.A2x3: (6, 1, 12, 3),
        CarterType3.A2x4: (0, 0, 40, 1),
    }
    for ctype, counts in expected.items():
        g = GroupSpec((representative_order3(ctype),))  # permuted once for all three
        inv = invariant_curves(g)
        trivial, faithful = split_invariant_stars(g)
        census[ctype] = inv, trivial, faithful
        rank = None if counts[3] is None else g.fixed_rank
        got = (len(inv), len(trivial), len(faithful), rank)
        _require(got == counts, f"{ctype.display}: counts and rank {got}, expected {counts}")
        _require(
            {c for s in trivial for c in s} == set(inv),
            f"{ctype.display}: the trivial stars do not cover the invariant curves",
        )
        out.append(
            f"{ctype.display}: invariant curves {len(inv)}, faithful stars {len(faithful)}"
        )

    def names(stars):
        return {frozenset(t.curve(c).name for c in s) for s in stars}

    c123 = frozenset({"C1-2", "C3-2", "C3-1", "C2-1", "C2-3", "C1-3"})
    c456 = frozenset({"C4-5", "C6-5", "C6-4", "C5-4", "C5-6", "C4-6"})
    e78 = frozenset({"E7", "E8", "C7-8", "bE7", "bE8", "C8-7"})
    l78 = frozenset({"L78", "bQ123", "Q456", "bL78", "Q123", "bQ456"})
    inv, _, faithful = census[CarterType3.A2]
    _require(names(faithful) == {c123}, "A2: faithful star misnamed")
    # the A2 representative: every invariant curve meets its faithful star all-ones
    for c in inv:
        _require(
            profile(c, faithful[0]) is None,
            f"invariant curve {t.curve(c).name} touches the star",
        )
    _, trivial, faithful = census[CarterType3.A2x2]
    _require(
        (names(trivial), names(faithful)) == ({e78, l78}, {c123, c456}),
        "A2^2: invariant stars misnamed",
    )
    # A2^2: its four invariant stars are pairwise asynchronized, a star
    # with itself never; A2^3: its trivial star with each faithful one
    ids = np.array(trivial + faithful)
    _require(asynchronized(ids, ids).sum() == 4 * 3, "A2^2: a star pair not asynchronized")
    _, trivial, faithful = census[CarterType3.A2x3]
    _require(
        asynchronized(np.array(trivial), np.array(faithful)).all(),
        "A2^3: a faithful star not asynchronized with the trivial one",
    )
    out.append("OK")
    return out


def _count_lines(census, expected: dict, what: str, note: str = "") -> list[str]:
    """The census's count line, once its counts are the expected ones."""
    _require(dict(census) == expected, f"{what}: {dict(census)}, expected {expected}")
    counts = ", ".join(f"{count} {kind}" for kind, count in census.items())
    return [f"{sum(expected.values())} {what}: {counts}{note}", "OK"]


def _lemma_davidintersection() -> list[str]:
    from .stars import intersection_profile_census

    # each of the 1120 stars against its 240 - 6 outside curves
    expected = {"all-ones": 80640, "touching": 181440}
    return _count_lines(
        intersection_profile_census(), expected, "outside (curve, star) pairs"
    )


def _lemma_2daviddef() -> list[str]:
    from .stars import trichotomy_census

    # each star's partners: 120 asynchronized, 270 synchronized, 648
    # abnormal, and the 3 * 27 other stars through one of its three Bertini
    # pairs {X, bX}: 1120 * 81 / 2 = 45360 = 120 * C(28, 2) overlapping pairs
    partners = {"asynchronized": 120, "synchronized": 270, "abnormal": 648, "overlapping": 81}
    expected = {kind: 1120 * n // 2 for kind, n in partners.items()}
    return _count_lines(trichotomy_census(), expected, "star pairs", " (share a Bertini pair)")


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
    for ptype, want in expected.items():
        pairs = samples.get(ptype, [])
        _require(len(pairs) >= 10, f"{len(pairs)} {ptype.value} pairs sampled, not 10")
        for sa, sb in pairs:
            n = star_graph_automorphisms([sa, sb])
            _require(n == want, f"{ptype.value} pair automorphisms {n} != {want}")
        out.append(f"{ptype.value} pairs ({len(pairs)} sampled): {want}")
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
    from .groups import TRIVIAL_GROUP, GroupSpec, eliminated_rank
    from .stars import split_invariant_stars

    g = representative_order3(ctype)
    h = search_commuting_order3(g, split_invariant_stars(g)[0])
    setup = ActionSetup(GroupSpec((g, h), "G"), TRIVIAL_GROUP)
    cert = check_minimal_four_stars(setup)
    _require(cert is not None, f"no certificate for the {ctype.display} pair")
    _require(cert.combined_rank == 1, f"certificate rank {cert.combined_rank}")
    # the certificate's rank is the closure's average trace; this one is
    # eliminated on the generators
    rank = eliminated_rank(setup.combined.generators)
    _require(rank == 1, f"direct rank {rank}")
    return [
        f"{ctype.display} with commuting {rotations}: rank {rank}, certificate found",
        "OK",
    ]


def _lemma_ratcor() -> list[str]:
    from .criteria import (
        REPLAYS,
        Verdict,
        Witness,
        check_rational_triple,
        gamma_report,
        replay_triple,
    )
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
        rational = want is Verdict.RATIONAL
        _require(
            (report.caveat is not None) == rational,
            f"{name}: caveat {report.caveat!r} on a {want.value} verdict",
        )
        _require(
            REPLAYS[report.rule](gamma, report.witness),
            f"{name}: the {report.rule} witness does not replay",
        )
        # the exhaustive triple search finds a triple exactly when Rational
        _require(
            (check_rational_triple(gamma) is not None) == rational,
            f"{name}: the triple search disagrees with the {want.value} verdict",
        )
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
