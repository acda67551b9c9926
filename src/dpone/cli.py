"""Command-line front end: dumps, classification, lemma checks, verdicts.

Element inputs (-e, -g, -gamma) take a file path or inline text in any of
the three formats of the weyl module: cycle notation "(1 2 3)(4 5 6)",
a reflection word "s 1 2 1", or nine rows of nine integers.  Group files
may contain several elements separated by blank lines; # starts a
comment.  Exit codes: 0 ok, 1 check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .curves import FAMILIES, curve_table, enumerate_curves
from .lattice import (
    CLOSURE_CAP,
    CheckViolation,
    GroupSpec,
    LatticeIsometry,
    TRIVIAL_GROUP,
    cycles_string,
    fixed_rank,
    permutation_of_isometry,
    solve_norm,
)
from .weyl import (
    CarterType3,
    carter_type_order3,
    element_order,
    enumerate_roots,
    parse_element,
    representative_order3,
)

# `stars` and `criteria` are imported where used: by list-stars, census,
# report and every lemma but DP1lines and A2A22


class CheckFailure(CheckViolation):
    """A lemma check found a counterexample."""


def _read_source(value: str) -> str:
    if os.path.exists(value):
        try:
            with open(value, "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {value!r}: {exc.strerror}") from None
    return value


def _strip_comments(text: str) -> str:
    lines = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].rstrip()
        lines.append(body)
    return "\n".join(lines)


def _parse(text: str, value: str) -> LatticeIsometry:
    """parse_element, noting when a one-word value could be a missing file."""
    try:
        return parse_element(text)
    except ValueError as exc:
        if len(value.split()) == 1 and not os.path.exists(value):
            raise ValueError(f"{exc}; no file {value!r} exists") from None
        raise


def load_element(value: str) -> LatticeIsometry:
    return _parse(_strip_comments(_read_source(value)), value)


def load_group(value: str | None, label: str, cap: int) -> GroupSpec:
    """Group from blocks of element text separated by blank lines.

    No value, or no element in it, gives the trivial group.  ``cap``
    bounds the group's closure, and is checked even for the trivial group.
    """
    if value is None:
        return GroupSpec((), label, cap)
    text = _strip_comments(_read_source(value))
    blocks: list[list[str]] = [[]]
    for line in text.splitlines():
        if line.strip():
            blocks[-1].append(line)
        elif blocks[-1]:
            blocks.append([])
    generators = tuple(_parse("\n".join(b), value) for b in blocks if b)
    return GroupSpec(generators, label, cap)


def element_text(m: LatticeIsometry) -> str:
    """Cycle notation when the element permutes the E_i, else the matrix."""
    perm = permutation_of_isometry(m)
    if perm is not None:
        return cycles_string(perm)
    return " / ".join(
        " ".join(str(x) for x in row) for row in m.matrix
    )


def witness_to_dict(w) -> dict | None:
    if w is None:
        return None
    return {
        "elements": [element_text(m) for m in w.elements],
        "curves": [curve_table().curve(i).name for i in w.curves],
        "stars": [s.text() for s in w.stars],
    }


def minimality_to_dict(cert) -> dict | None:
    if cert is None:
        return None
    return {
        "stars": [s.text() for s in cert.stars],
        "elements": [element_text(m) for m in cert.elements],
        "combined_rank": cert.combined_rank,
    }


def verdict_to_dict(report) -> dict:
    return {
        "verdict": report.verdict.value,
        "rule": report.rule,
        "witness": witness_to_dict(report.witness),
        "ranks": dict(report.ranks),
        "minimality": minimality_to_dict(report.minimality),
        "caveat": report.caveat,
    }


# ---------------------------------------------------------------------------
# subcommands

def cmd_list_curves(args) -> int:
    curves = enumerate_curves()
    if args.json:
        doc = [
            {"id": c.id, "name": c.name, "family": c.family,
             "coeffs": list(c.divisor.coeffs)}
            for c in curves
        ]
        print(json.dumps(doc, indent=2))
        return 0
    for c in curves:
        print(f"{c.name:<6} {c.family:<3} {c.divisor}")
    return 0


def cmd_list_roots(args) -> int:
    roots = enumerate_roots()
    if args.json:
        print(json.dumps([list(r.coeffs) for r in roots], indent=2))
        return 0
    for r in roots:
        print(r)
    return 0


def cmd_list_stars(args) -> int:
    from .stars import enumerate_stars

    stars = enumerate_stars()
    if args.json:
        print(json.dumps([s.text() for s in stars], indent=2))
        return 0
    print(f"{len(stars)} stars")
    for s in stars:
        print(s.text())
    return 0


def cmd_classify_element(args) -> int:
    m = load_element(args.element)
    order = element_order(m)
    rank = fixed_rank(m)
    doc = {"order": order, "fixed_rank": rank}
    line = f"order {order}, rank {rank}"
    if order == 3:
        ctype = carter_type_order3(m)
        doc["carter_type"] = ctype.display
        line += f", type {ctype.display}"
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(line)
    return 0


def cmd_census(args) -> int:
    from .stars import ActionKind, invariant_curves, invariant_stars, pair_counts

    m = GroupSpec((load_element(args.element),))  # permuted once for both scans
    t = curve_table()
    inv = invariant_curves(m)
    actions = invariant_stars(m)
    trivial = [a.star for a in actions if a.kind is ActionKind.TRIVIAL]
    faithful = [a.star for a in actions if a.kind is ActionKind.FAITHFUL]
    pairwise = pair_counts([a.star.curve_ids for a in actions])
    if args.json:
        doc = {
            "invariant_curves": [t.curve(i).name for i in inv],
            "trivial_stars": [s.text() for s in trivial],
            "faithful_stars": [s.text() for s in faithful],
            "pairwise": pairwise,
        }
        print(json.dumps(doc, indent=2))
        return 0
    print(
        f"invariant curves: {len(inv)}; faithful stars: {len(faithful)}; "
        f"trivial stars: {len(trivial)}"
    )
    for s in trivial:
        print(f"trivial  {s.text()}")
    for s in faithful:
        print(f"faithful {s.text()}")
    print(
        "pairwise: "
        + ", ".join(f"{k} {v}" for k, v in pairwise.items())
    )
    return 0


def cmd_report(args) -> int:
    from .criteria import ActionSetup, rationality_report

    g = load_group(args.g_group, "G", args.cap)
    gamma = load_group(args.gamma, "Gamma", args.cap)
    report = rationality_report(ActionSetup(g, gamma))
    print(json.dumps(verdict_to_dict(report), indent=2))
    return 0


# ---------------------------------------------------------------------------
# lemma suite

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _lemma_dp1lines() -> list[str]:
    curves = enumerate_curves()
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
    from .stars import ActionKind, invariant_curves, invariant_stars, profile

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
        actions = invariant_stars(m)
        faithful = [a.star for a in actions if a.kind is ActionKind.FAITHFUL]
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
    faithful = [
        a.star for a in invariant_stars(m) if a.kind is ActionKind.FAITHFUL
    ][0]
    for c in invariant_curves(m):
        p = profile(c, faithful)
        _require(
            p.kind.value == "all-ones",
            f"invariant curve {curve_table().curve(c).name} profile {p.vector}",
        )
    out.append("OK")
    return out


def _lemma_davidintersection() -> list[str]:
    from .stars import intersection_profile_census, star_table

    census = intersection_profile_census()
    outside = len(star_table().ids_array) * (240 - 6)
    _require(sum(census.values()) == outside, "profile census misses outside pairs")
    counts = ", ".join(f"{count} {kind}" for kind, count in census.items())
    return [f"{outside} outside (curve, star) pairs: {counts}", "OK"]


def _lemma_2daviddef() -> list[str]:
    from .stars import star_table, trichotomy_census

    census = trichotomy_census()
    n = len(star_table().ids_array)
    total = n * (n - 1) // 2
    _require(sum(census.values()) == total, "trichotomy census misses pairs")
    counts = ", ".join(f"{count} {kind}" for kind, count in census.items())
    return [f"{total} star pairs: {counts} (share a Bertini pair)", "OK"]


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
    for s in map(star_table().star, range(10)):
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

    g = representative_order3(CarterType3.A2x4)
    setup = ActionSetup(GroupSpec((g,), "G"), TRIVIAL_GROUP)
    cert = check_minimal_four_stars(setup)
    _require(cert is not None, "no four-star certificate for the A2^4 element")
    _require(cert.combined_rank == 1, f"combined rank {cert.combined_rank}")
    return [f"four-star certificate, combined rank {cert.combined_rank}", "OK"]


def _lemma_davidmin_pair(ctype: CarterType3, rotations: str) -> list[str]:
    from .criteria import ActionSetup, check_minimal_four_stars, search_commuting_order3
    from .stars import ActionKind, invariant_stars

    g = representative_order3(ctype)
    pointwise = [
        a.star for a in invariant_stars(g) if a.kind is ActionKind.TRIVIAL
    ]
    h = search_commuting_order3(g, pointwise)
    setup = ActionSetup(GroupSpec((g, h), "G"), TRIVIAL_GROUP)
    cert = check_minimal_four_stars(setup)
    _require(cert is not None, f"no certificate for the {ctype.display} pair")
    rank = fixed_rank(setup.combined)
    _require(rank == 1, f"direct rank {rank}")
    return [
        f"{ctype.display} with commuting {rotations}: rank {rank}, certificate found",
        "OK",
    ]


def _lemma_ratcor() -> list[str]:
    from .criteria import (
        TripleWitness, TwoStarsWitness, Verdict, gamma_report, replay_triple,
    )
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
        if isinstance(report.witness, TwoStarsWitness):
            a, b = report.witness.stars
            triple = TripleWitness(
                curves=(a.curve_ids[0], b.curve_ids[0], a.curve_ids[1])
            )
            _require(
                replay_triple(gamma, triple),
                f"{name}: two-stars witness gives no triple",
            )
    # any asynchronized pair contains a qualifying triple
    for sa, sb in sample_pairs_by_type(25)[PairType.ASYNCHRONIZED]:
        a, b, c = sa.curve_ids[0], sb.curve_ids[0], sa.curve_ids[1]
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


def cmd_verify_lemma(args) -> int:
    checker = LEMMAS.get(args.name)
    if checker is None:
        print(
            f"unknown lemma {args.name!r}; choose from {', '.join(sorted(LEMMAS))}",
            file=sys.stderr,
        )
        return 2
    try:
        detail = checker()
        ok = True
    except CheckViolation as exc:  # CheckFailure, or a failed library check
        detail = [f"FAIL: {exc}"]
        ok = False
    if args.json:
        doc = {"lemma": args.name, "ok": ok, "detail": detail}
        print(json.dumps(doc, indent=2))
    else:
        for line in detail:
            print(line)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpone",
        description="Exact combinatorics of the degree-1 del Pezzo Picard lattice",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    parser.add_argument(
        "--cap", type=int, default=CLOSURE_CAP,
        help="closure bound for the report's groups G and Gamma",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-curves", help="print the 240 exceptional curves")
    sub.add_parser("list-roots", help="print the 240 roots")
    sub.add_parser("list-stars", help="print all 1120 stars")

    p = sub.add_parser("classify-element", help="order, fixed rank, Carter type")
    p.add_argument("-e", "--element", required=True, help="element file or inline")

    p = sub.add_parser("census", help="invariant curves and stars of an element")
    p.add_argument("-e", "--element", required=True, help="element file or inline")

    p = sub.add_parser("verify-lemma", help="replay a named check")
    p.add_argument("name", help=", ".join(sorted(LEMMAS)))

    p = sub.add_parser("report", help="rationality verdict as JSON")
    p.add_argument("-g", dest="g_group", default=None, help="G generators file or inline")
    p.add_argument("-gamma", "--gamma", dest="gamma", default=None,
                   help="Gamma generators file or inline")
    return parser


COMMANDS = {
    "list-curves": cmd_list_curves,
    "list-roots": cmd_list_roots,
    "list-stars": cmd_list_stars,
    "classify-element": cmd_classify_element,
    "census": cmd_census,
    "verify-lemma": cmd_verify_lemma,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return COMMANDS[args.command](args)
    except ValueError as exc:  # stars.OverlappingStars included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckViolation as exc:  # TrichotomyViolation, CertificateViolation
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
