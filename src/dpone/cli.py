"""Command-line front end: dumps, classification, lemma checks, verdicts.

Element inputs (-e, -g, -gamma) take a file path or inline text in any of
the three formats of the weyl module: cycle notation "(1 2 3)(4 5 6)",
a reflection word "s 1 2 1", or nine rows of nine integers.  Group files
may contain several elements separated by blank lines; # starts a
comment.  A file is read up to MAX_INPUT_CHARS characters.

Each subcommand returns its JSON document and its text lines, and main
alone writes one of them to stdout.  Exit codes: 0 ok, 1 check failed,
2 usage error, 141 stdout closed before the output was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain

from .curves import FAMILIES, curve_table
from .lattice import (
    CLOSURE_CAP,
    CheckViolation,
    GroupSpec,
    LatticeIsometry,
    TRIVIAL_GROUP,
    cycles_string,
    fixed_rank,
    permutation_of_isometry,
    permutation_orders,
    solve_norm,
)
from .weyl import (
    CarterType3,
    carter_type_order3,
    carter_types,
    element_order,
    enumerate_roots,
    parse_element,
    representative_order3,
)

# `stars` and `criteria` are imported where used: by list-stars, census,
# report and every lemma but DP1lines and A2A22


class CheckFailure(CheckViolation):
    """A lemma check found a counterexample."""


MAX_INPUT_CHARS = 1 << 20  # a 9x9 matrix takes about 250


def _read_source(value: str) -> str:
    if not os.path.exists(value):
        return value
    try:
        with open(value, "r", encoding="utf-8") as fh:
            text = fh.read(MAX_INPUT_CHARS + 1)  # /dev/zero has no end
    except OSError as exc:
        raise ValueError(f"cannot read {value!r}: {exc.strerror}") from None
    if len(text) > MAX_INPUT_CHARS:
        raise ValueError(f"{value!r} is longer than {MAX_INPUT_CHARS} characters")
    return text


def _strip_comments(text: str) -> str:
    """The text without comments, each line right-stripped."""
    return "\n".join(line.split("#", 1)[0].rstrip() for line in text.splitlines())


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
    blocks = _strip_comments(_read_source(value)).split("\n\n")
    generators = tuple(_parse(b, value) for b in blocks if b.strip())
    return GroupSpec(generators, label, cap)


def element_text(m: LatticeIsometry) -> str:
    """Cycle notation when the element permutes the E_i, else the matrix."""
    perm = permutation_of_isometry(m)
    if perm is not None:
        return cycles_string(perm)
    return " / ".join(" ".join(str(x) for x in row) for row in m.matrix)


def witness_to_dict(w) -> dict | None:
    from .stars import star_text

    if w is None:
        return None
    return {
        "elements": [element_text(m) for m in w.elements],
        "curves": [curve_table().curve(i).name for i in w.curves],
        "stars": [star_text(s) for s in w.stars],
    }


def minimality_to_dict(cert) -> dict | None:
    from .stars import star_text

    if cert is None:
        return None
    return {
        "stars": [star_text(s) for s in cert.stars],
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
# subcommands: each returns (exit code, JSON document, text lines or None)

def cmd_list_curves(args):
    curves = curve_table().curves
    doc = [
        {"id": c.id, "name": c.name, "family": c.family,
         "coeffs": list(c.divisor.coeffs)}
        for c in curves
    ]
    return 0, doc, (f"{c.name:<6} {c.family:<3} {c.divisor}" for c in curves)


def cmd_list_roots(args):
    roots = enumerate_roots()
    return 0, [list(r.coeffs) for r in roots], map(str, roots)


def cmd_list_stars(args):
    from .stars import star_table, star_text

    texts = [star_text(s) for s in star_table().stars]
    return 0, texts, chain([f"{len(texts)} stars"], texts)


def cmd_classify_element(args):
    m = load_element(args.element)
    perm = curve_table().permutation_of(m)[None]  # read for the order and type
    order, rank = int(permutation_orders(perm)[0]), fixed_rank(m)
    doc = {"order": order, "fixed_rank": rank}
    line = f"order {order}, rank {rank}"
    if order == 3:
        doc["carter_type"] = carter_types(perm)[0].display
        line += f", type {doc['carter_type']}"
    return 0, doc, [line]


def _split_stars(g) -> tuple[list, list]:
    """The invariant stars of g: those it fixes pointwise, those it rotates."""
    from .stars import ActionKind, invariant_stars

    actions = invariant_stars(g)
    return tuple(
        [a.star for a in actions if a.kind is kind]
        for kind in (ActionKind.TRIVIAL, ActionKind.FAITHFUL)
    )


def cmd_census(args):
    from .stars import invariant_curves, pair_counts, star_text

    m = GroupSpec((load_element(args.element),))  # permuted once for both scans
    inv = invariant_curves(m)
    trivial, faithful = _split_stars(m)
    doc = {
        "invariant_curves": [curve_table().curve(i).name for i in inv],
        "trivial_stars": [star_text(s) for s in trivial],
        "faithful_stars": [star_text(s) for s in faithful],
        "pairwise": pair_counts(trivial + faithful),
    }
    lines = chain(
        [f"invariant curves: {len(inv)}; faithful stars: {len(faithful)}; "
         f"trivial stars: {len(trivial)}"],
        (f"trivial  {s}" for s in doc["trivial_stars"]),
        (f"faithful {s}" for s in doc["faithful_stars"]),
        ["pairwise: " + ", ".join(f"{k} {v}" for k, v in doc["pairwise"].items())],
    )
    return 0, doc, lines


def cmd_report(args):
    from .criteria import ActionSetup, rationality_report

    g = load_group(args.g_group, "G", args.cap)
    gamma = load_group(args.gamma, "Gamma", args.cap)
    return 0, verdict_to_dict(rationality_report(ActionSetup(g, gamma))), None


# ---------------------------------------------------------------------------
# lemma suite

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
    from .stars import invariant_curves, profile

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
        _, faithful = _split_stars(m)
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
    faithful = _split_stars(m)[1][0]
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

    g = representative_order3(CarterType3.A2x4)
    setup = ActionSetup(GroupSpec((g,), "G"), TRIVIAL_GROUP)
    cert = check_minimal_four_stars(setup)
    _require(cert is not None, "no four-star certificate for the A2^4 element")
    _require(cert.combined_rank == 1, f"combined rank {cert.combined_rank}")
    return [f"four-star certificate, combined rank {cert.combined_rank}", "OK"]


def _lemma_davidmin_pair(ctype: CarterType3, rotations: str) -> list[str]:
    from .criteria import ActionSetup, check_minimal_four_stars, search_commuting_order3

    g = representative_order3(ctype)
    h = search_commuting_order3(g, _split_stars(g)[0])
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
    from .criteria import Verdict, Witness, gamma_report, replay_triple
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


def cmd_verify_lemma(args):
    checker = LEMMAS.get(args.name)
    if checker is None:
        raise ValueError(
            f"unknown lemma {args.name!r}; choose from {', '.join(sorted(LEMMAS))}"
        )
    try:
        detail, ok = checker(), True
    except CheckViolation as exc:  # CheckFailure, or a failed library check
        detail, ok = [f"FAIL: {exc}"], False
    return int(not ok), {"lemma": args.name, "ok": ok, "detail": detail}, detail


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

    def command(name, run, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        return p

    command("list-curves", cmd_list_curves, "print the 240 exceptional curves")
    command("list-roots", cmd_list_roots, "print the 240 roots")
    command("list-stars", cmd_list_stars, "print all 1120 stars")

    p = command("classify-element", cmd_classify_element, "order, fixed rank, Carter type")
    p.add_argument("-e", "--element", required=True, help="element file or inline")

    p = command("census", cmd_census, "invariant curves and stars of an element")
    p.add_argument("-e", "--element", required=True, help="element file or inline")

    p = command("verify-lemma", cmd_verify_lemma, "replay a named check")
    p.add_argument("name", help=", ".join(sorted(LEMMAS)))

    p = command("report", cmd_report, "rationality verdict as JSON")
    p.add_argument("-g", dest="g_group", default=None, help="G generators file or inline")
    p.add_argument("-gamma", "--gamma", dest="gamma", default=None,
                   help="Gamma generators file or inline")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and write its document: the one stdout writer."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, doc, lines = args.run(args)
    except ValueError as exc:  # stars.OverlappingStars included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckViolation as exc:  # TrichotomyViolation, CertificateViolation
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    try:
        if args.json or lines is None:
            print(json.dumps(doc, indent=2))
        else:
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:  # the reader went away, as in `dpone list-stars | head`
        # so that the interpreter's exit flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell tool stopped by the closed pipe
    return code


if __name__ == "__main__":
    sys.exit(main())
