"""Command-line front end: dumps, classification, lemma checks, verdicts.

    dpone [--json] [--cap N] COMMAND [OPTIONS]

`main` reads argv against one table, `COMMANDS`: each command's
function, its options and the ones it requires.  `--json` and `--cap N`
come before the command, and `-h`/`--help` wherever an option may stand
prints `USAGE`.  An option takes the next token as its value, whatever
it is; `--cap` reads ASCII digits only (`lattice.read_int`), and takes 1
to `lattice.MAX_CAP` whatever the command.  Any other token is a usage
error: one `error:` line on stderr and exit 2.

Element inputs (-e, -g, -gamma) take a file path or inline text in any of
the three formats of the weyl module: cycle notation "(1 2 3)(4 5 6)",
a reflection word "s 1 2 1", or nine rows of nine integers.  Group files
may contain several elements separated by blank lines; # starts a
comment.  A file is read up to MAX_INPUT_CHARS characters, and a group
file's blocks one at a time, up to the cap on the group's closure.

Each subcommand returns its JSON document and its text lines, and main
alone writes one of them to stdout.  Exit codes: 0 ok, 1 check failed,
2 usage error, 141 stdout closed before the output was written.

A subcommand imports only what it runs: `stars` by list-stars, census
and report; `groups` by census and report; `criteria` by report; the
lemma suite, `lemmas`, by verify-lemma alone; `json` only to write a
JSON document.  Numpy is loaded only by the commands that compute on
arrays: list-curves, list-roots, classify-element and verify-lemma
A2A22 and DP1lines read plain Python tables and one element's curve
images, and never import it or the group layer.  A process that writes
no bytecode cache compiles each module it imports, so a module left out
saves its compile time too.
"""

from __future__ import annotations

import os
import sys
from itertools import chain
from typing import TYPE_CHECKING

from .curves import curve_table
from .lattice import (
    CheckViolation,
    LatticeIsometry,
    check_cap,
    cycles_string,
    fixed_rank,
    permutation_of_isometry,
    read_int,
)
from .weyl import carter_type_order3, element_order, enumerate_roots, parse_element

if TYPE_CHECKING:
    from .groups import GroupSpec


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

    No value, or no element in it, gives the trivial group.  A repeated
    block is parsed once.  ``cap`` bounds the group's closure, and is
    checked first, even for the trivial group.  The blocks are parsed one
    at a time, and reading stops with the closure's own error once the
    distinct elements, with the identity, outnumber ``cap``: they all lie
    in the group, so its closure would fail.
    """
    from .groups import GroupSpec, cap_exceeded

    check_cap(cap)
    if value is None:
        return GroupSpec((), label, cap)
    text = _strip_comments(_read_source(value))
    generators, distinct = [], {LatticeIsometry.identity()}
    for block in dict.fromkeys(b.strip() for b in text.split("\n\n")):
        if block:
            generators.append(_parse(block, value))
            distinct.add(generators[-1])
            if cap < len(distinct):
                raise cap_exceeded(label, cap)
    return GroupSpec(tuple(generators), label, cap)


def element_text(m: LatticeIsometry) -> str:
    """Cycle notation when the element permutes the E_i, else the matrix."""
    perm = permutation_of_isometry(m)
    if perm is not None:
        return cycles_string(perm)
    return " / ".join(" ".join(str(x) for x in row) for row in m.matrix)


def _elements_text(elements) -> list[str]:
    """The text of witness or certificate elements, each a closure row's
    bytes that becomes a validated 9x9 matrix only here."""
    from .criteria import element_isometry

    return [element_text(element_isometry(e)) for e in elements]


def witness_to_dict(w) -> dict | None:
    from .stars import star_text

    if w is None:
        return None
    return {
        "elements": _elements_text(w.elements),
        "curves": [curve_table().curve(i).name for i in w.curves],
        "stars": [star_text(s) for s in w.stars],
    }


def minimality_to_dict(cert) -> dict | None:
    from .stars import star_text

    if cert is None:
        return None
    return {
        "stars": [star_text(s) for s in cert.stars],
        "elements": _elements_text(cert.elements),
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
    m = load_element(args["element"])  # all three read its curve images, built once
    order, rank = element_order(m), fixed_rank(m)
    doc = {"order": order, "fixed_rank": rank}
    line = f"order {order}, rank {rank}"
    if order == 3:
        doc["carter_type"] = carter_type_order3(m).display
        line += f", type {doc['carter_type']}"
    return 0, doc, [line]


def cmd_census(args):
    from .groups import GroupSpec
    from .stars import invariant_curves, pair_counts, split_invariant_stars, star_text

    m = GroupSpec((load_element(args["element"]),))  # permuted once for both scans
    inv = invariant_curves(m)
    trivial, faithful = split_invariant_stars(m)
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
    from .groups import CLOSURE_CAP

    cap = args.get("cap", CLOSURE_CAP)
    g = load_group(args.get("g"), "G", cap)
    gamma = load_group(args.get("gamma"), "Gamma", cap)
    return 0, verdict_to_dict(rationality_report(ActionSetup(g, gamma))), None


def cmd_verify_lemma(args):
    from .lemmas import LEMMAS

    name = args["name"]
    checker = LEMMAS.get(name)
    if checker is None:
        raise ValueError(f"unknown lemma {name!r}; choose from {', '.join(sorted(LEMMAS))}")
    try:
        detail, ok = checker(), True
    except CheckViolation as exc:  # CheckFailure, or a failed library check
        detail, ok = [f"FAIL: {exc}"], False
    return int(not ok), {"lemma": name, "ok": ok, "detail": detail}, detail


# ---------------------------------------------------------------------------
# entry point

USAGE = """\
usage: dpone [--json] [--cap N] COMMAND [OPTIONS]

Exact combinatorics of the degree-1 del Pezzo Picard lattice.

commands:
  list-curves                       print the 240 exceptional curves
  list-roots                        print the 240 roots
  list-stars                        print all 1120 stars
  classify-element -e ELEMENT       order, fixed rank, Carter type
  census -e ELEMENT                 invariant curves and stars of an element
  verify-lemma NAME                 replay a named check
  report [-g GROUP] [-gamma GROUP]  rationality verdict as JSON

options:
  --json            emit JSON output
  --cap N           closure bound for the report's groups G and Gamma
                    (default 10000)
  -e, --element     element file or inline text
  -g                G generators file or inline text
  -gamma, --gamma   Gamma generators file or inline text
  -h, --help        print this text\
"""


def cmd_help(args):
    return 0, None, [USAGE]


ELEMENT = {"-e": "element", "--element": "element"}

# command -> (function, {option: keyword it sets}, {required keyword: its
# usage}); the option None is the command's one positional argument
COMMANDS = {
    "list-curves": (cmd_list_curves, {}, {}),
    "list-roots": (cmd_list_roots, {}, {}),
    "list-stars": (cmd_list_stars, {}, {}),
    "classify-element": (cmd_classify_element, ELEMENT, {"element": "-e ELEMENT"}),
    "census": (cmd_census, ELEMENT, {"element": "-e ELEMENT"}),
    "verify-lemma": (cmd_verify_lemma, {None: "name"}, {"name": "NAME"}),
    "report": (cmd_report, {"-g": "g", "-gamma": "gamma", "--gamma": "gamma"}, {}),
}


def read_argv(argv: list[str]):
    """(function, keywords, --json) of the command argv names.

    -h or --help, where an option could stand, gives `cmd_help` instead;
    every other token the grammar does not take raises ValueError.
    """
    tokens, args, as_json = iter(argv), {}, False

    def value(option: str) -> str:
        token = next(tokens, None)
        if token is None:
            raise ValueError(f"{option} takes a value")
        return token

    for token in tokens:
        if token in ("-h", "--help"):
            return cmd_help, {}, False
        if token == "--json":
            as_json = True
        elif token == "--cap":
            text = value(token)
            args["cap"] = check_cap(read_int(text, f"--cap takes ASCII digits, not {text!r}"))
        elif token in COMMANDS:
            break
        elif token.startswith("-"):
            raise ValueError(f"unknown option {token!r}; see dpone --help")
        else:
            raise ValueError(f"unknown command {token!r}; choose from {', '.join(COMMANDS)}")
    else:
        raise ValueError("no command given; see dpone --help")
    command = token
    run, options, required = COMMANDS[command]
    for token in tokens:
        if token in ("-h", "--help"):
            return cmd_help, {}, False
        if token in options:
            args[options[token]] = value(token)
        elif None in options and options[None] not in args and not token.startswith("-"):
            args[options[None]] = token
        else:
            raise ValueError(f"{command} takes no {token!r}; see dpone --help")
    for key, usage in required.items():
        if key not in args:
            raise ValueError(f"{command} needs {usage}; see dpone --help")
    return run, args, as_json


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and write its document: the one stdout writer."""
    try:
        run, args, as_json = read_argv(sys.argv[1:] if argv is None else argv)
        code, doc, lines = run(args)
    except ValueError as exc:  # stars.OverlappingStars included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckViolation as exc:  # TrichotomyViolation, CertificateViolation
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    try:
        if as_json or lines is None:
            import json  # the text lines need none of it

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
