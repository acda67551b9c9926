import importlib
import json
import os
import subprocess
import time

import jsonschema
import pytest

import dpone
from dpone.cli import load_group, main
from dpone.groups import GroupSpec
from dpone.lattice import MAX_CAP, LatticeIsometry, isometry_to_text
from dpone.weyl import CarterType3, representative_order3
from families import FORGED, PERFBENCH, fresh_python, workloads

VERDICT_SCHEMA = {
    "type": "object",
    "required": ["verdict", "rule", "witness", "ranks"],
    "properties": {
        "verdict": {"enum": ["Rational", "NotRational", "Inconclusive"]},
        "rule": {
            "anyOf": [
                {
                    "enum": [
                        "rational_two_stars",
                        "rational_triple",
                        "not_rational_carter",
                        "not_rational_stars",
                        "not_rational_even",
                    ]
                },
                {"type": "null"},
            ]
        },
        "witness": {
            "anyOf": [
                {
                    "type": "object",
                    "required": ["elements", "curves", "stars"],
                    "properties": {
                        "elements": {"type": "array", "items": {"type": "string"}},
                        "curves": {"type": "array", "items": {"type": "string"}},
                        "stars": {"type": "array", "items": {"type": "string"}},
                    },
                },
                {"type": "null"},
            ]
        },
        "ranks": {
            "type": "object",
            "required": ["G", "Gamma", "combined"],
            "properties": {
                "G": {"type": "integer"},
                "Gamma": {"type": "integer"},
                "combined": {"type": "integer"},
            },
        },
        "minimality": {
            "anyOf": [
                {
                    "type": "object",
                    "required": ["stars", "elements", "combined_rank"],
                },
                {"type": "null"},
            ]
        },
        "caveat": {"anyOf": [{"type": "string"}, {"type": "null"}]},
    },
}

CLASSIFY_SCHEMA = {
    "type": "object",
    "required": ["order", "fixed_rank"],
    "properties": {
        "order": {"type": "integer"},
        "fixed_rank": {"type": "integer"},
        "carter_type": {"type": "string"},
    },
}

CENSUS_SCHEMA = {
    "type": "object",
    "required": ["invariant_curves", "trivial_stars", "faithful_stars", "pairwise"],
    "properties": {
        "invariant_curves": {"type": "array", "items": {"type": "string"}},
        "trivial_stars": {"type": "array", "items": {"type": "string"}},
        "faithful_stars": {"type": "array", "items": {"type": "string"}},
        "pairwise": {"type": "object"},
    },
}

LEMMA_SCHEMA = {
    "type": "object",
    "required": ["lemma", "ok", "detail"],
    "properties": {
        "lemma": {"type": "string"},
        "ok": {"type": "boolean"},
        "detail": {"type": "array", "items": {"type": "string"}},
    },
}

# the schema of each subcommand's JSON document; report always prints JSON
SCHEMAS = {
    "classify-element": CLASSIFY_SCHEMA,
    "census": CENSUS_SCHEMA,
    "verify-lemma": LEMMA_SCHEMA,
    "report": VERDICT_SCHEMA,
}


def run(capsys, *argv):
    """Run the CLI; validate the JSON document of a successful command."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    command = next((a for a in argv if a in SCHEMAS), None)
    if code == 0 and command and ("--json" in argv or command == "report"):
        jsonschema.validate(json.loads(out), SCHEMAS[command])
    return code, out, err


def test_list_curves(capsys):
    code, out, err = run(capsys, "list-curves")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 240
    assert lines[0].startswith("E8")
    assert any(line.startswith("bE8") for line in lines)


def test_list_curves_json(capsys):
    code, out, _ = run(capsys, "--json", "list-curves")
    doc = json.loads(out)
    assert code == 0
    assert len(doc) == 240
    assert {"id", "name", "family", "coeffs"} <= set(doc[0])


def test_list_roots(capsys):
    code, out, _ = run(capsys, "list-roots")
    assert code == 0
    assert len(out.splitlines()) == 240


def test_list_stars(capsys):
    code, out, _ = run(capsys, "list-stars")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "1120 stars"
    assert len(lines) == 1121


def test_classify_element_inline(capsys):
    code, out, _ = run(capsys, "classify-element", "-e", "(1 2 3)(4 5 6)")
    assert code == 0
    assert out.strip() == "order 3, rank 5, type A2^2"


def test_classify_element_word(capsys):
    code, out, _ = run(capsys, "classify-element", "-e", "s 1")
    assert code == 0
    assert out.strip() == "order 2, rank 8"


def test_classify_element_json(capsys):
    code, out, _ = run(capsys, "--json", "classify-element", "-e", "(1 2 3)")
    doc = json.loads(out)
    assert code == 0
    assert doc == {"order": 3, "fixed_rank": 7, "carter_type": "A2"}


def test_classify_element_from_file_with_comments(capsys, tmp_path):
    path = tmp_path / "elt.txt"
    path.write_text("# an order-3 permutation\n(1 2 3)\n")
    code, out, _ = run(capsys, "classify-element", "-e", str(path))
    assert code == 0
    assert out.strip() == "order 3, rank 7, type A2"


def test_classify_element_matrix_file(capsys, tmp_path):
    m = representative_order3(CarterType3.A2x4)
    path = tmp_path / "m.txt"
    path.write_text(isometry_to_text(m) + "\n")
    code, out, _ = run(capsys, "classify-element", "-e", str(path))
    assert code == 0
    assert out.strip() == "order 3, rank 1, type A2^4"


def test_classify_element_spaced_cycles(capsys):
    code, out, _ = run(capsys, "classify-element", "-e", "(1 2) (3 4)")
    assert code == 0
    assert out == "order 2, rank 7\n"


def test_census_a2(capsys):
    code, out, _ = run(capsys, "census", "-e", "(1 2 3)")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "invariant curves: 72; faithful stars: 1; trivial stars: 120"
    assert lines[-1].startswith("pairwise: ")


def test_census_a2x4_matrix(capsys, tmp_path):
    m = representative_order3(CarterType3.A2x4)
    path = tmp_path / "m.txt"
    path.write_text(isometry_to_text(m))
    code, out, _ = run(capsys, "census", "-e", str(path))
    assert code == 0
    assert out.splitlines()[0] == (
        "invariant curves: 0; faithful stars: 40; trivial stars: 0"
    )


def test_census_json(capsys):
    code, out, _ = run(capsys, "--json", "census", "-e", "(1 2 3)(4 5 6)")
    doc = json.loads(out)
    assert code == 0
    assert len(doc["invariant_curves"]) == 12
    assert len(doc["trivial_stars"]) == 2
    assert len(doc["faithful_stars"]) == 2
    assert doc["pairwise"]["asynchronized"] == 6
    assert doc["pairwise"]["overlapping"] == 0


def test_census_bertini_all_stars(capsys):
    # every star is invariant, so the census covers all 626640 pairs
    t0 = time.monotonic()
    # the Bertini involution D -> -2K - D as nine matrix rows
    code, out, _ = run(capsys, "--json", "census", "-e", workloads.BERTINI_ROWS)
    elapsed = time.monotonic() - t0
    doc = json.loads(out)
    assert code == 0
    assert len(doc["trivial_stars"]) + len(doc["faithful_stars"]) == 1120
    assert doc["pairwise"] == {
        "asynchronized": 67200,
        "synchronized": 151200,
        "abnormal": 362880,
        "overlapping": 45360,
    }
    assert elapsed < 10.0, f"Bertini census took {elapsed:.1f}s"


def test_census_counts_are_one_read_only_shape(capsys):
    from dpone.stars import intersection_profile_census, pair_counts, trichotomy_census

    assert trichotomy_census() == {
        "asynchronized": 67200,
        "synchronized": 151200,
        "abnormal": 362880,
        "overlapping": 45360,
    }
    for cached in (trichotomy_census(), intersection_profile_census()):
        with pytest.raises(TypeError):
            cached["touching"] = 0
    code, out, _ = run(capsys, "--json", "census", "-e", "(1 2 3)")
    assert code == 0
    assert list(json.loads(out)["pairwise"]) == list(pair_counts([]))


# every name `dpone` exports, each resolved lazily from its submodule
PACKAGE_EXPORTS = """
    CANONICAL_CLASS DivisorClass GroupSpec LatticeIsometry TRIVIAL_GROUP divisor
    exceptional fixed_rank group_closure is_isometry pair simple_roots
    ExceptionalCurve bertini_isometry curve_table s8_action
    CarterType3 carter_type_order3 element_order enumerate_roots is_root
    parse_element reflection representative_order3
    ActionKind OverlappingStars PairType StarAction TrichotomyViolation
    classify_pair intersection_profile_census invariant_curves invariant_stars
    profile star_graph_automorphisms star_id star_table star_text
    trichotomy_census
    ActionSetup CertificateViolation MinimalityCertificate RationalityVerdict
    Verdict check_minimal_four_stars check_not_rational_carter
    check_not_rational_even check_not_rational_stars check_rational_triple
    check_rational_two_stars gamma_report rationality_report
    search_commuting_order3
""".split()

# runs main on argv in a fresh interpreter and prints which modules it loaded
LOADED_AFTER_MAIN = """
import contextlib, io, sys
import dpone.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = dpone.cli.main(sys.argv[1:])
loaded = ("dpone.stars", "dpone.groups", "dpone.criteria", "dpone.lemmas", "argparse",
          "dataclasses", "json", "jsonschema", "numpy")
print(code, *(m for m in loaded if m in sys.modules))
"""


def stdout_of(code: str, *argv: str) -> str:
    proc = fresh_python("-c", code, *argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_out_jsonschema():
    code = "import sys, dpone.cli; print('jsonschema' in sys.modules)"
    assert stdout_of(code) == "False"
    # the cheap commands load neither the star layer, nor the group layer,
    # nor the rules, nor the lemma suite, which only verify-lemma loads,
    # nor numpy: they read plain Python tables and one element's curve
    # images; json is loaded only to write a JSON document, and no command
    # loads argparse or dataclasses
    for argv, loaded in (
        (["list-curves"], "0"),
        (["--json", "list-roots"], "0 json"),
        (["classify-element", "-e", "(1 2 3)"], "0"),
        (["classify-element", "-e", "s 8 7 6 5 4 3 2 1"], "0"),
        (["--json", "classify-element", "-e", workloads.BERTINI_ROWS], "0 json"),
        (["classify-element", "-e", "(1 9)"], "2"),
        (["classify-element", "-e", "s 1 9"], "2"),
        (["classify-element", "-e", "1 2 3\n4 5 6"], "2"),
        (["classify-element", "-e"], "2"),
        (["--cap", "0", "census", "-e", "(1 2 3)"], "2"),
        (["--help"], "0"),
        (["verify-lemma", "A2A22"], "0 dpone.lemmas"),
        (["verify-lemma", "DP1lines"], "0 dpone.lemmas"),
        (["--json", "verify-lemma", "DP1lines"], "0 dpone.lemmas json"),
        (["verify-lemma", "NoSuchLemma"], "2 dpone.lemmas"),
        # each lemma loads what README's module table says
        (["verify-lemma", "Davidinv"], "0 dpone.stars dpone.groups dpone.lemmas numpy"),
        (["verify-lemma", "2Daviddef"], "0 dpone.stars dpone.lemmas numpy"),
        (["verify-lemma", "RatCor-consistency"],
         "0 dpone.stars dpone.groups dpone.criteria dpone.lemmas numpy"),
        # so that the checks above cannot pass for want of a working
        # probe: the commands that compute on arrays load numpy, census
        # and report load the group layer, and report, refused or not,
        # loads the rules but not the lemma suite
        (["list-stars"], "0 dpone.stars numpy"),
        (["census", "-e", "(1 2 3)"], "0 dpone.stars dpone.groups numpy"),
        (["report", "-gamma", "(1 2 3)"],
         "0 dpone.stars dpone.groups dpone.criteria json numpy"),
        (["report", "-g", "(1 2)", "-gamma", "(1 3)"],
         "2 dpone.stars dpone.groups dpone.criteria numpy"),
    ):
        assert stdout_of(LOADED_AFTER_MAIN, *argv) == loaded, argv
    # a bare `import dpone` loads no submodule, yet every export resolves,
    # and no name is exported that the list above leaves out
    assert sorted(dpone.__all__) == sorted(PACKAGE_EXPORTS)
    code = (
        "import sys, dpone\n"
        "print(*sorted(m for m in sys.modules if m.startswith('dpone')))\n"
        f"print(all(getattr(dpone, name) is not None for name in {PACKAGE_EXPORTS!r}))"
    )
    assert stdout_of(code).splitlines() == ["dpone", "True"]


# builds the four order-3 representatives and types them in a fresh
# interpreter; the without-numpy CI job runs the same line
TYPED_REPRESENTATIVES = (
    "import sys; from dpone.weyl import CarterType3 as C, carter_type_order3 as t, "
    "representative_order3 as r; print(all(t(r(c)) is c for c in C), 'numpy' in sys.modules)"
)


def test_representatives_need_no_numpy():
    assert stdout_of(TYPED_REPRESENTATIVES) == "True False"


# runs main on the bench pool's commands that build group elements with
# every 9x9 matrix product refused, and prints each command's exit code and
# whether its stdout matches the bench oracle; first, a bad reflection word
# must be refused before the curve table is built
NO_MATRIX_PRODUCTS = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import workloads
from dpone.curves import curve_table
from dpone.lattice import LatticeIsometry
from dpone.weyl import parse_element

def refuse(self, other):
    raise AssertionError("9x9 matrix product")

LatticeIsometry.__matmul__ = refuse
try:
    parse_element("s 1 9")
except ValueError:
    print("rejected with", curve_table.cache_info().currsize, "tables")
oracle = workloads.load_oracles()["cli"]
lemmas = {"Davidinv", "Davidmin", "Davidmin1", "Davidmin2", "RatCor-consistency"}
for label, _, argv in workloads.cli_pool():
    if argv[-1].startswith("s ") or {"census", "report"} & set(argv) or lemmas & set(argv):
        rc, out = workloads.run_cli_captured(argv)
        same = hashlib.sha256(out.encode()).hexdigest() == oracle[label]["sha256"]
        print(rc, oracle[label]["exit"], same)
"""


def test_elements_compose_without_matrix_products():
    lines = stdout_of(NO_MATRIX_PRODUCTS, str(PERFBENCH)).splitlines()
    assert lines[0] == "rejected with 0 tables"
    assert len(lines[1:]) == 15
    for line in lines[1:]:
        rc, want, same = line.split()
        assert rc == want and same == "True", lines


# runs every verdict-pool report, plain and under one seeded relabelling,
# with the census pair kernel refused: the rules must not need it
NO_PAIR_CODES = """
import random, sys
sys.path.insert(0, sys.argv[1])
import workloads
import dpone.stars as stars

def refuse(*args):
    raise AssertionError("pair_codes on the report path")

stars.pair_codes = refuse
from dpone.criteria import ActionSetup, rationality_report
from dpone.groups import GroupSpec

rng = random.Random(0)
reports = 0
for _, _, g, gamma in workloads.verdict_pool():
    _, p, p_inv = workloads._relabelling(rng)
    relabelled = [workloads._conjugate(x, p, p_inv) for x in (g, gamma)]
    for gens in ((g, gamma), relabelled):
        g_spec, gamma_spec = GroupSpec(gens[0], "G"), GroupSpec(gens[1], "Gamma")
        rationality_report(ActionSetup(g_spec, gamma_spec))
        reports += 1
print(reports, "reports")
try:
    stars.trichotomy_census()
except AssertionError:
    print("census refused")
"""


def test_report_path_never_calls_pair_codes():
    lines = stdout_of(NO_PAIR_CODES, str(PERFBENCH)).splitlines()
    assert lines == ["114 reports", "census refused"]


@pytest.mark.parametrize(
    "argv",
    [
        ["list-stars"],
        ["list-curves"],
        ["--json", "list-roots"],
        ["classify-element", "-e", "(1 2 3)"],
    ],
    ids=" ".join,
)
def test_closed_stdout_exits_quietly(argv):
    """A reader that went away (`dpone list-stars | head -3`) ends the run."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = fresh_python("-m", "dpone", *argv, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_report_trivial(capsys):
    code, out, _ = run(capsys, "report")
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "Rational"
    assert doc["rule"] == "rational_two_stars"
    assert doc["caveat"]
    assert doc["ranks"] == {"G": 9, "Gamma": 9, "combined": 9}
    assert len(doc["witness"]["stars"]) == 2


def test_report_gamma_inline(capsys):
    code, out, _ = run(capsys, "report", "-gamma", "(1 2 3)")
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "Rational"
    assert doc["ranks"]["Gamma"] == 7


def test_report_gamma_group_file(capsys, tmp_path):
    path = tmp_path / "gamma.txt"
    path.write_text("(1 2 3)\n\n(4 5 6)\n")
    code, out, _ = run(capsys, "report", "-gamma", str(path))
    doc = json.loads(out)
    assert code == 0
    assert doc["ranks"]["Gamma"] == 5
    assert doc["verdict"] == "Rational"


def test_report_not_rational(capsys, tmp_path):
    path = tmp_path / "g3.txt"
    path.write_text(isometry_to_text(representative_order3(CarterType3.A2x3)))
    code, out, _ = run(capsys, "report", "-gamma", str(path))
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "NotRational"
    assert doc["rule"] == "not_rational_carter"
    assert doc["caveat"] is None
    assert doc["witness"]["elements"]


def test_report_minimality_for_g(capsys, tmp_path):
    path = tmp_path / "g4.txt"
    path.write_text(isometry_to_text(representative_order3(CarterType3.A2x4)))
    code, out, _ = run(capsys, "report", "-g", str(path))
    doc = json.loads(out)
    assert code == 0
    assert doc["ranks"] == {"G": 1, "Gamma": 9, "combined": 1}
    assert doc["minimality"] is not None
    assert doc["minimality"]["combined_rank"] == 1
    assert len(doc["minimality"]["stars"]) == 4


def test_verify_lemma_dp1lines(capsys):
    code, out, _ = run(capsys, "verify-lemma", "DP1lines")
    assert code == 0
    assert out.strip() == "240 curves; families 8/28/56/56/56/28/8; OK"


def test_verify_lemma_a2a22(capsys):
    code, out, _ = run(capsys, "verify-lemma", "A2A22")
    assert code == 0
    assert out.splitlines()[-1] == "OK"


def test_verify_lemma_json(capsys):
    code, out, _ = run(capsys, "--json", "verify-lemma", "A2A22")
    doc = json.loads(out)
    assert code == 0
    assert doc["lemma"] == "A2A22"
    assert doc["ok"] is True
    assert doc["detail"][-1] == "OK"


def test_verify_lemma_unknown(capsys):
    code, out, err = run(capsys, "verify-lemma", "NoSuchLemma")
    assert code == 2
    assert "unknown lemma" in err


def test_failed_lemma_exits_1(capsys, monkeypatch):
    import dpone.lemmas as lemmas

    def failing():
        raise lemmas.CheckFailure("planted counterexample")

    monkeypatch.setitem(lemmas.LEMMAS, "A2A22", failing)
    code, out, _ = run(capsys, "verify-lemma", "A2A22")
    assert code == 1
    assert out == "FAIL: planted counterexample\n"

    # a library check failing inside a lemma is a failed check, not a traceback
    import dpone.stars as stars

    def violated(*args):
        raise stars.TrichotomyViolation("planted violation")

    monkeypatch.setattr(stars, "pair_codes", violated)
    stars.trichotomy_census.cache_clear()  # a raising census caches nothing
    code, out, _ = run(capsys, "--json", "verify-lemma", "2Daviddef")
    assert code == 1
    assert json.loads(out) == {
        "lemma": "2Daviddef", "ok": False, "detail": ["FAIL: planted violation"],
    }


def test_failed_library_check_exits_1(capsys, monkeypatch):
    # a library self-check raises CheckViolation, never AssertionError: with
    # no fixed-curve count known, typing an order-3 element fails the check
    import dpone.weyl as weyl

    monkeypatch.setattr(weyl, "_FIXED_CURVES_TO_TYPE", {})
    code, out, err = run(capsys, "classify-element", "-e", "(1 2 3)")
    assert (code, out) == (1, "")
    assert err == "check failed: order-3 element fixing 72 curves\n"
    code, out, err = run(capsys, "verify-lemma", "A2A22")
    assert (code, err) == (1, "")
    assert out == "FAIL: order-3 element fixing 72 curves\n"


# each row forges what a lemma reads so that only its exact numbers are
# wrong: the counts still add up to their totals, the samples still agree
@pytest.mark.parametrize(
    "name, target, forge",
    [
        ("Davidintersection", "dpone.stars.intersection_profile_census",
         lambda real: lambda: {"all-ones": 80641, "touching": 181439}),
        ("2Daviddef", "dpone.stars.trichotomy_census",
         lambda real: lambda: {"asynchronized": 151200, "synchronized": 67200,
                               "abnormal": 362880, "overlapping": 45360}),
        ("Davidauto", "dpone.stars.sample_pairs_by_type",
         lambda real: lambda k: {p: pairs[:9] for p, pairs in real(k).items()}),
        ("RatCor-consistency", "dpone.criteria.check_rational_triple",
         lambda real: lambda gamma: None),
        ("Davidinv", "dpone.weyl.ORDER3_TEXT",
         lambda real: {**real, CarterType3.A2x3: real[CarterType3.A2x2]}),
        ("Davidmin", "dpone.criteria.check_minimal_four_stars",
         lambda real: lambda setup: None),
        ("Davidmin1", "dpone.criteria.check_minimal_four_stars",
         lambda real: lambda setup: None),
        ("DP1lines", "dpone.lemmas.solve_norm",
         lambda real: lambda square, dot_k: real(square, dot_k)[1:]),
    ],
    ids=["profile split", "async and sync swapped", "9 pairs per type", "no triple",
         "A2^3 written as A2^2", "no A2^4 certificate", "no A2^3 pair certificate",
         "one curve class unsolved"],
)
def test_forged_lemma_inputs_fail(capsys, monkeypatch, name, target, forge):
    module, attr = target.rsplit(".", 1)
    monkeypatch.setattr(target, forge(getattr(importlib.import_module(module), attr)))
    representative_order3.cache_clear()  # so that a forged text is read, and not kept
    try:
        code, out, _ = run(capsys, "verify-lemma", name)
    finally:
        representative_order3.cache_clear()
    assert code == 1
    assert out.startswith("FAIL: ") and out.count("\n") == 1, out


@pytest.mark.parametrize("name", ["Davidmin1", "Davidmin2"])
def test_davidmin_pair_lemmas_eliminate_their_direct_rank(capsys, monkeypatch, name):
    # the certificate's rank is its closure's average trace; the direct
    # rank is eliminated anew, so a wrong elimination fails the lemma
    import dpone.groups as groups

    monkeypatch.setattr(groups, "integer_rank", lambda rows: 0)  # rank 9
    code, out, _ = run(capsys, "verify-lemma", name)
    assert code == 1
    assert out == "FAIL: direct rank 9\n"


def test_certificate_violation_in_report_exits_1(capsys, monkeypatch):
    import dpone.criteria as criteria

    def violated(gamma):
        raise criteria.CertificateViolation("planted violation")

    rules = (("rational_two_stars", criteria.Verdict.RATIONAL, violated),)
    monkeypatch.setattr(criteria, "RULES", rules)
    code, out, err = run(capsys, "report", "-gamma", "(1 2 3)")
    assert code == 1
    assert out == ""
    assert err == "check failed: planted violation\n"

    # the same for a pair that breaks the trichotomy inside a rule
    import dpone.stars as stars

    def broken(*args):
        raise stars.TrichotomyViolation("planted trichotomy violation")

    monkeypatch.undo()
    # the first rule reads the star partner table, built with asynchronized
    monkeypatch.delitem(stars.star_table().__dict__, "partners", raising=False)
    monkeypatch.setattr(stars, "asynchronized", broken)
    code, out, err = run(capsys, "report", "-gamma", "(1 2 3)")
    assert code == 1
    assert out == ""
    assert err == "check failed: planted trichotomy violation\n"


@pytest.mark.parametrize("argv", [("census", "-e", "(1 2 3)"), ("report",)])
def test_overlapping_stars_exit_2(capsys, monkeypatch, argv):
    import dpone.stars as stars

    def overlapping(*args):
        raise stars.OverlappingStars(frozenset({0}))

    # census finds invariant stars with star_masks; the report's first rule
    # reads the star partner table, built with asynchronized
    if argv[0] == "census":
        monkeypatch.setattr(stars, "star_masks", overlapping)
        monkeypatch.setattr("dpone.criteria.star_masks", overlapping)
    else:
        monkeypatch.delitem(stars.star_table().__dict__, "partners", raising=False)
        monkeypatch.setattr(stars, "asynchronized", overlapping)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: stars share curves {")


def test_bad_element_exits_2(capsys):
    code, _, err = run(capsys, "classify-element", "-e", "(1 2")
    assert code == 2
    assert "error:" in err


# int() reads other scripts' digits and "_" separators; element text does not
IDENTITY_0_1 = isometry_to_text(LatticeIsometry.identity())[:-1] + "0_1"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("classify-element", "-e", "(\u0661 2)"), "malformed cycle string: '(\u0661 2)'"),
        (("classify-element", "-e", "s \u0661"), "bad reflection index: '\u0661'"),
        (("classify-element", "-e", "s 1_0"), "bad reflection index: '1_0'"),
        (("classify-element", "-e", IDENTITY_0_1), "bad matrix entry '0_1'"),
        (("classify-element", "-e", "\u0661 0 0"), "cannot read an element from '\u0661'"),
        (("--cap", "\u0661\u0660", "report", "-gamma", "(1 2 3)"),
         "--cap takes ASCII digits, not '\u0661\u0660'"),
        (("--cap", "1_0", "report", "-gamma", "(1 2 3)"),
         "--cap takes ASCII digits, not '1_0'"),
    ],
    ids=["cycle", "word", "word separator", "matrix", "matrix start", "cap", "cap separator"],
)
def test_only_ascii_digits_read_as_integers(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [("classify-element", "-e"), ("census", "-e"), ("report", "-g"), ("report", "-gamma")],
)
def test_directory_input_exits_2(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read") and str(tmp_path) in err


def test_oversized_input_exits_2(capsys, tmp_path):
    path = tmp_path / "padded.txt"
    path.write_text("(1 2 3)" + " " * (1 << 20))  # past the 1 MiB read limit
    code, out, err = run(capsys, "classify-element", "-e", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(path) in err


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_endless_input_exits_2(capsys):
    code, out, err = run(capsys, "census", "-e", "/dev/zero")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "/dev/zero" in err


@pytest.mark.parametrize("gamma", [(), ("-gamma", "(1 2 3)")], ids=["trivial", "A2"])
@pytest.mark.parametrize("cap", ["0", "-1", "10000000"])
def test_cap_below_one_exits_2(capsys, monkeypatch, cap, gamma):
    # past the ceiling too: --cap 10000000 would let a closure take about 37 GiB
    def no_closure(g):
        raise AssertionError("a closure was built")

    monkeypatch.setattr("dpone.groups.group_closure", no_closure)
    code, out, err = run(capsys, "--cap", cap, "report", *gamma)
    assert code == 2
    assert out == ""
    if int(cap) < 1:
        assert err == "error: cap must be >= 1\n"
    else:
        assert err == f"error: cap must be <= {MAX_CAP}, about 1 GiB of closure\n"
    # read_argv refuses the cap first; a GroupSpec built in process refuses
    # it too, and so does load_group, before it reads an unreadable block
    with pytest.raises(ValueError) as refused:
        GroupSpec((), "Gamma", int(cap))
    assert err == f"error: {refused.value}\n"
    with pytest.raises(ValueError) as refused:
        load_group("(1 9)", "Gamma", int(cap))
    assert err == f"error: {refused.value}\n"


def test_cap_exceeded_exits_2(capsys):
    code, out, err = run(capsys, "--cap", "5", "report", "-gamma", "(1 2 3 4 5 6 7 8)")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "cap 5" in err


@pytest.mark.parametrize("identity", [False, True], ids=["plain", "identity"])
def test_group_file_is_read_up_to_the_cap(capsys, monkeypatch, tmp_path, identity):
    import dpone.cli as cli

    parsed = []
    real = cli.parse_element
    monkeypatch.setattr(cli, "parse_element", lambda text: parsed.append(text) or real(text))
    # k = 3 distinct elements, (2 1) repeating (1 2) as a new block, and a
    # bad block that only a full read reaches
    k, head = 3, ["id"] if identity else []
    path = tmp_path / "gamma.txt"
    path.write_text("\n\n".join(head + ["(1 2)", "(1 3)", "(1 4)", "(2 1)", "(1 9)"]))

    # cap k: the k elements and the identity outnumber it at the k-th element
    with pytest.raises(ValueError, match="^group Gamma closure exceeds cap 3$"):
        cli.load_group(str(path), "Gamma", k)
    assert len(parsed) == len(head) + k
    code, out, err = run(capsys, "--cap", str(k), "report", "-gamma", str(path))
    assert (code, out, err) == (2, "", "error: group Gamma closure exceeds cap 3\n")

    # cap k + 1: every block is read, and the closure, of S4, then fails the
    # same way
    path.write_text(path.read_text().rsplit("\n\n", 1)[0])
    parsed.clear()
    g = cli.load_group(str(path), "Gamma", k + 1)
    assert len(parsed) == len(head) + k + 1
    assert len(g.generators) == len(head) + k
    with pytest.raises(ValueError, match="^group Gamma closure exceeds cap 4$"):
        g.perms


def test_non_isometry_matrix_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    rows = [" ".join("0" for _ in range(9)) for _ in range(9)]
    path.write_text("\n".join(rows))
    code, _, err = run(capsys, "classify-element", "-e", str(path))
    assert code == 2


@pytest.mark.parametrize("name", sorted(FORGED))
def test_forged_matrix_exits_2(capsys, tmp_path, name):
    path = tmp_path / "forged.txt"
    path.write_text("\n".join(" ".join(map(str, row)) for row in FORGED[name]))
    code, out, err = run(capsys, "classify-element", "-e", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: matrix does not preserve the pairing and fix K\n"


def test_repeated_blocks_are_read_once(capsys, tmp_path):
    path = tmp_path / "repeated.txt"
    path.write_text("(1 2)\n\n" * 149_795)  # 1,048,565 bytes, inside the read limit
    started = time.perf_counter()
    code, out, err = run(capsys, "report", "-gamma", str(path))
    elapsed = time.perf_counter() - started
    assert (code, err) == (0, "")
    assert out == run(capsys, "report", "-gamma", "(1 2)")[1]
    assert elapsed < 10, elapsed


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["list-curves", "--frobnicate"],
        ["classify-element"],
        ["census", "-e"],
        ["--cap"],
        ["list-curves", "-e", "(1 2 3)"],
        ["classify-element", "-e", "(1 2 3)", "-gamma", "(1 2 3)"],
        ["verify-lemma"],
        ["verify-lemma", "A2A22", "DP1lines"],
        ["report", "--json"],
        ["--cap", "-1", "list-curves"],
        ["--cap", "0", "census", "-e", "(1 2 3)"],
        ["--cap", "300000", "list-stars"],
    ],
    ids=[
        "no command", "unknown command", "unknown option", "missing -e",
        "-e without value", "--cap without value", "option of no command",
        "option of another command", "missing lemma name", "second lemma name",
        "global option after the command", "cap below 1", "cap 0 on census",
        "cap above MAX_CAP",
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["-h"], ["--json", "--help"], ["report", "--help"], ["census", "-h"]],
    ids=" ".join,
)
def test_help_names_every_command(capsys, argv):
    import dpone.cli as cli
    from dpone.groups import CLOSURE_CAP

    code = main(argv)  # not run: report's help is text, not a verdict
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out == cli.USAGE + "\n"
    assert all(command in out for command in cli.COMMANDS) and len(cli.COMMANDS) == 7
    assert f"(default {CLOSURE_CAP})" in out


@pytest.mark.parametrize(
    "name",
    [
        "Davidinv",
        "Davidintersection",
        "2Daviddef",
        "Davidauto",
        "Davidmin",
        "Davidmin1",
        "Davidmin2",
        "RatCor-consistency",
    ],
)
def test_verify_lemma_catalogue(capsys, name):
    code, out, _ = run(capsys, "verify-lemma", name)
    assert code == 0
    assert out.splitlines()[-1] == "OK"
