"""The bench harness's exact answers, checked in process.

`perfbench/` runs dpone and checks each answer against
`perfbench/oracles.json`: the exit code and stdout sha256 of every
`cli_cold` command, and the oracles and replays of the `verdicts` and
`star_pairs` ops.  It reads dpone names such as `star_table().stars`,
`pairing_array`, `invariant_stars` and `ActionKind`.  These tests run the
same ops and checks without timing them, so a renamed name or a changed
answer fails here and not only in a bench run.
"""

import hashlib
import importlib
import json
import random
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_cli_pool_matches_oracles(workloads):
    oracle = workloads.load_oracles()["cli"]
    pool = workloads.cli_pool()
    assert len(pool) == 34
    assert sorted(label for label, _, _ in pool) == sorted(oracle)
    for label, _, argv in pool:
        rc, out = workloads.run_cli_captured(argv)
        want = oracle[label]
        assert rc == want["exit"], label
        assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"], label


def test_verdict_ops_check(workloads):
    work = workloads.Verdicts()
    first = {}
    for op in work.make_ops(random.Random(0)):
        first.setdefault(op.label, op)
    assert len(first) == len(work.oracle)
    for op in first.values():
        assert work.check(op, work.run(op)) is None


def test_star_pair_ops_check(workloads):
    work = workloads.StarPairs()
    ops = work.make_ops(random.Random(0))
    census = [op for op in ops if op.kind == "census"]
    pairs = [op for op in ops if op.kind == "pair"][:50]
    assert len(census) == len(work.oracle)
    for op in census + pairs:
        assert work.check(op, work.run(op)) is None


# sha256 over the verdict JSON of every verdicts-pool entry, plain and then
# under one seeded relabelling of the points, in pool order
VERDICT_JSON_SHA256 = "4cac4d2bc348e09d4021a40637eacbb17af96f4d2d68eb62e982368ae859d3a1"


def test_verdict_json_digest(workloads):
    from dpone.cli import verdict_to_dict
    from dpone.criteria import ActionSetup, rationality_report
    from dpone.lattice import GroupSpec

    def report_json(g, gamma):
        setup = ActionSetup(GroupSpec(g, "G"), GroupSpec(gamma, "Gamma"))
        doc = verdict_to_dict(rationality_report(setup))
        return json.dumps(doc, sort_keys=True).encode()

    rng = random.Random(0)
    digest = hashlib.sha256()
    for _, _, g, gamma in workloads.verdict_pool():
        _, p, p_inv = workloads._relabelling(rng)
        digest.update(report_json(g, gamma))
        digest.update(report_json(workloads._conjugate(g, p, p_inv),
                                  workloads._conjugate(gamma, p, p_inv)))
    assert digest.hexdigest() == VERDICT_JSON_SHA256
