"""Self-test of the benchmark: span arithmetic, the tail-percentile rule and
fault injection.

Usage: python3 -m pytest perfbench/test_perfbench.py -q   (about a minute)
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def test_self_time_subtracts_children_on_a_synthetic_tree():
    # root [0, 10] has children [1, 4] and [5, 9]; [5, 9] has child [6, 8]
    tree = [
        spans.Span("root", 0.0, 10.0, -1, 0),
        spans.Span("a", 1.0, 4.0, 0, 0),
        spans.Span("b", 5.0, 9.0, 0, 0),
        spans.Span("c", 6.0, 8.0, 2, 0),
        spans.Span("leaf", 11.0, 12.5, -1, 1),
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 2.0, 2.0, 1.5]


def test_self_time_counts_overlapping_children_once():
    tree = [
        spans.Span("root", 0.0, 10.0, -1, 0),
        spans.Span("a", 2.0, 6.0, 0, 0),
        spans.Span("b", 4.0, 8.0, 0, 0),
        spans.Span("c", 9.0, 12.0, 0, 0),  # clipped to the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_from_a_recorder():
    rec = spans.Recorder()
    rec.spans = [
        ["op", 0.0, 1.0, -1, 0],
        ["criteria.rationality_report", 0.1, 0.9, 0, 0],
        ["criteria.check_rational_two_stars", 0.2, 0.3, 1, 0],
        ["criteria.check_rational_triple", 0.3, 0.5, 1, 0],
        ["criteria.check_minimal_four_stars", 0.5, 0.8, 1, 0],
        ["lattice.group_closure", 0.6, 0.7, 4, 0],
    ]
    rec.keys[("lattice.group_closure", 0)].add("G")
    out = spans.layer_metrics(rec)
    assert out["criteria.rationality_report.calls"] == 1
    assert out["criteria.rationality_report.self_ms"] == pytest.approx(200.0)
    assert out["criteria.check_minimal_four_stars.self_ms"] == pytest.approx(200.0)
    assert out["criteria.rules_per_report"] == 2
    assert out["lattice.group_closure.distinct_ratio"] == 1.0


def test_benchmark_json_names_what_the_run_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in doc["per_layer"]] == spans.metric_names()
    for m in doc["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    for m in doc["per_layer"]:
        assert m["unit"] == run.layer_units(m["name"])


def test_reference_scales_by_its_median_near_an_op():
    ref = worker.Reference(lambda: 0.0, nominal_ms=150.0, every_s=2.0, window_s=4.0)
    ref.at = [0.0, 2.0, 4.0, 6.0, 20.0]
    ref.ms = [100.0, 200.0, 300.0, 400.0, 1000.0]
    # an op over [5, 6] sees the runs at 2, 4 and 6 s
    assert ref.scale(5.0, 6.0) == pytest.approx(0.5)
    assert ref.scale(19.0, 19.5) == pytest.approx(0.15)


def test_ops_that_spawn_take_the_geometric_mean_of_both_references():
    host = worker.HostSpeed(spawns=False)
    host.refs = [worker.Reference(lambda: 0.0, 100.0, 1.0, 1.0) for _ in range(2)]
    for ref, ms in zip(host.refs, (50.0, 200.0)):
        ref.at, ref.ms = [0.0], [ms]
    assert host.scale(0.0, 0.5) == pytest.approx((2.0 * 0.5) ** 0.5)


def test_percentile_interpolates_between_ranks():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 0.5) == pytest.approx(50.5)
    assert run.percentile(values, 0.9) == pytest.approx(90.1)
    assert run.percentile([3.0], 0.9) == 3.0


def test_p90_needs_ten_samples_beyond_it():
    assert run.samples_beyond(100, 0.9) == 10
    assert run.samples_beyond(99, 0.9) == 9
    run.check_tail(100, 0.9)
    with pytest.raises(ValueError):
        run.check_tail(99, 0.9)


def test_import_time_lines_are_parsed():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1200 |     110000 | numpy\n"
        "import time:       300 |      45000 |   jsonschema\n"
        "import time:       900 |     270000 | dpone.cli\n"
    )
    assert spans.import_times_ms(stderr) == {
        "cli.import_numpy_ms": 110.0,
        "cli.import_jsonschema_ms": 45.0,
        "cli.import_ms": 270.0,
    }


def test_a_corrupted_oracle_entry_fails_the_run():
    """Fault injection: one wrong verdict in the oracle table must show."""
    run.TMP.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=run.TMP))
    try:
        bench = scratch / "perfbench"
        shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
        (scratch / "src").symlink_to(HERE.parent / "src")
        oracles = json.loads((bench / "oracles.json").read_text())
        # every op list draws this entry eight times
        oracles["verdicts"]["Gamma=<(1 2 3)>"][2] = [9, 6, 6]
        (bench / "oracles.json").write_text(json.dumps(oracles))
        proc = subprocess.run(
            [sys.executable, str(bench / "run.py"), "--workload", "verdicts",
             "--seed", "3", "--seconds", "1"],
            capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(scratch)
        if not any(run.TMP.iterdir()):
            run.TMP.rmdir()
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
    error_rate = next(l for l in lines if l.strip().startswith("error_rate"))
    assert float(error_rate.split()[1]) > 0
    assert any("Gamma=<(1 2 3)>" in l and "FAIL" in l for l in lines)
