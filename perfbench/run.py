"""dpone benchmark: seeded workloads, end-to-end metrics and a traced per-layer run.

Usage (from anywhere; it runs against the checkout's own src/):

    python3 perfbench/run.py --workload verdicts|star_pairs|cli_cold|all \\
        --seed N --seconds S --trace 0|1

Each workload runs in a fresh Python process (worker.py) as one closed
loop with one client: the next op starts when the previous one ended,
and at most one child process runs at a time.  Every answer is checked
against the oracles in oracles.json or an independent recomputation.

The seed fixes the op list; a run makes passes over it for --seconds and
takes each op's best latency (see worker.run_passes).  --trace 0 prints the
end-to-end metrics; --trace 1 prints the per-layer metrics of one traced
pass and the tracing overhead (one untraced versus one traced pass over
the same op list).  The last line of stdout is
one JSON object {correct, attempted, failed, metrics}; the line before
it is the run's provenance.  The exit code is 1 when any answer was
wrong, 2 on a usage error or when the checkout has no src/dpone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench_tmp"
WORKLOADS = ("verdicts", "star_pairs", "cli_cold")
SETUP_PROBES = 5  # fresh set-up-only processes per run, besides the worker
DEADLINE_S = 170

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
from worker import HostSpeed  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (statistics 'inclusive')."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """Samples counted beyond the q-quantile of n: the whole ones in the tail."""
    return math.floor(n * (1 - q) + 1e-9)


def check_tail(n: int, q: float) -> None:
    """A percentile is reported only with at least ten samples beyond it."""
    if samples_beyond(n, q) < 10:
        raise ValueError(f"p{round(q * 100)} of {n} samples has fewer than 10 beyond it")


def layer_units(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("distinct_ratio") or name.endswith("overhead_ratio"):
        return "ratio"
    if name.endswith("rules_per_report"):
        return "count/report"
    return "count"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or "unknown"


def spawn_worker(args: list[str], trace: bool, timeout: float):
    """Run worker.py; return (spawn-to-ready seconds, result or None, stderr)."""
    TMP.mkdir(exist_ok=True)
    err_path = TMP / f"worker-{os.getpid()}.err"
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [
        str(HERE / "worker.py"), *args
    ]
    with open(err_path, "w+", encoding="utf-8") as err:
        t0 = time.time()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        err.seek(0)
        stderr = err.read()
    err_path.unlink()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {stderr[-2000:]}")
    lines = out.splitlines()
    ready = float(lines[0].split()[1]) - t0
    result = json.loads(lines[-1]) if len(lines) > 1 else None
    return ready, result, stderr


def ops_per_s(result: dict, key: str = "latencies") -> float:
    """Correct ops per second of timed wall time, from per-op latencies."""
    correct = 1 - result["failed"] / result["attempted"]
    return correct * len(result[key]) / sum(result[key])


def timings(result: dict, setup_samples: list[float], key: str) -> dict[str, float]:
    latencies = result[key]
    check_tail(len(latencies), 0.9)
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": ops_per_s(result, key),
        "op_p50_ms": percentile(latencies, 0.5) * 1000,
        "op_p90_ms": percentile(latencies, 0.9) * 1000,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    # set-up is a fresh process, scaled like cli_cold's children
    host = HostSpeed(spawns=True)
    setup_samples = []  # unscaled seconds
    if not trace:
        for _ in range(SETUP_PROBES + (workload == "cli_cold")):
            host.sample(force=True)
            ready, _, _ = spawn_worker(
                ["--workload", workload, "--setup-only"], False, deadline - time.time()
            )
            setup_samples.append(ready)
        host.sample(force=True)
    ready, result, stderr = spawn_worker(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        trace, deadline - time.time(),
    )
    if workload != "cli_cold" and not trace:
        setup_samples.append(ready)
    runs = [result] + ([result["traced"]] if trace else [])
    out = {
        "workload": workload,
        "ops": len(result["latencies"]),
        "distinct": result["distinct"],
        "passes": result["passes"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [msg for r in runs for msg in r["failures"]],
        "op_list_digest": result["digest"],
        "op_counts": result["op_counts"],
        "numpy": result["numpy"],
        "trace_overhead_ratio": None,
    }
    if not trace:
        scale = host.scale(0.0, math.inf)  # every reference run of the set-up probes
        out["metrics"] = timings(result, [s * scale for s in setup_samples], "latencies")
        out["metrics"]["peak_rss_mb"] = result["peak_rss_mb"]
        out["unscaled"] = timings(result, setup_samples, "unscaled_latencies")
        out["setup_samples"] = len(setup_samples)
        return out
    layers = result["traced"]["layers"]
    if workload != "cli_cold":
        layers.update(spans.import_times_ms(stderr))
    out["untraced_ops_per_s"] = ops_per_s(result)
    out["traced_ops_per_s"] = ops_per_s(result["traced"])
    out["trace_overhead_ratio"] = out["untraced_ops_per_s"] / out["traced_ops_per_s"]
    layers["bench.trace_overhead_ratio"] = out["trace_overhead_ratio"]
    # a layer the workload never reached (no child process, no census) reads 0
    out["metrics"] = {name: layers.get(name, 0.0) for name in spans.metric_names()}
    return out


def report(res: dict, trace: bool) -> None:
    print(f"== {res['workload']}: {res['ops']} ops ({res['distinct']} distinct inputs) x "
          f"{res['passes']:.3g} passes, "
          f"{res['attempted']} attempted, {res['failed']} failed")
    for msg in res["failures"]:
        print(f"   FAIL {msg}")
    print(f"   error_rate {res['failed'] / res['attempted']:.6g} ratio")
    if trace:
        print(f"   trace overhead: traced {res['traced_ops_per_s']:.4g} ops/s vs "
              f"untraced {res['untraced_ops_per_s']:.4g} ops/s "
              f"(ratio {res['trace_overhead_ratio']:.4g})")
        for name, value in res["metrics"].items():
            print(f"   {name:48s} {value:14.6g} {layer_units(name)}")
        return
    n = res["ops"]
    for name, value in res["metrics"].items():
        extra = ""
        if name in res["unscaled"]:
            extra = f"  (unscaled {res['unscaled'][name]:.6g})"
        if name == "op_p90_ms":
            extra += f"  (n={n}, {samples_beyond(n, 0.9)} samples beyond)"
        if name == "setup_s":
            extra += f"  (median of {res['setup_samples']} fresh processes)"
        print(f"   {name:12s} {value:12.6g} {END_TO_END_UNITS[name]}{extra}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="dpone benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dpone" / "__init__.py").is_file():
        print(f"error: no dpone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    nproc = len(os.sched_getaffinity(0))
    # every process of the run, workers and their children, shares one CPU
    # with the reference kernel that scales its timings (worker.HostSpeed)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.time() + DEADLINE_S * (3 if args.workload == "all" else 1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, trace, deadline) for w in names]
    finally:
        if TMP.exists() and not any(TMP.iterdir()):
            TMP.rmdir()
    for res in results:
        report(res, trace)
    single = len(results) == 1
    provenance = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": results[0]["numpy"],
        "nproc": nproc,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {
            r["workload"]: {
                "op_list_digest": r["op_list_digest"],
                "op_counts": r["op_counts"],
                "ops": r["ops"],
                "passes": r["passes"],
                "trace_overhead_ratio": r["trace_overhead_ratio"],
            }
            for r in results
        },
    }
    print(json.dumps({"provenance": provenance}))
    metrics = {}
    for res in results:
        for name, value in res["metrics"].items():
            unit = layer_units(name) if trace else END_TO_END_UNITS[name]
            key = name if single else f"{res['workload']}.{name}"
            metrics[key] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
