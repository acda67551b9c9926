"""One workload in one fresh process (started by run.py, not by hand).

Prints `ready <unix time>` once set-up is done, then, unless
--setup-only, runs the seed's op list in passes for --seconds and prints
one JSON line with every op's latency and how many executions were
attempted and failed.  With --trace 1 one untraced pass is followed by
one pass with the layer wrappers installed.

Timings are reported at reference speed.  The host is a share of a busy
machine whose speed drifts by up to 1.7x for minutes at a time, which no
statistic over a run can filter.  So a fixed reference job is timed
between ops, and each op's wall time is scaled by the job's time on an
unloaded host over its time around the op.  The program's own speed is
untouched by the scaling: a change that makes an op 10% slower makes its
scaled time 10% longer.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench_tmp"
WARM = ("verdicts", "star_pairs")
# the reference jobs' times on an unloaded 2.1 GHz Xeon vCPU
KERNEL_MS = 1.3
CHILD_MS = 135.0


class Reference:
    """One reference job's times during a run: run at most every `every_s`
    between ops, and taken within `window_s` of an op."""

    def __init__(self, job, nominal_ms: float, every_s: float, window_s: float) -> None:
        self.job = job
        self.nominal_ms = nominal_ms
        self.every_s = every_s
        self.window_s = window_s
        self.at: list[float] = []
        self.ms: list[float] = []

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.at or now - self.at[-1] >= self.every_s:
            self.ms.append(self.job())
            self.at.append(now)

    def scale(self, t0: float, t1: float) -> float:
        """The job's unloaded time over its median time near [t0, t1]."""
        lo = bisect_left(self.at, t0 - self.window_s)
        hi = bisect_right(self.at, t1 + self.window_s)
        return self.nominal_ms / median(self.ms[lo:hi])


def kernel_reference() -> Reference:
    """400 products of 9x9 integer matrices, each hashed by its bytes: a
    kernel shaped like dpone's hot loops, run every 0.1 s (2% of the time).

    The collector is paused so that the size of the program's heap does
    not show in the kernel's time.
    """
    import numpy as np

    start = np.eye(9, dtype=np.int64)
    step = np.array([[(3 * i + 5 * j) % 7 - 3 for j in range(9)] for i in range(9)], dtype=np.int64)

    def kernel_ms() -> float:
        gc.disable()
        try:
            t = time.perf_counter()
            m, seen = start, {}
            for i in range(400):
                m = (m @ step) % 11
                seen[m.tobytes()] = i
            return (time.perf_counter() - t) * 1000
        finally:
            gc.enable()

    return Reference(kernel_ms, KERNEL_MS, every_s=0.1, window_s=1.0)


def child_reference() -> Reference:
    """A child that starts Python and imports numpy, run every 2 s (7% of
    the time)."""

    def child_ms() -> float:
        t = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import json, numpy"],
            stdout=subprocess.DEVNULL, check=True, timeout=60,
        )
        return (time.perf_counter() - t) * 1000

    return Reference(child_ms, CHILD_MS, every_s=2.0, window_s=4.0)


class HostSpeed:
    """Scale factors for op times, from reference jobs timed around the ops.

    In-process ops are scaled by the kernel alone.  An op that starts a
    process is part process start and imports, part computation, and the
    two slow down differently when the host is busy (here 1.2-1.5x and
    1.7x), so it is scaled by the geometric mean of the kernel's factor
    and the reference child's.
    """

    def __init__(self, spawns: bool) -> None:
        self.refs = [kernel_reference()] + ([child_reference()] if spawns else [])

    def sample(self, force: bool = False) -> None:
        for ref in self.refs:
            ref.sample(force)

    def scale(self, t0: float, t1: float) -> float:
        return math.prod(ref.scale(t0, t1) for ref in self.refs) ** (1 / len(self.refs))


def set_up(workload: str) -> dict:
    """Import dpone.cli, build both tables and warm the workload's caches."""
    ms = {}
    t = time.perf_counter()
    import dpone.cli  # noqa: F401
    ms["import"] = (time.perf_counter() - t) * 1000
    from dpone.curves import curve_table
    from dpone.stars import star_table

    t = time.perf_counter()
    curve_table()
    ms["curve_table"] = (time.perf_counter() - t) * 1000
    t = time.perf_counter()
    star_table()
    ms["star_table"] = (time.perf_counter() - t) * 1000
    import workloads

    if workload == "verdicts":
        workloads.Verdicts.warm()
    elif workload == "star_pairs":
        workloads.StarPairs.warm()
    return ms


def run_passes(workload, seed, seconds=0.0, rec=None, after_op=None):
    """Run the seed's op list in passes until `seconds` have passed, and at
    least once through.

    A pass runs each distinct input of the op list once: cli_cold repeats
    commands in its list, and a repeat would only re-sample the same input.
    An op's latency is the median of the scaled times (see the module
    docstring) of every execution of its label: in every pass and, for
    verdicts, over the relabelled copies of one pool entry.  The unscaled
    best of those executions is kept beside it.  Every execution is
    checked, between ops, outside the timed region and the trace.
    """
    from workloads import op_list_digest

    ops = workload.make_ops(random.Random(seed))
    schedule = list({op.key: op for op in ops}.values())
    host = HostSpeed(workload.spawns)
    timed = []
    failures = []
    done = failed = 0
    start = time.perf_counter()
    while done < len(schedule) or time.perf_counter() - start < seconds:
        host.sample()
        op_id = done % len(schedule)
        op = schedule[op_id]
        if rec is not None:
            rec.begin_op(op_id)
        t0 = time.perf_counter()
        try:
            outcome, error = workload.run(op), None
        except Exception as exc:  # an unexpected exception is a failed op
            outcome, error = None, f"{op.label}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if rec is not None:
            rec.end_op()
        if after_op is not None and error is None:
            after_op(op_id, elapsed, outcome)
        if error is None:
            try:
                error = workload.check(op, outcome)
            except Exception as exc:
                error = f"{op.label}: check raised {type(exc).__name__}: {exc}"
        timed.append((op.label, t0, elapsed))
        done += 1
        if error is not None:
            failed += 1
            if len(failures) < 10:
                failures.append(error)
    host.sample(force=True)
    scaled: dict[str, list[float]] = {}
    best: dict[str, float] = {}
    for label, t0, elapsed in timed:
        scaled.setdefault(label, []).append(elapsed * host.scale(t0, t0 + elapsed))
        best[label] = min(elapsed, best.get(label, elapsed))
    kinds: dict[str, int] = {}
    for op in ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    return {
        "latencies": [median(scaled[op.label]) for op in ops],
        "unscaled_latencies": [best[op.label] for op in ops],
        "distinct": len(schedule),
        "attempted": done,
        "failed": failed,
        "passes": done / len(schedule),
        "failures": failures,
        "digest": op_list_digest(ops),
        "op_counts": kinds,
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def traced_cli(workload, seed, rec):
    """cli_cold through the shim: spans and -X importtime of every child."""
    import spans

    TMP.mkdir(exist_ok=True)
    span_file = TMP / f"spans-{os.getpid()}.json"
    workload.prefix = [sys.executable, "-X", "importtime", str(HERE / "cli_shim.py")]
    workload.env = dict(workload.env, PERFBENCH_SPANS=str(span_file))
    imports: dict[str, list[float]] = {}
    spawn_ms = []

    def after_op(op_id, elapsed, outcome):
        if not span_file.exists():  # the child died before main returned
            return
        with open(span_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        span_file.unlink()
        main_s = sum(end - start for name, start, end, _, _ in doc["spans"] if name == "cli.main")
        spawn_ms.append((elapsed - main_s) * 1000)
        rec.merge_json(doc, op_id)
        for key, value in spans.import_times_ms(outcome[2].decode(errors="replace")).items():
            imports.setdefault(key, []).append(value)

    traced = run_passes(workload, seed, after_op=after_op)
    extra = {key: median(v) for key, v in imports.items()}
    extra["cli.spawn_ms"] = median(spawn_ms)
    return traced, extra


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    setup_ms = set_up(args.workload) if args.setup_only or args.workload in WARM else {}
    print(f"ready {time.time()!r}", flush=True)
    if args.setup_only:
        return 0

    import numpy
    import workloads

    if args.workload == "verdicts":
        workload = workloads.Verdicts()
    elif args.workload == "star_pairs":
        workload = workloads.StarPairs()
    else:
        workload = workloads.CliCold(ROOT, child_env())

    # a traced run compares one untraced pass with one traced pass
    result = run_passes(workload, args.seed, 0 if args.trace else args.seconds)
    usage = resource.RUSAGE_SELF if args.workload in WARM else resource.RUSAGE_CHILDREN
    result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024
    result["setup_ms"] = setup_ms
    result["numpy"] = numpy.__version__
    if args.trace:
        import spans

        rec = spans.Recorder()
        if args.workload in WARM:
            spans.install(rec)
            traced = run_passes(workload, args.seed, rec=rec)
            extra = {
                "curves.curve_table.cold_ms": setup_ms["curve_table"],
                "stars.star_table.cold_ms": setup_ms["star_table"],
            }
        else:
            traced, extra = traced_cli(workload, args.seed, rec)
        traced["layers"] = spans.layer_metrics(rec)
        traced["layers"].update(extra)
        result["traced"] = traced
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
