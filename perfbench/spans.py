"""In-memory spans around calls into dpone's layers, and their arithmetic.

`install()` wraps public functions of the package from outside: each
wrapper replaces the name where callers look it up (every `dpone.*`
module attribute bound to the original, the criteria `RULES` table, and
class attributes for methods), because `from .x import y` binds a copy
of the name in the importing module.  Spans carry a name, start, end,
parent span and op id; a span's self time is its duration minus the time
its child spans cover.  Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import json
import re
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from statistics import median

# span names of the five decision rules, in the order criteria.RULES runs them
RULE_NAMES = (
    "check_rational_two_stars",
    "check_rational_triple",
    "check_not_rational_carter",
    "check_not_rational_stars",
    "check_not_rational_even",
)

# (module, function, span name): plain functions wrapped wherever bound
FUNCTIONS = (
    ("dpone.lattice", "group_closure", "lattice.group_closure"),
    ("dpone.lattice", "is_isometry", "lattice.is_isometry"),
    ("dpone.lattice", "fixed_rank", "lattice.fixed_rank"),
    ("dpone.weyl", "element_order", "weyl.element_order"),
    ("dpone.weyl", "carter_type_order3", "weyl.carter_type_order3"),
    ("dpone.weyl", "parse_element", "weyl.parse_element"),
    ("dpone.stars", "classify_pair", "stars.classify_pair"),
    ("dpone.stars", "invariant_stars", "stars.invariant_stars"),
    ("dpone.stars", "invariant_curves", "stars.invariant_curves"),
    ("dpone.stars", "trichotomy_census", "stars.trichotomy_census"),
    ("dpone.stars", "intersection_profile_census", "stars.intersection_profile_census"),
    ("dpone.criteria", "rationality_report", "criteria.rationality_report"),
    ("dpone.criteria", "check_minimal_four_stars", "criteria.check_minimal_four_stars"),
    ("dpone.cli", "main", "cli.main"),
) + tuple(("dpone.criteria", rule, f"criteria.{rule}") for rule in RULE_NAMES)

# cached table builders: only the cold (first) call records a span
COLD_TABLES = (
    ("dpone.curves", "curve_table", "curves.curve_table"),
    ("dpone.stars", "star_table", "stars.star_table"),
)

# layers that report hits (a non-None result) beside calls and self_ms
HIT_LAYERS = ("criteria.check_minimal_four_stars",) + tuple(
    f"criteria.{rule}" for rule in RULE_NAMES
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int


class Recorder:
    """Spans and counters of one process, kept in memory.

    Wrappers record only while `active` is set, so input generation and
    answer checks between ops stay out of the trace.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self.counts: dict[str, int] = defaultdict(int)
        # (layer, op) -> distinct argument keys, for distinct_ratio
        self.keys: dict[tuple[str, int], set] = defaultdict(set)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, op: int) -> None:
        self.op = op
        self.active = True
        self.open("op")

    def end_op(self) -> None:
        self.close(self.stack[-1])
        self.active = False

    def span_list(self) -> list[Span]:
        return [Span(*s) for s in self.spans]

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "keys": [[layer, op, [hash(k) for k in v]] for (layer, op), v in self.keys.items()],
        }

    def merge_json(self, doc: dict, op: int) -> None:
        """Append a child process's spans and counters under op id `op`."""
        base = len(self.spans)
        for name, start, end, parent, _ in doc["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op])
        for key, n in doc["counts"].items():
            self.counts[key] += n
        for layer, _, hashes in doc["keys"]:
            self.keys[(layer, op)].update(hashes)


def _traced(rec: Recorder, name: str, fn, after=None, on_error=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            rec.close(idx)
            if on_error is not None:
                on_error(exc)
            raise
        rec.close(idx)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _cold_only(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active or fn.cache_info().currsize:
            return fn(*args, **kwargs)
        idx = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    return wrapper


def _rebind(original, replacement) -> None:
    """Point every dpone module name bound to `original` at `replacement`."""
    for modname, module in list(sys.modules.items()):
        if modname == "dpone" or modname.startswith("dpone."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(rec: Recorder) -> None:
    """Wrap the layer functions of an imported dpone (call once per process)."""
    import dpone.cli  # noqa: F401  (imports every layer module)
    import dpone.criteria as criteria
    import dpone.curves as curves
    import dpone.lattice as lattice
    import jsonschema

    def closure_after(args, result):
        gens = lattice._generators_of(args[0])
        rec.keys[("lattice.group_closure", rec.op)].add(tuple(m.matrix for m in gens))
        rec.counts["lattice.group_closure.elements"] += len(result)

    def hits_after(name):
        def after(args, result):
            if result is not None:
                rec.counts[f"{name}.hits"] += 1
        return after

    def overlapping(exc):
        if type(exc).__name__ == "OverlappingStars":
            rec.counts["stars.classify_pair.overlapping"] += 1

    wrapped = {}
    for modname, attr, name in FUNCTIONS:
        original = getattr(sys.modules[modname], attr)
        after = hits_after(name) if name in HIT_LAYERS else None
        if name == "lattice.group_closure":
            after = closure_after
        on_error = overlapping if name == "stars.classify_pair" else None
        wrapped[attr] = _traced(rec, name, original, after, on_error)
        _rebind(original, wrapped[attr])
    criteria.RULES = tuple(
        (label, verdict, wrapped[checker.__name__])
        for label, verdict, checker in criteria.RULES
    )
    for modname, attr, name in COLD_TABLES:
        original = getattr(sys.modules[modname], attr)
        _rebind(original, _cold_only(rec, name, original))

    def permutation_after(args, result):
        rec.keys[("curves.permutation_of", rec.op)].add(args[1].matrix)

    curves.CurveTable.permutation_of = _traced(
        rec, "curves.permutation_of", curves.CurveTable.permutation_of,
        permutation_after,
    )
    lattice.LatticeIsometry.__matmul__ = _traced(
        rec, "lattice.matmul", lattice.LatticeIsometry.__matmul__
    )
    jsonschema.validate = _traced(rec, "cli.jsonschema_validate", jsonschema.validate)


# ---------------------------------------------------------------------------
# arithmetic

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


LAYERS = tuple(name for _, _, name in FUNCTIONS) + (
    "curves.permutation_of",
    "lattice.matmul",
    "cli.jsonschema_validate",
)


# per-layer figures measured outside the spans: by the worker's own timers,
# by -X importtime, or by comparing the untraced and the traced pass
OTHER_METRICS = (
    "curves.curve_table.cold_ms",
    "stars.star_table.cold_ms",
    "cli.import_ms",
    "cli.import_numpy_ms",
    "cli.import_jsonschema_ms",
    "cli.spawn_ms",
    "bench.trace_overhead_ratio",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run prints, in a fixed order."""
    names = [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_ms")]
    names += [f"{layer}.hits" for layer in HIT_LAYERS]
    names += [
        "stars.classify_pair.overlapping",
        "lattice.group_closure.elements",
        "lattice.group_closure.distinct_ratio",
        "curves.permutation_of.distinct_ratio",
        "criteria.rules_per_report",
    ]
    return names + list(OTHER_METRICS)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """calls, self_ms, counts and waste ratios of each layer, over the trace."""
    spans = rec.span_list()
    selfs = self_times(spans)
    self_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s, t in zip(spans, selfs):
        self_ms[s.name] += t * 1000
        calls[s.name] += 1
    out: dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_ms"] = self_ms[name]
    for name in HIT_LAYERS:
        out[f"{name}.hits"] = rec.counts[f"{name}.hits"]
    for key in ("stars.classify_pair.overlapping", "lattice.group_closure.elements"):
        out[key] = rec.counts[key]
    for name in ("lattice.group_closure", "curves.permutation_of"):
        distinct = sum(len(v) for (layer, _), v in rec.keys.items() if layer == name)
        out[f"{name}.distinct_ratio"] = distinct / calls[name] if calls[name] else 0.0
    reports = {i for i, s in enumerate(spans) if s.name == "criteria.rationality_report"}
    rule_checks = sum(
        1 for s in spans
        if s.parent in reports and s.name.startswith("criteria.check_")
        and s.name != "criteria.check_minimal_four_stars"
    )
    out["criteria.rules_per_report"] = rule_checks / len(reports) if reports else 0.0
    cold = {name: [] for _, _, name in COLD_TABLES}
    for s, t in zip(spans, selfs):
        if s.name in cold:
            cold[s.name].append(t * 1000)
    for name, values in cold.items():
        out[f"{name}.cold_ms"] = median(values) if values else 0.0
    return out


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S.*)$")


def import_times_ms(stderr: str) -> dict[str, float]:
    """Cumulative import times of dpone.cli, numpy and jsonschema.

    Parses the lines `python -X importtime` writes to stderr; the module
    column is indented by nesting depth.
    """
    wanted = {"dpone.cli": "cli.import_ms", "numpy": "cli.import_numpy_ms",
              "jsonschema": "cli.import_jsonschema_ms"}
    out = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(3).strip() in wanted:
            out[wanted[m.group(3).strip()]] = int(m.group(2)) / 1000
    return out


def dump(rec: Recorder, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec.to_json(), fh)
