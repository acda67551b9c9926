"""The three workloads: seeded op generation, op execution and answer oracles.

A workload's op list is a fixed multiset of pool entries, shuffled by
the seed, so every seed gives the same mix of ops and is checked by the
same oracles.  An op's label names its pool entry (for a pair op, the
pair); ops with one label share one best latency (worker.run_passes).  Where the answer is invariant under relabelling the eight
blown-up points, the seed also conjugates each op's input by a random
permutation of them.

Ops look their entry points up through the module attribute at call
time (`criteria.rationality_report`, `stars.classify_pair`, `cli.main`)
so that the wrappers of a traced run see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shlex
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ORACLES_PATH = HERE / "oracles.json"

# the Bertini involution as nine rows; the cli_cold pool is plain text
BERTINI_ROWS = "\n".join(
    ["17 6 6 6 6 6 6 6 6"]
    + [" ".join(["-6"] + ["-3" if j == i else "-2" for j in range(8)]) for i in range(8)]
)


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    payload: object
    key: tuple  # what the seed chose; hashed into the op-list digest


def load_oracles() -> dict:
    with open(ORACLES_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _relabelling(rng: random.Random):
    """A random permutation of the points 1..8, as (tuple, isometry, inverse)."""
    from dpone.lattice import permutation_isometry

    images = list(range(1, 9))
    rng.shuffle(images)
    p = permutation_isometry(dict(zip(range(1, 9), images)))
    return tuple(images), p, p.inverse()


def _conjugate(gens, p, p_inv):
    return tuple(p @ m @ p_inv for m in gens)


def cycle_types() -> list[str]:
    """One element of each of the 22 cycle types of S8, in cycle notation."""
    def partitions(n, largest):
        if n == 0:
            yield ()
            return
        for k in range(min(n, largest), 0, -1):
            for rest in partitions(n - k, k):
                yield (k,) + rest

    out = []
    for parts in partitions(8, 8):
        text, start = "", 1
        for k in parts:
            if k > 1:
                text += "(" + " ".join(str(i) for i in range(start, start + k)) + ")"
            start += k
        out.append(text or "()")
    return out


# ---------------------------------------------------------------------------
# verdicts

# cyclic Gamma whose report hits a Rational rule before closing any group;
# weighted up so that the median op falls inside their dense 5-8 ms cluster
EARLY_RATIONAL_TYPES = {
    "()", "(1 2)", "(1 2 3)", "(1 2 3 4)", "(1 2 3 4 5)", "(1 2 3 4 5 6)",
    "(1 2)(3 4)", "(1 2)(3 4)(5 6)", "(1 2 3)(4 5 6)", "(1 2 3)(4 5)",
    "(1 2 3 4)(5 6)",
}
EARLY_WEIGHT = 8


def verdict_pool() -> list[tuple[str, int, tuple, tuple]]:
    """(label, weight, G generators, Gamma generators)."""
    from dpone.criteria import search_commuting_order3
    from dpone.curves import bertini_isometry, s8_action
    from dpone.stars import ActionKind, invariant_stars
    from dpone.weyl import CarterType3, representative_order3

    b = bertini_isometry()
    pool = []
    for ctype in cycle_types():
        m = s8_action(ctype)
        weight = EARLY_WEIGHT if ctype in EARLY_RATIONAL_TYPES else 1
        pool.append((f"Gamma=<{ctype}>", weight, (), (m,)))
        pool.append((f"Gamma=<{ctype}*b>", 1, (), (m @ b,)))
    for ctype in CarterType3:
        weight = EARLY_WEIGHT if ctype in (CarterType3.A2, CarterType3.A2x2) else 1
        pool.append((f"Gamma=<{ctype.display} rep>", weight, (),
                     (representative_order3(ctype),)))
    s3wr = tuple(s8_action(c) for c in ("(1 2)", "(1 2 3)", "(1 4)(2 5)(3 6)"))
    s4 = (s8_action("(1 2)"), s8_action("(1 2 3 4)"))
    s5 = (s8_action("(1 2)"), s8_action("(1 2 3 4 5)"))
    for name, gens in (("S3wrC2", s3wr), ("S4", s4), ("S5", s5)):
        pool.append((f"Gamma={name}", 1, (), gens))
    pool.append(("Gamma=<S5,b>", 1, (), s5 + (b,)))
    for name, gens in (("S4", s4), ("S5", s5), ("S3wrC2", s3wr)):
        pool.append((f"G={name}", 1, gens, ()))
    for name, ctype in (("Davidmin1", CarterType3.A2x3), ("Davidmin2", CarterType3.A2x2)):
        g = representative_order3(ctype)
        pointwise = [a.star for a in invariant_stars(g) if a.kind is ActionKind.TRIVIAL]
        pool.append((f"G={name}", 1, (g, search_commuting_order3(g, pointwise)), ()))
    return pool


class Verdicts:
    """rationality_report on a weighted pool of (G, Gamma) pairs."""

    spawns = False  # ops run in the worker (see worker.HostSpeed)

    def __init__(self) -> None:
        self.pool = verdict_pool()
        self.oracle = load_oracles()["verdicts"]
        self.replayed: set[tuple] = set()

    @staticmethod
    def warm() -> None:
        from dpone.criteria import gamma_report
        from dpone.lattice import TRIVIAL_GROUP

        gamma_report(TRIVIAL_GROUP)

    def make_ops(self, rng: random.Random) -> list[Op]:
        ops = []
        for label, weight, g, gamma in self.pool:
            for _ in range(weight):
                images, p, p_inv = _relabelling(rng)
                payload = (_conjugate(g, p, p_inv), _conjugate(gamma, p, p_inv))
                ops.append(Op("report", label, payload, (label, images)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def run(op: Op):
        import dpone.criteria as criteria
        from dpone.lattice import GroupSpec

        g, gamma = op.payload
        setup = criteria.ActionSetup(GroupSpec(g, "G"), GroupSpec(gamma, "Gamma"))
        return setup, criteria.rationality_report(setup)

    def check(self, op: Op, outcome) -> str | None:
        from dpone import criteria

        setup, report = outcome
        cert = report.minimality
        got = [
            report.verdict.value,
            report.rule,
            [report.ranks["G"], report.ranks["Gamma"], report.ranks["combined"]],
            cert.combined_rank if cert is not None else None,
        ]
        if got != self.oracle[op.label]:
            return f"{op.label}: got {got}, expected {self.oracle[op.label]}"
        if op.key in self.replayed:
            return None  # same input, same deterministic witness: replayed once
        self.replayed.add(op.key)
        replay = {
            criteria.CarterWitness: criteria.replay_carter,
            criteria.StarsWitness: criteria.replay_stars,
            criteria.EvenWitness: criteria.replay_even,
            criteria.TripleWitness: criteria.replay_triple,
            criteria.TwoStarsWitness: criteria.replay_two_stars,
        }
        w = report.witness
        if w is not None and not replay[type(w)](setup.gamma_group, w):
            return f"{op.label}: {type(w).__name__} does not replay"
        if cert is not None and not criteria.replay_minimality(setup, cert):
            return f"{op.label}: minimality certificate does not replay"
        return None


# ---------------------------------------------------------------------------
# star_pairs

# 1000 pairs in the proportions of all 626,640 (45,360 overlapping, 67,200
# asynchronized, 151,200 synchronized, 362,880 abnormal).  Fixed quotas keep
# every seed's mix the same: asynchronized pairs are the slowest tenth, so
# with free draws op_p90_ms would jump between clusters from seed to seed.
PAIR_QUOTAS = {"overlapping": 72, "asynchronized": 107, "synchronized": 241, "abnormal": 580}

# expected (zeros, ones, twos) of the 36 cross pairings of a disjoint pair
PAIR_MULTISETS = {
    (0, 36, 0): "asynchronized",
    (12, 12, 12): "synchronized",
    (8, 20, 8): "abnormal",
}


def census_pool() -> list[tuple[str, object]]:
    """(label, element) of the census ops; each appears once in the op list."""
    from dpone.curves import bertini_isometry, s8_action
    from dpone.weyl import CarterType3, representative_order3

    b = bertini_isometry()
    c4, inv4 = s8_action("(1 2 3 4)"), s8_action("(1 2)(3 4)(5 6)(7 8)")
    return [
        ("A2^2 rep", representative_order3(CarterType3.A2x2)),
        ("A2^3 rep", representative_order3(CarterType3.A2x3)),
        ("A2^4 rep", representative_order3(CarterType3.A2x4)),
        ("(1 2 3 4)", c4),
        ("(1 2 3 4)*b", c4 @ b),
        ("(1 2)(3 4)(5 6)(7 8)", inv4),
        ("(1 2)(3 4)(5 6)(7 8)*b", inv4 @ b),
    ]


def element_arg(m) -> str:
    """Cycle notation when m permutes the points, else nine matrix rows."""
    from dpone.lattice import cycles_string, isometry_to_text, permutation_of_isometry

    perm = permutation_of_isometry(m)
    return cycles_string(perm) if perm is not None else isometry_to_text(m)


def run_cli_captured(argv: list[str]) -> tuple[int, str]:
    import dpone.cli as cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class StarPairs:
    """classify_pair on seeded star pairs, plus in-process census commands."""

    spawns = False

    def __init__(self) -> None:
        from dpone.curves import curve_table
        from dpone.stars import star_table

        self.pool = census_pool()
        self.oracle = load_oracles()["census"]
        self.stars = star_table().stars
        self.ids = star_table().ids_array
        self.pairing = curve_table().pairing_array

    @staticmethod
    def warm() -> None:
        from dpone.stars import star_table

        stars = star_table().stars
        StarPairs.run(Op("pair", "pair", (stars[0], stars[-1]), ()))
        run_cli_captured(["--json", "census", "-e", "(1 2 3)(4 5 6)"])

    def make_ops(self, rng: random.Random) -> list[Op]:
        ops = []
        for label, m in self.pool:
            images, p, p_inv = _relabelling(rng)
            arg = element_arg(p @ m @ p_inv)
            ops.append(Op("census", label, arg, (label, images)))
        left = dict(PAIR_QUOTAS)
        while any(left.values()):
            a, b = rng.sample(range(len(self.stars)), 2)
            kind = self.expected_pair(a, b)
            if left[kind]:
                left[kind] -= 1
                ops.append(Op("pair", f"pair {a} {b}", (self.stars[a], self.stars[b]), (a, b)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def run(op: Op):
        import dpone.stars as stars

        if op.kind == "pair":
            try:
                return stars.classify_pair(*op.payload).pair_type.value
            except stars.OverlappingStars:
                return "overlapping"
        return run_cli_captured(["--json", "census", "-e", op.payload])

    def expected_pair(self, a: int, b: int) -> str:
        """Pair type from the multiset of the 36 cross pairings alone."""
        sa, sb = self.ids[a], self.ids[b]
        if set(sa.tolist()) & set(sb.tolist()):
            return "overlapping"
        cross = self.pairing[sa][:, sb]
        counts = tuple(int((cross == v).sum()) for v in (0, 1, 2))
        return PAIR_MULTISETS.get(counts, f"no pattern {counts}")

    def check(self, op: Op, outcome) -> str | None:
        if op.kind == "pair":
            want = self.expected_pair(*op.key)
            if outcome != want:
                return f"pair {op.key}: got {outcome}, expected {want}"
            return None
        rc, out = outcome
        if rc != 0:
            return f"census {op.label}: exit {rc}"
        doc = json.loads(out)
        got = {
            "invariant_curves": len(doc["invariant_curves"]),
            "trivial_stars": len(doc["trivial_stars"]),
            "faithful_stars": len(doc["faithful_stars"]),
            "pairwise": doc["pairwise"],
        }
        if got != self.oracle[op.label]:
            return f"census {op.label}: got {got}, expected {self.oracle[op.label]}"
        return None


# ---------------------------------------------------------------------------
# cli_cold

CHEAP_WEIGHT = 6

# about 0.2 s each, mostly interpreter start and imports; they set op_p50_ms
CHEAP_COMMANDS = [
    ["list-curves"],
    ["--json", "list-curves"],
    ["list-roots"],
    ["--json", "list-roots"],
    ["classify-element", "-e", "(1 2 3)"],
    ["--json", "classify-element", "-e", "(1 2 3)(4 5 6)"],
    ["classify-element", "-e", "s 1 2 3 4"],
    ["--json", "classify-element", "-e", "s 8 7 6 5 4 3 2 1"],
    ["classify-element", "-e", "(1 2)(3 4)(5 6)(7 8)"],
    ["--json", "classify-element", "-e", BERTINI_ROWS],
    ["classify-element", "-e", "(1 2 3 4 5 6 7 8)"],
    ["--json", "classify-element", "-e", "s 1 3 5 7"],
    ["verify-lemma", "A2A22"],
    ["--json", "verify-lemma", "A2A22"],
]

# each must exit 2 with a message and no traceback
BAD_COMMANDS = [
    ["classify-element", "-e", "(1 9)"],
    ["classify-element", "-e", "s 1 9"],
    ["classify-element", "-e", "1 2 3\n4 5 6"],
    ["verify-lemma", "NoSuchLemma"],
    ["report", "-g", "(1 2)", "-gamma", "(1 3)"],
    ["--cap", "5", "report", "-gamma", "(1 2 3 4 5 6 7 8)"],
]

# 0.5-2.5 s each; the lemmas and censuses set op_p90_ms
ONCE_COMMANDS = [
    ["--json", "list-stars"],
    ["report", "-gamma", "(1 2 3)"],
    ["--json", "report", "-g", "(7 8)", "-gamma", "(1 2 3)(4 5 6)\n\n(1 4)(2 5)(3 6)"],
    ["census", "-e", "(1 2 3)(4 5 6)"],
    ["--json", "census", "-e", "(1 2 3 4)"],
] + [
    (["--json"] if i % 2 else []) + ["verify-lemma", name]
    for i, name in enumerate([
        "DP1lines", "Davidinv", "Davidintersection", "2Daviddef", "Davidauto",
        "Davidmin", "Davidmin1", "Davidmin2", "RatCor-consistency",
    ])
]


def cli_pool() -> list[tuple[str, int, list[str]]]:
    """(label, weight, argv) of the cli_cold commands."""
    pool = [(shlex.join(a), CHEAP_WEIGHT, a) for a in CHEAP_COMMANDS]
    pool += [(shlex.join(a), 1, a) for a in BAD_COMMANDS]
    pool += [(shlex.join(a), 1, a) for a in ONCE_COMMANDS]
    return pool


class CliCold:
    """One fresh `python -m dpone ...` child process per op.

    The weights make the op list a mix of what users run; a pass runs each
    distinct command once, since a repeat is the same input.
    """

    spawns = True

    def __init__(self, root: Path, env: dict) -> None:
        self.pool = cli_pool()
        self.oracle = load_oracles()["cli"]
        self.root = root
        self.env = env
        self.prefix = [sys.executable, "-m", "dpone"]

    def make_ops(self, rng: random.Random) -> list[Op]:
        ops = [
            Op("cli", label, argv, (label,))
            for label, weight, argv in self.pool
            for _ in range(weight)
        ]
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        proc = subprocess.run(
            self.prefix + op.payload, cwd=self.root, env=self.env,
            capture_output=True, timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, op: Op, outcome) -> str | None:
        rc, out, err = outcome
        want = self.oracle[op.label]
        if rc != want["exit"]:
            return f"{op.label}: exit {rc}, expected {want['exit']}"
        if b"Traceback" in err:
            return f"{op.label}: traceback on stderr"
        digest = hashlib.sha256(out).hexdigest()
        if digest != want["sha256"]:
            return f"{op.label}: stdout sha256 {digest[:12]}, expected {want['sha256'][:12]}"
        return None


def op_list_digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps([op.kind, op.label, op.key]).encode())
    return h.hexdigest()
