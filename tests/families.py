"""The inputs the tests share, each built once per test run.

A test module takes its groups, words and forged matrices from here and
its slow reference routes from `oracles`; no test module imports
another.  A change that replaces a fast path moves the old path into
`oracles.py` and adds one row to its differential table, which walks
these families.
"""

import os
import random
import subprocess
import sys
from functools import cache, reduce
from pathlib import Path

import hypothesis.strategies as st
import numpy as np

from dpone.curves import bertini_isometry, curve_table
from dpone.groups import GroupSpec
from dpone.lattice import LatticeIsometry, simple_roots
from dpone.weyl import CarterType3, reflection, reflection_permutation, representative_order3

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402  (perfbench/workloads.py)

cycle_types = workloads.cycle_types


def fresh_python(*args: str, **run) -> subprocess.CompletedProcess:
    """`python *args` in a new interpreter that imports dpone from this
    checkout's src/ and writes no bytecode; `run` goes to subprocess.run."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *args], env=env, timeout=120, **run)


@cache
def groups() -> dict[str, tuple[LatticeIsometry, ...]]:
    """The 52 Gamma generator tuples of the verdicts pool, by name: each of
    the 22 cycle types of S8 with and without the Bertini involution b, the
    four Carter representatives, S3wrC2, S4, S5 and <S5,b>."""
    out = {
        label.removeprefix("Gamma="): gamma
        for label, _, g, gamma in workloads.verdict_pool()
        if not g
    }
    assert len(out) == 52
    return out


@cache
def group(name: str) -> GroupSpec:
    """One of `groups()` as a GroupSpec labelled by its name, shared by every
    test that only reads it."""
    return GroupSpec(groups()[name], name)


@cache
def pool() -> tuple[GroupSpec, ...]:
    """The verdicts pool's groups: the nontrivial side of each of its 57
    entries, as the pool lists it and conjugated by a seeded relabelling of
    the eight points, then the trivial group."""
    rng = random.Random(0)
    out = []
    for label, _, g, gamma in workloads.verdict_pool():
        _, p, p_inv = workloads._relabelling(rng)
        gens = g or gamma
        out += [GroupSpec(gens, label), GroupSpec(workloads._conjugate(gens, p, p_inv), label)]
    return (*out, GroupSpec((), "trivial"))


@cache
def family() -> tuple[GroupSpec, ...]:
    """400 cyclic groups: each of 200 words in s1..s8 (random.Random(2),
    lengths 60 and 61 in turn) gives <w> and <w b>, each word composed on
    curve permutations."""
    t = curve_table()
    simple = [reflection_permutation(r) for r in simple_roots()]
    b = t.permutation_of(bertini_isometry())
    rng = random.Random(2)
    out = []
    for k in range(200):
        perm = np.arange(240, dtype=np.int16)
        for _ in range(60 + k % 2):
            perm = perm[simple[rng.randint(1, 8) - 1]]  # perm(w s) = perm_w[perm_s]
        out += [GroupSpec((t.isometry_of(perm),)), GroupSpec((t.isometry_of(perm[b]),))]
    return tuple(out)


@cache
def reps() -> dict[CarterType3, LatticeIsometry]:
    """The representative of each order-3 Carter class."""
    return {ctype: representative_order3(ctype) for ctype in CarterType3}


# parabolic subgroups of W(E8): simple_roots() indices, order, fixed rank
PARABOLICS = {
    "A2xA2": ((1, 2, 4, 5), 36, 5),
    "A4": (range(1, 5), 120, 5),
    "D4": ((0, 2, 3, 4), 192, 5),
    "D6": ((0, 2, 3, 4, 5, 6), 23040, 3),
    "A7": (range(1, 8), 40320, 2),
    "E6": (range(6), 51840, 3),
    "E8": (range(8), 696729600, 1),
}
CLOSABLE = [name for name, (_, order, _) in PARABOLICS.items() if order <= 51840]


def parabolic_generators(name: str) -> tuple[LatticeIsometry, ...]:
    return tuple(reflection(simple_roots()[i]) for i in PARABOLICS[name][0])


@cache
def parabolic(name: str) -> GroupSpec:
    """A closable parabolic subgroup, capped at its order and shared."""
    return GroupSpec(parabolic_generators(name), name, cap=PARABOLICS[name][1])


# words in the simple reflections s1..s8, as indices 0..7
words = st.lists(st.integers(0, 7), max_size=8)


@cache
def root_reflections() -> tuple[LatticeIsometry, ...]:
    return tuple(reflection(r) for r in simple_roots())


def word_isometry(word) -> LatticeIsometry:
    """The product of the word's reflections, by matrix products."""
    gens = [root_reflections()[i] for i in word]
    return reduce(lambda a, b: a @ b, gens, LatticeIsometry.identity())


def identity_plus(entries):
    rows = [[int(i == j) for j in range(9)] for i in range(9)]
    for (i, j), x in entries.items():
        rows[i][j] += x
    return tuple(tuple(r) for r in rows)


# M = I + 2^32 A with A antisymmetric on E1, E2, E3 (A12 = A23 = 1,
# A13 = -1, so AK = 0): int64 products wrap to M^T J M = J and MK = K
_A = {(1, 2): 1, (2, 3): 1, (1, 3): -1}
_A.update({(j, i): -x for (i, j), x in _A.items()})
FORGED = {
    "wrapping": identity_plus({ij: x << 32 for ij, x in _A.items()}),
    "past int64": identity_plus({(0, 0): 10**30}),
    "int64 min": identity_plus({(4, 4): -(2**63) - 1}),  # the entry is -2**63
}
