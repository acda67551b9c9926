"""Rank-9 Picard lattice of a degree-1 del Pezzo surface.

Divisor classes are integer 9-vectors in the basis (L, E1..E8), where L
is the line class of the plane and E1..E8 the exceptional classes of the
eight blown-up points.  The intersection pairing is the diagonal form of
signature (1, 8), the canonical class is K = (-3; 1, ..., 1), and every
symmetry of interest is an integer matrix preserving the pairing and
fixing K.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import gcd, isqrt
from typing import Iterable, Sequence, Union

import numpy as np

RANK = 9


class CheckViolation(RuntimeError):
    """A computed fact failed one of the library's own consistency checks."""


# Diagonal of the intersection form in basis order (L, E1..E8).
FORM_DIAG = (1, -1, -1, -1, -1, -1, -1, -1, -1)


@dataclass(frozen=True, order=True)
class DivisorClass:
    """An integer divisor class (c_L; c_1, ..., c_8)."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != RANK:
            raise ValueError(f"expected {RANK} coefficients, got {len(self.coeffs)}")
        if not all(isinstance(c, int) for c in self.coeffs):
            raise ValueError(f"coefficients must be integers: {self.coeffs!r}")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coeffs))

    def __mul__(self, n: int) -> "DivisorClass":
        return DivisorClass(tuple(n * a for a in self.coeffs))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        head, *tail = self.coeffs
        return f"({head}; {', '.join(str(c) for c in tail)})"


def divisor(*coeffs: int) -> DivisorClass:
    """Build a class from nine integers (c_L, c_1, ..., c_8)."""
    return DivisorClass(tuple(coeffs))


LINE = divisor(1, 0, 0, 0, 0, 0, 0, 0, 0)

#: The canonical class K; -K = 3L - (E1 + ... + E8) and K*K = 1.
CANONICAL_CLASS = divisor(-3, 1, 1, 1, 1, 1, 1, 1, 1)


def exceptional(i: int) -> DivisorClass:
    """The class E_i of the i-th blown-up point, i in 1..8."""
    if not 1 <= i <= 8:
        raise ValueError(f"exceptional index must be in 1..8, got {i}")
    coeffs = [0] * RANK
    coeffs[i] = 1
    return DivisorClass(tuple(coeffs))


def pair(a: DivisorClass, b: DivisorClass) -> int:
    """Intersection pairing: c_L c'_L - sum_i c_i c'_i."""
    return sum(d * x * y for d, x, y in zip(FORM_DIAG, a.coeffs, b.coeffs))


def simple_roots() -> tuple[DivisorClass, ...]:
    """The eight simple roots L-E1-E2-E3, E1-E2, ..., E7-E8, in this order.

    They generate the sublattice of classes orthogonal to K, which is the
    E8 root lattice.
    """
    first = divisor(1, -1, -1, -1, 0, 0, 0, 0, 0)
    chain = tuple(exceptional(i) - exceptional(i + 1) for i in range(1, 8))
    return (first,) + chain


def solve_norm(square: int, dot_k: int) -> list[DivisorClass]:
    """Every class v with v*v = square and v*K = dot_k, sorted.

    Nothing about the answer is assumed, not even the range of c_L.  For
    v = (c_L; c_1, ..., c_8) the two equations read

        sum c_i   = -dot_k - 3 c_L
        sum c_i^2 = c_L^2 - square,

    and Cauchy-Schwarz on eight coordinates, (sum c_i)^2 <= 8 sum c_i^2,
    turns them into c_L^2 + 6 dot_k c_L + dot_k^2 + 8 square <= 0, so

        |c_L + 3 dot_k| <= sqrt(8 (dot_k^2 - square)),

    an empty range when dot_k^2 < square.  Curves (-1, -1) get c_L in
    -1..7 and roots (-2, 0) get -4..4.

    For each c_L, every coordinate has |c_i| <= isqrt(c_L^2 - square).
    The 4-tuples in that box whose sum of squares is within bound form
    one half table, keyed by (sum, sum of squares).  A left half with
    (s, q) joins exactly the right halves keyed (target_sum - s,
    target_sq - q), which two searchsorted calls find in the sorted keys.
    One c_L is built at a time, with int8 coordinates, so the tables
    stay small.
    """
    gap = dot_k * dot_k - square
    if gap < 0:
        return []
    spread = isqrt(8 * gap)
    found: list[DivisorClass] = []
    for c_l in range(-3 * dot_k - spread, -3 * dot_k + spread + 1):
        target_sq = c_l * c_l - square
        target_sum = -dot_k - 3 * c_l
        axis = np.arange(-isqrt(target_sq), isqrt(target_sq) + 1, dtype=np.int8)
        squares = np.square(axis, dtype=np.int32)
        pairs = squares[:, None] + squares
        box = pairs[:, :, None, None] + pairs
        inside = box <= target_sq
        halves, sq = axis[np.argwhere(inside)], box[inside]
        # with 0 <= sq <= target_sq the key (sum, sq) -> int is injective
        keys = halves.sum(axis=1, dtype=np.int32) * (target_sq + 1) + sq
        order = np.argsort(keys)
        halves, keys = halves[order], keys[order]
        wanted = (target_sum * (target_sq + 1) + target_sq) - keys
        lo = np.searchsorted(keys, wanted, side="left")
        counts = np.searchsorted(keys, wanted, side="right") - lo
        left = np.repeat(np.arange(len(keys)), counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        right = np.repeat(lo, counts) + np.arange(len(left)) - starts
        for row in np.hstack([halves[left], halves[right]]).tolist():
            found.append(DivisorClass((c_l, *row)))
    return sorted(found)


Matrix = tuple[tuple[int, ...], ...]


def _as_matrix(rows: Iterable[Iterable[int]]) -> Matrix:
    m = tuple(tuple(int(x) for x in row) for row in rows)
    if len(m) != RANK or any(len(row) != RANK for row in m):
        raise ValueError(f"expected a {RANK}x{RANK} integer matrix")
    return m


def is_isometry(matrix: Iterable[Iterable[int]]) -> bool:
    """Whether the matrix preserves the pairing on all basis pairs and fixes K."""
    try:
        m = _as_matrix(matrix)
    except (ValueError, TypeError):
        return False
    # M^T G M == G checks preservation on every basis pair at once.
    for i in range(RANK):
        col_i = [m[r][i] for r in range(RANK)]
        for j in range(i, RANK):
            val = sum(FORM_DIAG[r] * col_i[r] * m[r][j] for r in range(RANK))
            expected = FORM_DIAG[i] if i == j else 0
            if val != expected:
                return False
    k = CANONICAL_CLASS.coeffs
    for r in range(RANK):
        if sum(m[r][c] * k[c] for c in range(RANK)) != k[r]:
            return False
    return True


@dataclass(frozen=True)
class LatticeIsometry:
    """A 9x9 integer matrix acting on coefficient column vectors.

    Validated at construction: it must preserve the pairing and fix K
    (which forces determinant +-1).  Invalid matrices are rejected.
    """

    matrix: Matrix

    def __post_init__(self) -> None:
        m = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if not is_isometry(m):
            raise ValueError("matrix does not preserve the pairing and fix K")

    @classmethod
    def _unchecked(cls, matrix: Matrix) -> "LatticeIsometry":
        """Wrap a matrix that is an isometry by construction: a product or
        inverse of validated isometries."""
        m = object.__new__(cls)
        object.__setattr__(m, "matrix", matrix)
        return m

    @classmethod
    def identity(cls) -> "LatticeIsometry":
        return cls(tuple(tuple(int(i == j) for j in range(RANK)) for i in range(RANK)))

    def apply(self, v: DivisorClass) -> DivisorClass:
        return DivisorClass(
            tuple(sum(row[c] * v.coeffs[c] for c in range(RANK)) for row in self.matrix)
        )

    def __matmul__(self, other: "LatticeIsometry") -> "LatticeIsometry":
        a, b = self.matrix, other.matrix
        rows = []
        for i in range(RANK):
            ai = a[i]
            rows.append(
                tuple(
                    sum(ai[k] * b[k][j] for k in range(RANK)) for j in range(RANK)
                )
            )
        return LatticeIsometry._unchecked(tuple(rows))

    def inverse(self) -> "LatticeIsometry":
        # M^T G M = G gives M^-1 = G M^T G with G the diagonal form.
        m = self.matrix
        inv = tuple(
            tuple(FORM_DIAG[i] * m[j][i] * FORM_DIAG[j] for j in range(RANK))
            for i in range(RANK)
        )
        return LatticeIsometry._unchecked(inv)

    def is_identity(self) -> bool:
        return all(
            self.matrix[i][j] == (1 if i == j else 0)
            for i in range(RANK)
            for j in range(RANK)
        )

    def __repr__(self) -> str:
        return f"LatticeIsometry({self.matrix[0]}, ...)"


# W(E8) has order 696,729,600, and two generators typed by a user can
# generate a subgroup far too large to list: a closure raises past its cap
CLOSURE_CAP = 10000
# W(E8) elements have order at most 30, so a larger order means a bad input
ORDER_CAP = 60


@dataclass(frozen=True)
class GroupSpec:
    """A finitely generated group of lattice isometries, closed at most once.

    Rows of ``generator_perms`` are the generators as curve permutations,
    rows of ``perms`` the closure in ``group_closure`` order, identity
    first, and ``orders`` their orders; ``fixed_curves`` masks the curves
    every generator fixes.  These and the fixed rank are computed on first
    use and kept for the object's lifetime, so each generator is permuted
    once, a caller that needs only the generators closes nothing, and
    every rule, search and replay handed the same object shares one
    closure, one rank and one mask.
    ``cap`` bounds that closure (see ``group_closure``).  ``index_of``
    finds an isometry's closure index, and ``element(i)`` builds the 9x9
    matrix of index i, only for an element that is handed out.
    """

    generators: tuple[LatticeIsometry, ...]
    label: str = ""
    cap: int = CLOSURE_CAP

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        if self.cap < 1:
            raise ValueError("cap must be >= 1")

    @cached_property
    def generator_perms(self) -> np.ndarray:
        from .curves import curve_table

        t = curve_table()
        perms = [t.permutation_of(m) for m in self.generators]
        perms = np.array(perms, dtype=np.int16).reshape(len(perms), 240)
        perms.flags.writeable = False  # every caller shares this array
        return perms

    @cached_property
    def perms(self) -> np.ndarray:
        return group_closure(self)

    @cached_property
    def orders(self) -> np.ndarray:
        return permutation_orders(self.perms)

    @cached_property
    def _fixed_rank(self) -> int:
        rows: list[list[int]] = []
        for m in self.generators:
            for i in range(RANK):
                rows.append(
                    [m.matrix[i][j] - (1 if i == j else 0) for j in range(RANK)]
                )
        return RANK - integer_rank(rows)

    @cached_property
    def fixed_curves(self) -> np.ndarray:
        fixed = (self.generator_perms == np.arange(240)).all(axis=0)
        fixed.flags.writeable = False  # every caller shares this array
        return fixed

    @cached_property
    def _index(self) -> dict[bytes, int]:
        return {p.tobytes(): i for i, p in enumerate(self.perms)}

    def of_order(self, n: int) -> np.ndarray:
        """Closure indices of the elements of order n, in closure order."""
        return np.flatnonzero(self.orders == n)

    def element(self, i: int) -> LatticeIsometry:
        from .curves import curve_table

        return curve_table().isometry_of(self.perms[i])

    def index_of(self, m: LatticeIsometry) -> int | None:
        """The closure index of an isometry, or None if it is not in the group."""
        from .curves import curve_table

        return self._index.get(curve_table().permutation_of(m).tobytes())


TRIVIAL_GROUP = GroupSpec((), "trivial")

GroupLike = Union[GroupSpec, LatticeIsometry]


def _generators_of(g: GroupLike) -> tuple[LatticeIsometry, ...]:
    return g.generators if isinstance(g, GroupSpec) else (g,)


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free elimination."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        p = work[rank][col]
        for i in range(rank + 1, len(work)):
            if work[i][col]:
                q = work[i][col]
                row = [work[i][j] * p - work[rank][j] * q for j in range(ncols)]
                g = 0
                for x in row:
                    g = gcd(g, x)
                if g > 1:
                    row = [x // g for x in row]
                work[i] = row
        rank += 1
        if rank == len(work):
            break
    return rank


def _group_of(g: GroupLike) -> GroupSpec:
    """g itself if it is a GroupSpec, else a new one on its generators."""
    return g if isinstance(g, GroupSpec) else GroupSpec(_generators_of(g))


def fixed_rank(g: GroupLike) -> int:
    """Rank of the common fixed subspace {v : Mv = v for every generator M}.

    Computed over the rationals; the fixed sublattice is saturated, so
    this equals the rank of the invariant Picard lattice.  A GroupSpec
    computes it once and keeps it.
    """
    return _group_of(g)._fixed_rank


def group_closure(g: GroupSpec) -> np.ndarray:
    """Curve permutations of all distinct products of the generators.

    One int16 row of 240 curve ids per element, breadth-first from the
    identity: each element's products with the generators follow in
    generator order, composed as perm(A @ B) = perm_A[perm_B].  W(E8)
    acts faithfully on the 240 curves, so a row determines its isometry.

    ``g.cap`` bounds the time and memory a closure may take: past that
    many elements the closure raises.
    """
    gens = g.generator_perms
    identity = np.arange(240, dtype=np.int16)
    seen = {identity.tobytes(): identity}
    queue = deque([identity])
    while queue:
        current = queue.popleft()
        for gen in gens:
            nxt = current[gen]
            key = nxt.tobytes()
            if key not in seen:
                if len(seen) >= g.cap:
                    name = f"group {g.label}" if g.label else "group"
                    raise ValueError(f"{name} closure exceeds cap {g.cap}")
                seen[key] = nxt
                queue.append(nxt)
    return np.stack(list(seen.values()))


def permutation_orders(perms: np.ndarray) -> np.ndarray:
    """Orders of curve permutations, one per row of perms; raises past ORDER_CAP.

    The order is the lcm of the cycle lengths, and a curve's cycle length
    is the least k with perm^k(c) = c; the powers of all rows are taken
    together.
    """
    ids = np.arange(perms.shape[1])
    lengths = np.zeros(perms.shape, dtype=np.int64)
    power = perms
    for k in range(1, ORDER_CAP + 1):
        lengths[(power == ids) & (lengths == 0)] = k
        if lengths.all():
            orders = np.lcm.reduce(lengths, axis=1)
            if orders.max(initial=1) > ORDER_CAP:
                break
            return orders
        power = np.take_along_axis(perms, power, axis=1)
    raise ValueError(f"element order exceeds cap {ORDER_CAP}")


# -- permutation shorthand and text I/O ------------------------------------

def parse_cycles(text: str) -> dict[int, int]:
    """Parse cycle notation such as "(1 2 3)(4 5 6)" into a mapping on 1..8.

    "()" denotes the identity.  Separators may be spaces or commas, and
    whitespace, newlines included, may stand between cycles.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty permutation string")
    if s in ("()", "id"):
        return {}
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"malformed cycle string: {text!r}")
    mapping: dict[int, int] = {}
    for chunk in re.split(r"\)\s*\(", s[1:-1]):
        parts = [p for p in chunk.replace(",", " ").split() if p]
        if not parts:
            continue
        try:
            idxs = [int(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"malformed cycle string: {text!r}") from exc
        if any(not 1 <= i <= 8 for i in idxs):
            raise ValueError(f"cycle indices must be in 1..8: {text!r}")
        if len(set(idxs)) != len(idxs) or any(i in mapping for i in idxs):
            raise ValueError(f"repeated index in cycles: {text!r}")
        for a, b in zip(idxs, idxs[1:] + idxs[:1]):
            mapping[a] = b
    return mapping


def cycles_string(mapping: dict[int, int]) -> str:
    """Canonical cycle notation for a permutation of 1..8; identity -> "()"."""
    seen: set[int] = set()
    cycles = []
    for start in range(1, 9):
        if start in seen or mapping.get(start, start) == start:
            continue
        cyc = [start]
        seen.add(start)
        nxt = mapping[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = mapping[nxt]
        cycles.append(cyc)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(i) for i in c) + ")" for c in cycles)


def permutation_isometry(mapping: dict[int, int]) -> LatticeIsometry:
    """The isometry fixing L and sending E_i to E_{mapping[i]}."""
    full = {i: mapping.get(i, i) for i in range(1, 9)}
    if sorted(full.values()) != list(range(1, 9)):
        raise ValueError(f"not a permutation of 1..8: {mapping!r}")
    rows = [[0] * RANK for _ in range(RANK)]
    rows[0][0] = 1
    for i, j in full.items():
        rows[j][i] = 1
    return LatticeIsometry(tuple(tuple(r) for r in rows))


def permutation_of_isometry(m: LatticeIsometry) -> dict[int, int] | None:
    """Inverse of :func:`permutation_isometry`; None if m is not of that shape."""
    mat = m.matrix
    cols = []
    for j in range(RANK):
        col = tuple(mat[i][j] for i in range(RANK))
        if sum(col) != 1 or any(x not in (0, 1) for x in col):
            return None
        cols.append(col.index(1))
    if cols[0] != 0 or sorted(cols[1:]) != list(range(1, RANK)):
        return None
    return {i: cols[i] for i in range(1, RANK) if cols[i] != i}


def isometry_to_text(m: LatticeIsometry) -> str:
    """Nine lines of nine space-separated integers, row-major."""
    return "\n".join(" ".join(str(x) for x in row) for row in m.matrix)


def isometry_from_text(text: str) -> LatticeIsometry:
    """Parse nine rows of nine integers; rows act on column coefficient vectors.

    Rows end at a newline or at a "/", so the one-line form "r1 / r2 / ..."
    that the command line prints parses back.
    """
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows += ([_matrix_entry(tok) for tok in row.split()] for row in line.split("/"))
    return LatticeIsometry(_as_matrix(rows))


def _matrix_entry(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"bad matrix entry {tok!r}") from None
