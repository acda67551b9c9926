"""Rank-9 Picard lattice of a degree-1 del Pezzo surface.

Divisor classes are integer 9-vectors in the basis (L, E1..E8), where L
is the line class of the plane and E1..E8 the exceptional classes of the
eight blown-up points.  The intersection pairing is the diagonal form of
signature (1, 8), the canonical class is K = (-3; 1, ..., 1), and every
symmetry of interest is an integer matrix preserving the pairing and
fixing K.

This module holds what every command loads: divisor classes, the
pairing, isometries, element text, one element's order and fixed rank
off its basis curves' cycles, `fixed_rank` and `solve_norm`.  All are
plain Python integers, and nothing here imports numpy.  The group layer
(`GroupSpec`, closures, element orders of a closure, elimination) is
`dpone.groups`, which only the commands that build a group load.
"""

from __future__ import annotations

import re
import sys
from functools import cache, total_ordering
from math import isqrt, lcm
from operator import attrgetter, mul
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .groups import GroupSpec

RANK = 9


class CheckViolation(RuntimeError):
    """A computed fact failed one of the library's own consistency checks."""


# Diagonal of the intersection form in basis order (L, E1..E8).
FORM_DIAG = (1, -1, -1, -1, -1, -1, -1, -1, -1)


class Record:
    """An immutable value: the base of every dpone value class.

    A subclass names its fields in ``_fields``, in constructor order, and
    lists them again as ``__slots__`` unless it needs a ``__dict__`` (for
    a ``cached_property``).  Records refuse attribute writes, compare and
    hash by their fields, with records of their own class only, and print
    as ``Name(field=value, ...)``.  These methods are written once, here,
    and not generated per class at import, which would cost every command
    that loads a value class several milliseconds.
    """

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls._fields)  # one field: its value, not a tuple

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


@total_ordering
class DivisorClass(Record):
    """An integer divisor class (c_L; c_1, ..., c_8), ordered by coefficients."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        if len(coeffs) != RANK:
            raise ValueError(f"expected {RANK} coefficients, got {len(coeffs)}")
        if not all(isinstance(c, int) for c in coeffs):
            raise ValueError(f"coefficients must be integers: {coeffs!r}")
        object.__setattr__(self, "coeffs", coeffs)

    def __lt__(self, other: "DivisorClass") -> bool:
        if other.__class__ is not DivisorClass:
            return NotImplemented
        return self.coeffs < other.coeffs

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


#: The canonical class K; -K = 3L - (E1 + ... + E8) and K*K = 1.
CANONICAL_CLASS = divisor(-3, 1, 1, 1, 1, 1, 1, 1, 1)


def exceptional(i: int) -> DivisorClass:
    """The class E_i of the i-th blown-up point, i in 1..8 (not a bool)."""
    if isinstance(i, bool) or not 1 <= i <= 8:
        raise ValueError(f"exceptional index must be in 1..8, got {i}")
    coeffs = [0] * RANK
    coeffs[i] = 1
    return DivisorClass(tuple(coeffs))


def pair(a: DivisorClass, b: DivisorClass) -> int:
    """Intersection pairing: c_L c'_L - sum_i c_i c'_i."""
    return sum(d * x * y for d, x, y in zip(FORM_DIAG, a.coeffs, b.coeffs))


@cache
def simple_roots() -> tuple[DivisorClass, ...]:
    """The eight simple roots L-E1-E2-E3, E1-E2, ..., E7-E8, in this order.

    They generate the sublattice of classes orthogonal to K, which is the
    E8 root lattice.  Built once: the tuple and its classes are immutable.
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

    an empty range when dot_k^2 < square; on it c_L^2 >= square.  Curves
    (-1, -1) get c_L in -1..7 and roots (-2, 0) get -4..4.  The same bound
    on the k coordinates still free, with sum t and squares q, keeps a
    next coordinate c only if c^2 <= q and (t - c)^2 <= (k - 1)(q - c^2).
    """
    gap = dot_k * dot_k - square
    if gap < 0:
        return []
    found: list[DivisorClass] = []

    def choose(prefix: tuple[int, ...], k: int, t: int, q: int) -> None:
        if k == 0:
            if t == q == 0:
                found.append(DivisorClass(prefix))
            return
        r, k = isqrt(q), k - 1
        for c in range(-r, r + 1):
            t_rest, q_rest = t - c, q - c * c
            if t_rest * t_rest <= k * q_rest:
                choose(prefix + (c,), k, t_rest, q_rest)

    spread = isqrt(8 * gap)
    for c_l in range(-3 * dot_k - spread, -3 * dot_k + spread + 1):
        choose((c_l,), RANK - 1, -dot_k - 3 * c_l, c_l * c_l - square)
    return sorted(found)


Matrix = tuple[tuple[int, ...], ...]


def _as_matrix(rows: Iterable[Iterable[int]]) -> Matrix:
    m = tuple(tuple(map(int, row)) for row in rows)
    if len(m) != RANK or any(len(row) != RANK for row in m):
        raise ValueError(f"expected a {RANK}x{RANK} integer matrix")
    return m


# Every entry of a K-fixing isometry lies in -17..17 (see is_isometry)
ENTRY_BOUND = 17


def is_isometry(matrix: Iterable[Iterable[int]]) -> bool:
    """Whether the matrix preserves the pairing, M^T J M = J, and fixes K.

    Exact, on Python integers.  An entry past ENTRY_BOUND is rejected
    first, so a huge input costs no huge products.  No isometry has one:
    its columns are curves (entries -3..6) and the image v of L, with
    v*v = 1 and v*K = -3, so 1 <= c_L <= 17 and c_i^2 < c_L^2 by
    solve_norm's bound.
    """
    try:
        return _is_isometry_matrix(_as_matrix(matrix))
    except (ValueError, TypeError):
        return False


def _is_isometry_matrix(m: Matrix) -> bool:
    """`is_isometry` of a matrix that `_as_matrix` has already converted."""
    if any(not -ENTRY_BOUND <= x <= ENTRY_BOUND for row in m for x in row):
        return False
    k = CANONICAL_CLASS.coeffs
    if any(sum(map(mul, row, k)) != k_r for row, k_r in zip(m, k)):
        return False
    columns = tuple(zip(*m))
    for i, a in enumerate(columns):
        ja = tuple(map(mul, FORM_DIAG, a))  # J times column i
        for j in range(i, RANK):
            if sum(map(mul, ja, columns[j])) != (FORM_DIAG[i] if i == j else 0):
                return False
    return True


class LatticeIsometry(Record):
    """A 9x9 integer matrix acting on coefficient column vectors.

    Converted and validated once, at construction, as `is_isometry`
    checks: it must preserve the pairing and fix K (which forces
    determinant +-1).  Only a matrix read from text needs the check:
    products, inverses, reflection words and permutations of the E_i
    are isometries by construction and are wrapped unchecked.  The
    matrix is the element's text form; groups compute with its curve
    permutation, and one element's curve images are read with `apply`.
    Immutable, and equal exactly when the matrices are.
    """

    __slots__ = _fields = ("matrix",)

    def __init__(self, matrix: Matrix) -> None:
        m = _as_matrix(matrix)
        object.__setattr__(self, "matrix", m)
        if not _is_isometry_matrix(m):
            raise ValueError("matrix does not preserve the pairing and fix K")

    @classmethod
    def _unchecked(cls, matrix: Matrix) -> "LatticeIsometry":
        """Wrap a matrix that is an isometry by construction: a product or
        inverse of isometries, a reflection word or a permutation of the
        E_i."""
        m = object.__new__(cls)
        object.__setattr__(m, "matrix", matrix)
        return m

    @classmethod
    def identity(cls) -> "LatticeIsometry":
        return cls(tuple(tuple(int(i == j) for j in range(RANK)) for i in range(RANK)))

    def apply(self, v: DivisorClass) -> DivisorClass:
        c = v.coeffs
        return DivisorClass(tuple(sum(map(mul, row, c)) for row in self.matrix))

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

    def __repr__(self) -> str:
        return f"LatticeIsometry({self.matrix[0]}, ...)"


# W(E8) elements have order at most 30, so a larger order means a bad input
ORDER_CAP = 60
# the most elements a group's closure may hold: closures of W(E6) and
# W(A7) peaked at 3.9 KiB per element with its order
MAX_CAP = 250_000  # about 1 GiB


def check_cap(cap: int) -> int:
    """cap, if it may bound a closure (1 to MAX_CAP), else ValueError."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if cap > MAX_CAP:
        raise ValueError(f"cap must be <= {MAX_CAP}, about 1 GiB of closure")
    return cap


def _basis_cycles(images: Sequence[int]) -> list[tuple[int, int]]:
    """The length L_s and trace sum of the cycle of each basis curve b_s.

    ``images`` is an element's curve permutation as a sequence of ids,
    and the trace sum adds ``trace_array[c, s]`` over the curves c of
    the cycle.  A walk that is not back at its basis curve after
    ORDER_CAP steps raises ValueError, so a row that is not a
    permutation fails and never hangs.
    """
    from .curves import curve_table

    t = curve_table()
    cycles = []
    for b, column in zip(t.basis, t.trace_columns):
        c, length, cycle_sum = images[b], 1, column[b]
        while c != b:
            if length == ORDER_CAP:
                raise ValueError(f"element order exceeds cap {ORDER_CAP}")
            c, length, cycle_sum = images[c], length + 1, cycle_sum + column[c]
        cycles.append((length, cycle_sum))
    return cycles


def cycle_order(images: Sequence[int]) -> int:
    """The order of an element from its curve images; raises past ORDER_CAP.

    The images of the basis curves fix an element, so its order is the
    lcm of their cycle lengths, as in ``groups.permutation_orders``.
    """
    n = lcm(*(length for length, _ in _basis_cycles(images)))
    if n > ORDER_CAP:
        raise ValueError(f"element order exceeds cap {ORDER_CAP}")
    return n


def _cycle_rank(images: Sequence[int]) -> int:
    """dim Fix(<g>) off the cycles of g's nine basis curves, no power formed.

    tr(g^k) is the sum over basis slots s of trace_array[g^k(b_s), s],
    and as k runs over 0..n-1, g^k(b_s) runs n / L_s times round the
    cycle of b_s, of length L_s.  So the average trace (1/n) sum_k tr(g^k)
    is sum_s (1/L_s) times the trace sum of that cycle, taken in integers
    with n = lcm(L_s).  A total that is not a multiple of n raises
    CheckViolation (see ``_basis_cycles`` for a walk that never closes).
    """
    cycles = _basis_cycles(images)
    n = lcm(*(length for length, _ in cycles))
    total = sum(n // length * s for length, s in cycles)
    rank, rest = divmod(total, n)
    if rest:
        raise CheckViolation(
            f"basis cycle traces sum to {total}, not a multiple of "
            f"the order {n}: the row is not an isometry"
        )
    return rank


def fixed_rank(g: GroupSpec | LatticeIsometry) -> int:
    """Rank of the common fixed subspace {v : Mv = v for every generator M}.

    Computed over the rationals; the fixed sublattice is saturated, so
    this equals the rank of the invariant Picard lattice.  A GroupSpec
    computes it once and keeps it, by the first of three exact routes
    that applies:

    - a group whose closure is held: (1/|G|) sum tr(g) over the closure,
      the multiplicity of the trivial character;
    - an unclosed group with one generator g: the same average over <g>,
      read off the cycles of g on the nine basis curves
      (``_cycle_rank``), with no power of g formed;
    - any other group: 9 minus the rank of its generators' basis moves,
      by ``integer_rank``.

    A bare isometry takes the second route on its curve images, read one
    curve at a time with ``apply`` (``curve_table().images_of``), so one
    element is ranked without numpy or the group layer.  A trace sum
    that is not a multiple of the group's order raises CheckViolation,
    and any other g TypeError.  No group is closed for its rank.
    ``groups.eliminated_rank`` takes the third route on any generators.
    """
    if isinstance(g, LatticeIsometry):
        from .curves import curve_table

        return _cycle_rank(curve_table().images_of(g))
    # no GroupSpec exists before dpone.groups loads, so it is not imported here
    groups = sys.modules.get(f"{__package__}.groups")
    if groups is None or not isinstance(g, groups.GroupSpec):
        raise TypeError(f"fixed_rank takes a LatticeIsometry or a GroupSpec, not {g!r}")
    return g.fixed_rank  # GroupSpec.fixed_rank, kept once computed


# The bench harness under perfbench/ still reads these group names from
# this module; they are forwarded, on first access, until it reads them
# from dpone.groups.
_FORWARDED = ("GroupSpec", "TRIVIAL_GROUP", "group_closure", "_generators_of")


def __getattr__(name: str):
    if name in _FORWARDED:
        from . import groups

        return getattr(groups, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- permutation shorthand and text I/O ------------------------------------

INTEGER = re.compile(r"[+-]?[0-9]+")  # an integer in element text


def read_int(tok: str, error: str) -> int:
    """The integer a whole token writes in ASCII digits, or ValueError(error);
    int() alone also takes other scripts' digits and "_" separators."""
    if INTEGER.fullmatch(tok) is None:
        raise ValueError(error)
    return int(tok)


def parse_cycles(text: str) -> dict[int, int]:
    """Parse cycle notation such as "(1 2 3)(4 5 6)" into a mapping on 1..8.

    "()" denotes the identity.  Separators may be spaces or commas, and
    whitespace, newlines included, may stand between cycles.
    """
    if not isinstance(text, str):
        raise TypeError(f"cycle notation is a string, not {text!r}")
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
        idxs = [read_int(p, f"malformed cycle string: {text!r}") for p in parts]
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
    """The isometry fixing L and sending E_i to E_{mapping[i]}: a permutation
    matrix on E1..E8, an isometry by construction, so it is not checked."""
    full = {i: mapping.get(i, i) for i in range(1, 9)}
    if sorted(full.values()) != list(range(1, 9)):
        raise ValueError(f"not a permutation of 1..8: {mapping!r}")
    rows = [[0] * RANK for _ in range(RANK)]
    rows[0][0] = 1
    for i, j in full.items():
        rows[j][i] = 1
    return LatticeIsometry._unchecked(tuple(tuple(r) for r in rows))


def permutation_of_isometry(m: LatticeIsometry) -> dict[int, int] | None:
    """Inverse of :func:`permutation_isometry`; None if m moves L.  An isometry
    fixing L permutes the E_i, the only curves orthogonal to L."""
    line, *images = zip(*m.matrix)
    if line != (1,) + (0,) * (RANK - 1):
        return None
    return {i: col.index(1) for i, col in enumerate(images, 1) if col[i] != 1}


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
        for row in line.split("/"):
            rows.append([read_int(tok, f"bad matrix entry {tok!r}") for tok in row.split()])
    return LatticeIsometry(_as_matrix(rows))
