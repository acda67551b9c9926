"""The 240 exceptional classes of a degree-1 del Pezzo surface.

A class D is exceptional when D*D = -1 and D*K = -1.  The 240 solutions
split into seven families, read off from the L-coefficient:

    c_L  0   1    2      3      4      5     6
         E_i L_ij Q_ijk  C_i-j  bQ_ijk bL_ij bE_i
         8   28   56     56     56     28    8

E_i is a blown-up point, L_ij a line through two points, Q_ijk a conic
through five, C_i-j a cubic through seven with a double point at p_i;
the b-families are their images under the Bertini involution
D -> -2K - D (and C_i-j maps to C_j-i).  Each name is written by the
same loop that writes its class, with sorted indices ("L12", never
"L21"), and a name is read back by lookup, not by parsing.

Curves carry dense ids 0..239 assigned by lexicographic coefficient
order; all higher modules speak ids.  The one table, `curve_table()`,
is the entry point: ``curves`` holds the curves in id order,
``id_of_name`` reads a name back, ``ids_of`` finds classes by packed
key (``id_of`` one class), ``pairing_array`` is the 240x240 pairing
matrix (a row's zeros are the curve's 56 disjoint partners),
``bertini_ids`` maps each id to its Bertini partner's, and
``trace_array`` reads an isometry's trace off its basis images.  The
table is shared by the whole process, so its arrays are read-only.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations

import numpy as np

from .lattice import (
    CANONICAL_CLASS,
    FORM_DIAG,
    RANK,
    DivisorClass,
    LatticeIsometry,
    _frozen,
    parse_cycles,
    permutation_isometry,
)

FAMILIES = ("E", "L2", "Q", "C", "BQ", "BL", "BE")

# Curve coefficients lie in -3..6, so shifted by 8 they are base-16 digits;
# with c_L most significant, packed keys sort like the coefficient tuples.
# The key is linear in the class: key(c) = c . w + 8 sum(w).
_KEY_WEIGHTS = 16 ** np.arange(RANK - 1, -1, -1, dtype=np.int64)
_KEY_OFFSET = 8 * int(_KEY_WEIGHTS.sum())


def _packed_keys(coeffs: np.ndarray) -> np.ndarray:
    return coeffs @ _KEY_WEIGHTS + _KEY_OFFSET


class ExceptionalCurve:
    """One of the 240 curves: its id, class, family and name.  Immutable,
    and equal to a curve with the same four fields."""

    __slots__ = ("id", "divisor", "family", "name")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, id: int, divisor: DivisorClass, family: str, name: str) -> None:
        for field, value in zip(self.__slots__, (id, divisor, family, name)):
            object.__setattr__(self, field, value)

    def _fields(self) -> tuple:
        return (self.id, self.divisor, self.family, self.name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ExceptionalCurve:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return f"ExceptionalCurve({self.id}, {self.name})"


def bertini_class(d: DivisorClass) -> DivisorClass:
    """The Bertini image -2K - D of a class."""
    return -2 * CANONICAL_CLASS - d


def _family_rows() -> list[tuple[tuple[int, ...], str, str]]:
    """The seven families in closed form: (coefficient row, family, name).

    A row is c_L, then the eight E-coefficients: ``rest`` at every index
    but the ones set.  The Bertini image -2K - D of (c_L; c_i) is
    (6 - c_L; -2 - c_i), and maps C_i-j to C_j-i.
    """
    def row(c_l: int, rest: int, *set_to: tuple[int, int]) -> tuple[int, ...]:
        e = [rest] * 8
        for i, c in set_to:
            e[i - 1] = c
        return (c_l, *e)

    points = range(1, 9)
    rows = [(row(0, 0, (i, 1)), "E", f"E{i}") for i in points]
    rows += [
        (row(1, 0, (i, -1), (j, -1)), "L2", f"L{i}{j}")
        for i, j in combinations(points, 2)
    ]
    rows += [
        (row(2, -1, (i, 0), (j, 0), (k, 0)), "Q", f"Q{i}{j}{k}")
        for i, j, k in combinations(points, 3)
    ]
    rows += [
        ((6 - r[0], *(-2 - c for c in r[1:])), "B" + fam[0], "b" + name)
        for r, fam, name in rows
    ]
    rows += [
        (row(3, -1, (i, -2), (j, 0)), "C", f"C{i}-{j}")
        for i, j in permutations(points, 2)
    ]
    return rows


class CurveTable:
    """Immutable table of the 240 exceptional curves and their pairings."""

    def __init__(self) -> None:
        rows = _family_rows()
        if len(rows) != 240:
            raise AssertionError(f"family generator produced {len(rows)} classes")
        # ids follow coefficient order, which is packed-key order, so the
        # keys sorted are strictly increasing exactly when the classes are
        # distinct, and a key's position is its curve id
        coeffs = np.array([r for r, _, _ in rows], dtype=np.int64)
        keys = _packed_keys(coeffs)
        order = np.argsort(keys)
        self._keys = keys[order]
        if not np.all(np.diff(self._keys) > 0):
            raise AssertionError("packed curve keys are not strictly increasing")
        coeff_matrix = self.coeff_array = coeffs[order]
        curves = [
            ExceptionalCurve(cid, DivisorClass(r), family, name)
            for cid, (r, family, name) in enumerate(rows[i] for i in order.tolist())
        ]
        self.curves: tuple[ExceptionalCurve, ...] = tuple(curves)
        self.id_by_name: dict[str, int] = {c.name: c.id for c in curves}
        # E1..E8 and L12, a basis whose images fix an isometry (L = L12 + E1 + E2)
        self.basis_ids = np.array(
            [self.id_by_name[f"E{i}"] for i in range(1, 9)] + [self.id_by_name["L12"]]
        )
        self.pairing_array = (coeff_matrix * FORM_DIAG @ coeff_matrix.T).astype(np.int8)
        k = np.array(CANONICAL_CLASS.coeffs, dtype=np.int64)
        self.bertini_ids = self.ids_of(-2 * k - coeff_matrix)
        # trace_array[c, s] is the diagonal entry curve c gives an isometry
        # sending basis slot s to it: its E-coefficient for E1..E8, its
        # L-coefficient for L12, and both for E1 and E2 (L = L12 + E1 + E2)
        trace = coeff_matrix[:, [*range(1, RANK), 0]]
        trace[:, :2] += coeff_matrix[:, :1]
        self.trace_array = trace
        # its columns as tuples, for walks that read one entry at a time
        self.trace_columns = tuple(map(tuple, trace.T.tolist()))
        # one stray in-place write would corrupt every later answer
        for shared in (self.coeff_array, self._keys, self.basis_ids,
                       self.pairing_array, self.bertini_ids, self.trace_array):
            shared.flags.writeable = False

    def curve(self, cid: int) -> ExceptionalCurve:
        return self.curves[cid]

    def id_of(self, d: DivisorClass) -> int:
        """The curve id of a class by `ids_of`; a coefficient past int64 is none."""
        try:
            return int(self.ids_of(np.array([d.coeffs], dtype=np.int64))[0])
        except (ValueError, OverflowError):
            raise ValueError(f"not an exceptional class: {d!r}") from None

    def id_of_name(self, name: str) -> int:
        try:
            return self.id_by_name[name.strip()]
        except KeyError:
            raise ValueError(f"not a curve name: {name!r}") from None

    def ids_of(self, coeffs: np.ndarray) -> np.ndarray:
        """Curve ids of an (n, 9) array of classes, by packed-key search.

        Raises ValueError naming the first row that is not one of the
        240 classes.
        """
        ids = np.minimum(np.searchsorted(self._keys, _packed_keys(coeffs)), 239)
        missed = (self.coeff_array[ids] != coeffs).any(axis=1)
        if missed.any():
            row = int(np.argmax(missed))
            raise ValueError(
                f"row {row} is not an exceptional class: {coeffs[row].tolist()}"
            )
        return ids

    def permutation_of(self, m: LatticeIsometry) -> np.ndarray:
        """The curve-id permutation induced by an isometry, as int16.

        perm[c] is the id of the image of curve c, found by its packed key.
        The key is linear, key(M c) = c . (M^T w) + 8 sum(w), so the keys
        of all 240 images are one matrix-vector product, and the images
        themselves are never formed.  A key match is exact here: every
        LatticeIsometry is validated at construction or is a product or
        inverse of validated ones, so it maps the 240-class set to itself
        and its images have coefficients in -3..6, where the packing is
        injective.  A key that matches no curve would mean the matrix is
        not an isometry, and raises AssertionError.
        """
        weights = np.array(m.matrix, dtype=np.int64).T @ _KEY_WEIGHTS
        keys = self.coeff_array @ weights + _KEY_OFFSET
        ids = np.minimum(np.searchsorted(self._keys, keys), 239)
        missed = self._keys[ids] != keys
        if missed.any():
            name = self.curves[int(np.argmax(missed))].name
            raise AssertionError(f"isometry maps curve {name} outside the curve set")
        return ids.astype(np.int16)

    def isometry_of(self, perm: np.ndarray) -> LatticeIsometry:
        """The isometry inducing a curve permutation, validated once.

        Its columns are the images of L, E1, ..., E8, read off the images
        of the curves E1..E8 and L12 = L - E1 - E2.
        """
        e1_to_e8_l12 = self.coeff_array[perm[self.basis_ids]]
        line = e1_to_e8_l12[8] + e1_to_e8_l12[0] + e1_to_e8_l12[1]
        columns = np.vstack([line, e1_to_e8_l12[:8]])
        return LatticeIsometry(tuple(tuple(row) for row in columns.T.tolist()))


@cache
def curve_table() -> CurveTable:
    return CurveTable()


def s8_action(perm: str) -> LatticeIsometry:
    """The isometry fixing L and permuting E-indices by a cycle string."""
    return permutation_isometry(parse_cycles(perm))


def bertini_isometry() -> LatticeIsometry:
    """The lattice involution v -> -v + 2(v*K)K realizing D -> -2K - D on curves."""
    k = CANONICAL_CLASS.coeffs
    return LatticeIsometry(tuple(
        tuple(-int(i == j) + 2 * k[i] * FORM_DIAG[j] * k[j] for j in range(RANK))
        for i in range(RANK)
    ))
