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
``id_of_name`` reads a name back, ``id_of`` finds one class by dict
lookup and ``ids_of`` an array of them by packed key,
``pairing_array`` is the 240x240 pairing matrix (a row's zeros are the
curve's 56 disjoint partners), ``bertini_ids`` maps each id to its
Bertini partner's, and ``trace_array`` reads an isometry's trace off
its basis images.  The curves, names and ids are plain Python values,
so listing the curves or reading one element's images (``images_of``)
imports no numpy; each array is built on first use.  The table is
shared by the whole process, so its arrays are read-only.
"""

from __future__ import annotations

from functools import cache, cached_property, lru_cache
from itertools import combinations, permutations
from typing import TYPE_CHECKING

from .lattice import (
    CANONICAL_CLASS,
    FORM_DIAG,
    RANK,
    CheckViolation,
    DivisorClass,
    LatticeIsometry,
    Record,
    parse_cycles,
    permutation_isometry,
)

if TYPE_CHECKING:
    import numpy as np

FAMILIES = ("E", "L2", "Q", "C", "BQ", "BL", "BE")

# Curve coefficients lie in -3..6, so shifted by 8 they are base-16 digits;
# with c_L most significant, packed keys sort like the coefficient tuples.
# The key is linear in the class: key(c) = c . w + 8 sum(w).
_KEY_WEIGHTS = tuple(16 ** k for k in range(RANK - 1, -1, -1))
_KEY_OFFSET = 8 * sum(_KEY_WEIGHTS)


@cache
def _key_weights() -> np.ndarray:
    import numpy as np

    return _read_only(np.array(_KEY_WEIGHTS, dtype=np.int64))


def _packed_keys(coeffs: np.ndarray) -> np.ndarray:
    return coeffs @ _key_weights() + _KEY_OFFSET


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only: the tables' arrays are shared by the whole
    process, and one stray in-place write would corrupt every later answer."""
    a.flags.writeable = False
    return a


class ExceptionalCurve(Record):
    """One of the 240 curves: its id, class, family and name."""

    __slots__ = _fields = ("id", "divisor", "family", "name")

    def __repr__(self) -> str:
        return f"ExceptionalCurve({self.id}, {self.name})"


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
    """Immutable table of the 240 exceptional curves and their pairings.

    The curves, their names, the class -> id dict behind ``id_of``, the
    basis ids and ``trace_columns`` are plain Python values, built at
    once.  Each numpy array is built on first use and read-only.
    """

    def __init__(self) -> None:
        # ids follow coefficient order: the rows sorted are the curves in id order
        rows = sorted(_family_rows())
        self.curves: tuple[ExceptionalCurve, ...] = tuple(
            ExceptionalCurve(cid, DivisorClass(r), family, name)
            for cid, (r, family, name) in enumerate(rows)
        )
        self._ids: dict[tuple[int, ...], int] = {r: cid for cid, (r, _, _) in enumerate(rows)}
        if len(self._ids) != 240:
            raise CheckViolation(f"family generator produced {len(self._ids)} classes")
        self.id_by_name: dict[str, int] = {c.name: c.id for c in self.curves}
        # E1..E8 and L12, a basis whose images fix an isometry (L = L12 + E1 + E2)
        self.basis: tuple[int, ...] = tuple(
            self.id_by_name[name] for name in (*(f"E{i}" for i in range(1, 9)), "L12")
        )
        # trace_columns[s][c] is the diagonal entry curve c gives an isometry
        # sending basis slot s to it: its E-coefficient for E1..E8, its
        # L-coefficient for L12, and both for E1 and E2 (L = L12 + E1 + E2);
        # as tuples, for walks that read one entry at a time
        self.trace_columns: tuple[tuple[int, ...], ...] = tuple(
            tuple(r[s + 1] + (r[0] if s < 2 else 0) for r, _, _ in rows) for s in range(8)
        ) + (tuple(r[0] for r, _, _ in rows),)

    @cached_property
    def coeff_array(self) -> np.ndarray:
        import numpy as np

        rows = [c.divisor.coeffs for c in self.curves]
        return _read_only(np.array(rows, dtype=np.int64))

    @cached_property
    def _keys(self) -> np.ndarray:
        # sorted keys are strictly increasing exactly when the classes are
        # distinct, and a key's position is its curve id
        keys = _packed_keys(self.coeff_array)
        if not (keys[1:] > keys[:-1]).all():
            raise CheckViolation("packed curve keys are not strictly increasing")
        return _read_only(keys)

    @cached_property
    def basis_ids(self) -> np.ndarray:
        import numpy as np

        return _read_only(np.array(self.basis))

    @cached_property
    def pairing_array(self) -> np.ndarray:
        c = self.coeff_array
        return _read_only((c * FORM_DIAG @ c.T).astype("int8"))

    @cached_property
    def bertini_ids(self) -> np.ndarray:
        return _read_only(self.ids_of((-2 * CANONICAL_CLASS).coeffs - self.coeff_array))

    @cached_property
    def trace_array(self) -> np.ndarray:
        """``trace_columns`` as a C-ordered (240, 9) array, for many elements."""
        import numpy as np

        return _read_only(np.array(self.trace_columns, dtype=np.int64).T.copy())

    def curve(self, cid: int) -> ExceptionalCurve:
        return self.curves[cid]

    def id_of(self, d: DivisorClass) -> int:
        """The curve id of a class, by dict lookup."""
        try:
            return self._ids[d.coeffs]
        except KeyError:
            raise ValueError(f"not an exceptional class: {d!r}") from None

    @lru_cache(maxsize=1)  # one element's order, rank and class read the same images
    def images_of(self, m: LatticeIsometry) -> tuple[int, ...]:
        """The curve-id permutation of an isometry, one curve at a time.

        Each image is ``m.apply`` of the curve's class, found by ``id_of``:
        no numpy, so one element in a fresh process is read without
        importing it.  ``permutation_of`` gives the same ids as an array,
        faster once numpy is loaded.
        """
        return tuple(self.id_of(m.apply(c.divisor)) for c in self.curves)

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
        import numpy as np

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
        LatticeIsometry is validated at construction or is an isometry by
        construction, so it maps the 240-class set to itself and its
        images have coefficients in -3..6, where the packing is injective.
        A key that matches no curve would mean the matrix is not an
        isometry, and raises CheckViolation.
        """
        import numpy as np

        weights = np.array(m.matrix, dtype=np.int64).T @ _key_weights()
        keys = self.coeff_array @ weights + _KEY_OFFSET
        ids = np.minimum(np.searchsorted(self._keys, keys), 239)
        missed = self._keys[ids] != keys
        if missed.any():
            name = self.curves[int(np.argmax(missed))].name
            raise CheckViolation(f"isometry maps curve {name} outside the curve set")
        return ids.astype(np.int16)

    def isometry_of(self, perm: np.ndarray) -> LatticeIsometry:
        """The isometry inducing a curve permutation, validated once.

        Its columns are the images of L, E1, ..., E8, read off the images
        of the curves E1..E8 and L12 = L - E1 - E2.
        """
        images = self.coeff_array[perm[self.basis_ids]].tolist()  # E1..E8, L12
        line = [l12 + e1 + e2 for l12, e1, e2 in zip(images[8], images[0], images[1])]
        return LatticeIsometry(tuple(zip(line, *images[:8])))


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
