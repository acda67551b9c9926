"""The 240 exceptional classes of a degree-1 del Pezzo surface.

A class D is exceptional when D*D = -1 and D*K = -1.  The 240 solutions
split into seven families, read off from the L-coefficient:

    c_L  0   1    2      3      4      5     6
         E_i L_ij Q_ijk  C_i-j  bQ_ijk bL_ij bE_i
         8   28   56     56     56     28    8

E_i is a blown-up point, L_ij a line through two points, Q_ijk a conic
through five, C_i-j a cubic through seven with a double point at p_i;
the b-families are their images under the Bertini involution
D -> -2K - D (and C_i-j maps to C_j-i).

Curves carry dense ids 0..239 assigned by lexicographic coefficient
order; all higher modules speak ids and look pairings up in a
precomputed 240x240 table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations

import numpy as np

from .lattice import (
    CANONICAL_CLASS,
    LINE,
    RANK,
    DivisorClass,
    LatticeIsometry,
    divisor,
    exceptional,
    pair,
    parse_cycles,
    permutation_isometry,
)

FAMILIES = ("E", "L2", "Q", "C", "BQ", "BL", "BE")

# Curve coefficients lie in -3..6, so shifted by 8 they are base-16 digits;
# with c_L most significant, packed keys sort like the coefficient tuples.
_KEY_SHIFT = 8
_KEY_WEIGHTS = 16 ** np.arange(RANK - 1, -1, -1, dtype=np.int64)


def _packed_keys(coeffs: np.ndarray) -> np.ndarray:
    return (coeffs + _KEY_SHIFT) @ _KEY_WEIGHTS


@dataclass(frozen=True)
class ExceptionalCurve:
    id: int
    divisor: DivisorClass
    family: str
    name: str

    def __repr__(self) -> str:
        return f"ExceptionalCurve({self.id}, {self.name})"


def bertini_class(d: DivisorClass) -> DivisorClass:
    """The Bertini image -2K - D of a class."""
    return -2 * CANONICAL_CLASS - d


def _family_classes() -> dict[DivisorClass, str]:
    """Closed-form generator of the seven families, keyed by class."""
    out: dict[DivisorClass, str] = {}
    e = [None] + [exceptional(i) for i in range(1, 9)]
    total = sum((e[i] for i in range(2, 9)), e[1])
    for i in range(1, 9):
        out[e[i]] = "E"
    for i, j in combinations(range(1, 9), 2):
        out[LINE - e[i] - e[j]] = "L2"
    for i, j, k in combinations(range(1, 9), 3):
        out[2 * LINE + e[i] + e[j] + e[k] - total] = "Q"
    for i, j in permutations(range(1, 9), 2):
        out[3 * LINE - e[i] + e[j] - total] = "C"
    for d, fam in list(out.items()):
        if fam in ("E", "L2", "Q"):
            out[bertini_class(d)] = "B" + ("E" if fam == "E" else fam[0])
    return out


def _curve_name(d: DivisorClass, family: str) -> str:
    e_coeffs = d.coeffs[1:]
    if family == "E":
        return f"E{e_coeffs.index(1) + 1}"
    if family == "L2":
        ij = [i + 1 for i, c in enumerate(e_coeffs) if c == -1]
        return "L{}{}".format(*ij)
    if family == "Q":
        ijk = [i + 1 for i, c in enumerate(e_coeffs) if c == 0]
        return "Q{}{}{}".format(*ijk)
    if family == "C":
        i = e_coeffs.index(-2) + 1
        j = e_coeffs.index(0) + 1
        return f"C{i}-{j}"
    # b-families: name through the Bertini partner.
    partner = bertini_class(d)
    base = {"BE": "E", "BL": "L2", "BQ": "Q"}[family]
    return "b" + _curve_name(partner, base)


_NAME_RE = re.compile(r"^(b?)(E([1-8])|L([1-8])([1-8])|Q([1-8])([1-8])([1-8])|C([1-8])-([1-8]))$")


def class_of_name(name: str) -> DivisorClass:
    """Parse a curve name such as "E1", "L12", "Q123", "C1-2", "bQ123"."""
    m = _NAME_RE.match(name.strip())
    if not m:
        raise ValueError(f"malformed curve name: {name!r}")
    bert, body = m.group(1), m.group(2)
    e = [None] + [exceptional(i) for i in range(1, 9)]
    total = sum((e[i] for i in range(2, 9)), e[1])
    if body.startswith("E"):
        d = e[int(body[1])]
    elif body.startswith("L"):
        i, j = sorted(int(c) for c in body[1:])
        if i == j:
            raise ValueError(f"repeated index in curve name: {name!r}")
        d = LINE - e[i] - e[j]
    elif body.startswith("Q"):
        idx = sorted(int(c) for c in body[1:])
        if len(set(idx)) != 3:
            raise ValueError(f"repeated index in curve name: {name!r}")
        d = 2 * LINE + e[idx[0]] + e[idx[1]] + e[idx[2]] - total
    else:  # C i - j
        i, j = int(body[1]), int(body[3])
        if i == j:
            raise ValueError(f"repeated index in curve name: {name!r}")
        d = 3 * LINE - e[i] + e[j] - total
        if bert:
            raise ValueError(f"cubic classes have no b-form: {name!r}")
    return bertini_class(d) if bert else d


class CurveTable:
    """Immutable table of the 240 exceptional curves and their pairings."""

    def __init__(self) -> None:
        families = _family_classes()
        if len(families) != 240:
            raise AssertionError(f"family generator produced {len(families)} classes")
        ordered = sorted(families)
        curves = []
        for cid, d in enumerate(ordered):
            fam = families[d]
            curves.append(ExceptionalCurve(cid, d, fam, _curve_name(d, fam)))
        self.curves: tuple[ExceptionalCurve, ...] = tuple(curves)
        self.id_by_class: dict[tuple[int, ...], int] = {
            c.divisor.coeffs: c.id for c in curves
        }

        coeff_matrix = np.array([c.divisor.coeffs for c in curves], dtype=np.int64)
        self.coeff_array = coeff_matrix
        # ids follow coefficient order, so the keys are sorted and a key's
        # position is its curve id
        self._keys = _packed_keys(coeff_matrix)
        if not np.all(np.diff(self._keys) > 0):
            raise AssertionError("packed curve keys are not strictly increasing")
        # E1..E8 and L12, whose images fix an isometry (L = L12 + E1 + E2)
        self._basis_ids = np.array(
            [self.id_by_class[exceptional(i).coeffs] for i in range(1, 9)]
            + [self.id_by_class[(LINE - exceptional(1) - exceptional(2)).coeffs]]
        )
        form = np.diag(np.array([1] + [-1] * 8, dtype=np.int64))
        self.pairing_array = (coeff_matrix @ form @ coeff_matrix.T).astype(np.int8)
        k = np.array(CANONICAL_CLASS.coeffs, dtype=np.int64)
        self.bertini_ids = self.ids_of(-2 * k - coeff_matrix)

    def curve(self, cid: int) -> ExceptionalCurve:
        return self.curves[cid]

    def id_of(self, d: DivisorClass) -> int:
        try:
            return self.id_by_class[d.coeffs]
        except KeyError:
            raise ValueError(f"not an exceptional class: {d!r}") from None

    def id_of_name(self, name: str) -> int:
        return self.id_of(class_of_name(name))

    def ids_of(self, coeffs: np.ndarray) -> np.ndarray:
        """Curve ids of an (n, 9) array of classes, by packed-key search.

        Raises ValueError naming the first row that is not one of the
        240 classes.
        """
        ids = np.searchsorted(self._keys, _packed_keys(coeffs)).clip(max=239)
        missed = (self.coeff_array[ids] != coeffs).any(axis=1)
        if missed.any():
            row = int(np.argmax(missed))
            raise ValueError(
                f"row {row} is not an exceptional class: {coeffs[row].tolist()}"
            )
        return ids

    def permutation_of(self, m: LatticeIsometry) -> np.ndarray:
        """The curve-id permutation induced by an isometry, as int16.

        perm[c] is the id of the image of curve c.  Every validated
        isometry maps the 240-class set to itself; a miss here would mean
        the matrix is not an isometry.
        """
        images = self.coeff_array @ np.array(m.matrix, dtype=np.int64).T
        try:
            ids = self.ids_of(images)
        except ValueError as exc:
            raise AssertionError(
                f"isometry maps a curve outside the curve set ({exc})"
            ) from None
        return ids.astype(np.int16)

    def isometry_of(self, perm: np.ndarray) -> LatticeIsometry:
        """The isometry inducing a curve permutation, validated once.

        Its columns are the images of L, E1, ..., E8, read off the images
        of the curves E1..E8 and L12 = L - E1 - E2.
        """
        e1_to_e8_l12 = self.coeff_array[perm[self._basis_ids]]
        line = e1_to_e8_l12[8] + e1_to_e8_l12[0] + e1_to_e8_l12[1]
        columns = np.vstack([line, e1_to_e8_l12[:8]])
        return LatticeIsometry(tuple(tuple(row) for row in columns.T.tolist()))


@cache
def curve_table() -> CurveTable:
    return CurveTable()


def enumerate_curves() -> tuple[ExceptionalCurve, ...]:
    """All 240 exceptional curves in id order."""
    return curve_table().curves


def bertini(c: ExceptionalCurve) -> ExceptionalCurve:
    """The Bertini partner -2K - c; an involution without fixed curves."""
    table = curve_table()
    return table.curve(table.bertini_ids[c.id])


def disjoint_partners(c: ExceptionalCurve) -> frozenset[int]:
    """Ids of all curves meeting c in zero points."""
    return frozenset(np.flatnonzero(curve_table().pairing_array[c.id] == 0).tolist())


def s8_action(perm: str) -> LatticeIsometry:
    """The isometry fixing L and permuting E-indices by a cycle string."""
    return permutation_isometry(parse_cycles(perm))


def bertini_isometry() -> LatticeIsometry:
    """The lattice involution v -> -v + 2(v*K)K realizing D -> -2K - D on curves."""
    k = CANONICAL_CLASS
    cols = []
    for j in range(RANK):
        basis = [0] * RANK
        basis[j] = 1
        v = DivisorClass(tuple(basis))
        image = -1 * v + 2 * pair(v, k) * k
        cols.append(image.coeffs)
    rows = tuple(tuple(cols[j][i] for j in range(RANK)) for i in range(RANK))
    return LatticeIsometry(rows)
