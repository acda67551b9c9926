"""Roots and finite-order isometries of the K-orthogonal E8 sublattice.

The Weyl group W(E8) acts on the Picard lattice fixing K; it is generated
by reflections in the 240 roots {v : v*v = -2, v*K = 0}.  The roots are
the curves shifted by K: r -> r - K sends them one-to-one onto the 240
exceptional classes, since (r - K)^2 = -1 and (r - K)*K = -1, and it
keeps lexicographic order, so `enumerate_roots` solves nothing.  Groups
compose elements as curve permutations, perm(A @ B) = perm_A[perm_B],
with each reflection's permutation cached.  One element read from text
is a 9x9 matrix: a reflection word composes on its nine columns, and its
order, fixed rank and Carter class come from its curve images
(`curve_table().images_of`), with no numpy imported.  The four order-3
classes A2, A2^2, A2^3, A2^4 fix 72, 12, 6 and 0 of the 240 curves, so
`carter_types` and `carter_type_order3` read the class off that count;
their fixed sublattices have rank 7, 5, 3, 1.  One representative of
each class is written as element text (`ORDER3_TEXT`), 3-cycles for A2
and A2^2 and reflection words for A2^3 and A2^4, so all four are built
without numpy; the A2-plane search that gave the two words is their
oracle in the tests.
"""

from __future__ import annotations

import enum
from functools import cache
from operator import add, eq
from typing import TYPE_CHECKING

from .curves import curve_table, s8_action
from .lattice import (
    CANONICAL_CLASS,
    FORM_DIAG,
    INTEGER,
    RANK,
    CheckViolation,
    DivisorClass,
    LatticeIsometry,
    cycle_order,
    isometry_from_text,
    pair,
    read_int,
)

if TYPE_CHECKING:
    import numpy as np


def is_root(v: DivisorClass) -> bool:
    return pair(v, v) == -2 and pair(v, CANONICAL_CLASS) == 0


@cache
def enumerate_roots() -> tuple[DivisorClass, ...]:
    """The 240 roots of the E8 sublattice, in lexicographic order: c + K
    over the curves c in id order."""
    return tuple(c.divisor + CANONICAL_CLASS for c in curve_table().curves)


def reflection(r: DivisorClass) -> LatticeIsometry:
    """The reflection x -> x + (x*r) r in a root r."""
    if not is_root(r):
        raise ValueError(f"not a root: {r!r}")
    c = r.coeffs
    return LatticeIsometry(tuple(
        tuple(int(i == j) + c[i] * FORM_DIAG[j] * c[j] for j in range(RANK))
        for i in range(RANK)
    ))


@cache
def reflection_permutation(r: DivisorClass) -> np.ndarray:
    """The curve permutation of the reflection in a root, read-only int16."""
    perm = curve_table().permutation_of(reflection(r))
    perm.flags.writeable = False  # every caller shares this array
    return perm


def element_order(m: LatticeIsometry) -> int:
    """Multiplicative order of an isometry; raises past ORDER_CAP.

    W(E8) acts faithfully on the 240 curves, so this is the order of the
    curve permutation: the lcm of the basis curves' cycle lengths.
    """
    return cycle_order(curve_table().images_of(m))


class CarterType3(enum.Enum):
    """Conjugacy classes of order-3 elements in W(E8)."""

    A2 = 1
    A2x2 = 2
    A2x3 = 3
    A2x4 = 4

    @property
    def display(self) -> str:
        return "A2" if self.value == 1 else f"A2^{self.value}"

    @property
    def fixed_rank(self) -> int:
        return 9 - 2 * self.value


# fixed curves -> class: the count is a class function
_FIXED_CURVES_TO_TYPE = dict(zip((72, 12, 6, 0), CarterType3))


def _carter_type(fixed: int) -> CarterType3:
    try:
        return _FIXED_CURVES_TO_TYPE[fixed]
    except KeyError:
        raise CheckViolation(f"order-3 element fixing {fixed} curves") from None


def carter_types(perms: np.ndarray) -> list[CarterType3]:
    """The classes of order-3 curve permutations (rows), by fixed-curve count."""
    import numpy as np

    return [_carter_type(n) for n in (perms == np.arange(240)).sum(axis=1).tolist()]


def carter_type_order3(m: LatticeIsometry) -> CarterType3:
    """Conjugacy class of an order-3 isometry, read off its fixed curves."""
    images = curve_table().images_of(m)
    if cycle_order(images) != 3:
        raise ValueError("element does not have order 3")
    return _carter_type(sum(map(eq, images, range(240))))


# One representative of each order-3 class, as element text.  A2 and A2^2
# are 3-cycles of the blown-up points; A2^3 and A2^4 are reduced words in
# s1..s8, of 78 and 80 letters, for the products of the rotations s_a s_b
# in three and four pairwise-orthogonal A2 planes.  The greedy plane
# search that gives those products is their oracle in tests/oracles.py.
ORDER3_TEXT = {
    CarterType3.A2: "(1 2 3)",
    CarterType3.A2x2: "(1 2 3)(4 5 6)",
    CarterType3.A2x3: (
        "s 8 7 6 5 4 3 1 4 5 6 7 2 3 4 5 6 1 4 5 3 4 2 3 1 4 5 6 7 8 7 6 5 4 3 1 4 5 6 7 2"
        " 3 4 5 6 1 4 5 3 4 2 3 1 4 5 6 7 1 4 5 3 4 2 3 1 4 5 6 5 4 3 1 4 5 2 3 4 3 2"
    ),
    CarterType3.A2x4: (
        "s 8 7 6 5 4 3 1 4 5 6 7 2 3 4 5 6 1 4 5 3 4 2 3 1 4 5 6 7 8 7 6 5 4 3 1 4 5 6 7 2"
        " 3 4 5 6 1 4 5 3 4 2 3 1 4 5 6 7 6 1 4 5 3 4 2 3 1 4 5 6 5 4 2 3 1 4 5 2 3 4 3 2"
    ),
}


@cache
def representative_order3(ctype: CarterType3) -> LatticeIsometry:
    """The standard representative of an order-3 class, read from its
    `ORDER3_TEXT`.  Its class is checked by the lemmas that use it."""
    return parse_element(ORDER3_TEXT[ctype])


_IDENTITY_COLUMNS = tuple(tuple(int(i == j) for i in range(RANK)) for j in range(RANK))


def _word_isometry(letters: list[int]) -> LatticeIsometry:
    """s_i1 s_i2 ... s_ik, composed on the nine columns of the identity.

    Right multiplication by s_i acts on the columns, M s_i e_j = M s_i(e_j).
    For i >= 2, s_i swaps E_(i-1) and E_i, so it swaps columns i - 1 and
    i.  s_1 reflects in r = L - E1 - E2 - E3, which pairs to 1 with each
    of L, E1, E2, E3 and to 0 with E4..E8, so it adds M r = c0 - c1 - c2
    - c3 to columns 0..3.  A product of reflections is an isometry by
    construction, so the matrix is not checked.
    """
    columns = list(_IDENTITY_COLUMNS)  # tuples: each step replaces columns, edits none
    for i in letters:
        if i == 1:
            r = [c0 - c1 - c2 - c3 for c0, c1, c2, c3 in zip(*columns[:4])]
            columns[:4] = [tuple(map(add, col, r)) for col in columns[:4]]
        else:
            columns[i - 1], columns[i] = columns[i], columns[i - 1]
    return LatticeIsometry._unchecked(tuple(zip(*columns)))


def parse_element(text: str) -> LatticeIsometry:
    """Parse an isometry from one of three text forms.

    Cycle notation "(1 2 3)(4 5 6)" gives an index permutation; a line
    "s i1 i2 ..." gives a word in the simple reflections s_1..s_8; nine
    rows of nine integers, ended by newlines or "/", give a raw matrix.
    """
    if not isinstance(text, str):
        raise TypeError(f"element text is a string, not {text!r}")
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty element text")
    first = stripped.split()[0]
    if stripped.startswith("(") or stripped in ("id", "()"):
        return s8_action(stripped)
    if first == "s":
        word = stripped.split()[1:]
        if not word:
            raise ValueError("empty reflection word")
        letters = []
        for tok in word:
            idx = read_int(tok, f"bad reflection index: {tok!r}")
            if not 1 <= idx <= 8:
                raise ValueError(f"reflection index out of range: {idx}")
            letters.append(idx)
        return _word_isometry(letters)
    if INTEGER.fullmatch(first.split("/")[0]) is None:  # a matrix's first entry
        raise ValueError(
            f"cannot read an element from {first!r}: write cycle notation "
            '"(1 2 3)", a reflection word "s 1 2 1" or nine rows of nine integers'
        )
    return isometry_from_text(stripped)
