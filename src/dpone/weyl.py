"""Roots and finite-order isometries of the K-orthogonal E8 sublattice.

The Weyl group W(E8) acts on the Picard lattice fixing K; it is generated
by reflections in the 240 roots {v : v*v = -2, v*K = 0}, which are the
solutions solve_norm(-2, 0).  This module builds reflections and the
order-3 rotations of A2 root planes, and classifies order-3 elements by
conjugacy class.  The four classes A2, A2^2, A2^3, A2^4 are separated by
the rank of the fixed sublattice: 7, 5, 3, 1.
"""

from __future__ import annotations

import enum
from functools import cache

import numpy as np

from .curves import curve_table
from .lattice import (
    CANONICAL_CLASS,
    FORM_DIAG,
    RANK,
    DivisorClass,
    LatticeIsometry,
    fixed_rank,
    isometry_from_text,
    pair,
    parse_cycles,
    permutation_isometry,
    permutation_orders,
    simple_roots,
    solve_norm,
)


def is_root(v: DivisorClass) -> bool:
    return pair(v, v) == -2 and pair(v, CANONICAL_CLASS) == 0


@cache
def enumerate_roots() -> tuple[DivisorClass, ...]:
    """The 240 roots of the E8 sublattice, in lexicographic order."""
    return tuple(solve_norm(-2, 0))


def reflection(r: DivisorClass) -> LatticeIsometry:
    """The reflection x -> x + (x*r) r in a root r."""
    if not is_root(r):
        raise ValueError(f"not a root: {r!r}")
    c = r.coeffs
    return LatticeIsometry(tuple(
        tuple(int(i == j) + c[i] * FORM_DIAG[j] * c[j] for j in range(RANK))
        for i in range(RANK)
    ))


def rotation(a: DivisorClass, b: DivisorClass) -> LatticeIsometry:
    """The order-3 rotation s_a s_b of the A2 plane spanned by roots a, b.

    Requires a*b = 1 so that a, b span an A2 subsystem.
    """
    if pair(a, b) != 1:
        raise ValueError(f"roots do not span an A2 plane: a*b = {pair(a, b)}")
    return reflection(a) @ reflection(b)


def element_order(m: LatticeIsometry) -> int:
    """Multiplicative order of an isometry; raises past ORDER_CAP.

    W(E8) acts faithfully on the 240 curves, so this is the order of the
    curve permutation.
    """
    perm = curve_table().permutation_of(m)
    return int(permutation_orders(perm[None])[0])


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


_RANK_TO_TYPE = {9 - 2 * k: CarterType3(k) for k in range(1, 5)}


def carter_type_order3(m: LatticeIsometry) -> CarterType3:
    """Conjugacy class of an order-3 isometry, read off the fixed rank."""
    if element_order(m) != 3:
        raise ValueError("element does not have order 3")
    r = fixed_rank(m)
    if r not in _RANK_TO_TYPE:
        raise AssertionError(f"order-3 element with fixed rank {r}")
    return _RANK_TO_TYPE[r]


def orthogonal_a2_planes(count: int) -> tuple[tuple[DivisorClass, DivisorClass], ...]:
    """The first `count` pairwise-orthogonal A2 root pairs, chosen greedily.

    Each pair (a, b) has a*b = 1; distinct pairs pair to zero in all four
    combinations.  Each step takes a = the first root, in enumeration
    order, orthogonal to every root chosen so far, and b = the first such
    root with a*b = 1, so the result is reproducible.  No choice ever has
    to be undone: the roots orthogonal to one, two or three A2 planes form
    the root systems E6, A2 x A2 and A2, each of which holds an A2 plane,
    and an A2 plane inside A2 x A2 is one of the two factors, so the other
    is left for the fourth step.
    """
    if count < 1 or count > 4:
        raise ValueError("count must be between 1 and 4")
    roots = enumerate_roots()
    coeffs = np.array([r.coeffs for r in roots], dtype=np.int64)
    gram = coeffs * FORM_DIAG @ coeffs.T
    free = np.ones(len(roots), dtype=bool)
    chosen = []
    for _ in range(count):
        a = int(np.argmax(free))
        b = int(np.argmax(free & (gram[a] == 1)))
        chosen.append((roots[a], roots[b]))
        free &= (gram[a] == 0) & (gram[b] == 0)
    return tuple(chosen)


@cache
def representative_order3(ctype: CarterType3) -> LatticeIsometry:
    """A standard representative of each order-3 class.

    A2 and A2^2 act by index 3-cycles on the blown-up points; A2^3 and
    A2^4 multiply rotations of pairwise-orthogonal A2 planes.
    """
    if ctype is CarterType3.A2:
        return permutation_isometry(parse_cycles("(1 2 3)"))
    if ctype is CarterType3.A2x2:
        return permutation_isometry(parse_cycles("(1 2 3)(4 5 6)"))
    planes = orthogonal_a2_planes(ctype.value)
    m = LatticeIsometry.identity()
    for a, b in planes:
        m = m @ rotation(a, b)
    if carter_type_order3(m) is not ctype:
        raise AssertionError(f"representative search produced wrong class for {ctype}")
    return m


def parse_element(text: str) -> LatticeIsometry:
    """Parse an isometry from one of three text forms.

    Cycle notation "(1 2 3)(4 5 6)" gives an index permutation; a line
    "s i1 i2 ..." gives a word in the simple reflections s_1..s_8; nine
    whitespace-separated rows of nine integers give a raw matrix.
    """
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty element text")
    first = stripped.split()[0]
    if stripped.startswith("(") or stripped in ("id", "()"):
        return permutation_isometry(parse_cycles(stripped))
    if first == "s":
        simples = simple_roots()
        word = stripped.split()[1:]
        if not word:
            raise ValueError("empty reflection word")
        m = LatticeIsometry.identity()
        for tok in word:
            try:
                idx = int(tok)
            except ValueError:
                raise ValueError(f"bad reflection index: {tok!r}") from None
            if not 1 <= idx <= 8:
                raise ValueError(f"reflection index out of range: {idx}")
            m = m @ reflection(simples[idx - 1])
        return m
    return isometry_from_text(stripped)
