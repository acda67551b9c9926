"""Roots and finite-order isometries of the K-orthogonal E8 sublattice.

The Weyl group W(E8) acts on the Picard lattice fixing K; it is generated
by reflections in the 240 roots {v : v*v = -2, v*K = 0}.  This module
enumerates the roots, builds reflections and the order-3 rotations of A2
root planes, and classifies order-3 elements by conjugacy class.  The
four classes A2, A2^2, A2^3, A2^4 are separated by the rank of the fixed
sublattice: 7, 5, 3, 1.
"""

from __future__ import annotations

import enum
from functools import cache
from itertools import combinations

from .curves import curve_table
from .lattice import (
    CANONICAL_CLASS,
    LINE,
    RANK,
    DivisorClass,
    LatticeIsometry,
    exceptional,
    fixed_rank,
    isometry_from_text,
    pair,
    parse_cycles,
    permutation_isometry,
    permutation_orders,
    simple_roots,
)


def is_root(v: DivisorClass) -> bool:
    return pair(v, v) == -2 and pair(v, CANONICAL_CLASS) == 0


@cache
def enumerate_roots() -> tuple[DivisorClass, ...]:
    """The 240 roots of the E8 sublattice, in lexicographic order.

    Closed forms: E_i - E_j, +-(L - E_i - E_j - E_k),
    +-(2L - sum of six E's), +-(3L - 2E_i - sum of the rest).
    """
    e = [None] + [exceptional(i) for i in range(1, 9)]
    total = sum((e[i] for i in range(2, 9)), e[1])
    roots: set[DivisorClass] = set()
    for i in range(1, 9):
        for j in range(1, 9):
            if i != j:
                roots.add(e[i] - e[j])
    for i, j, k in combinations(range(1, 9), 3):
        v = LINE - e[i] - e[j] - e[k]
        roots.add(v)
        roots.add(-1 * v)
    for pair_out in combinations(range(1, 9), 2):
        # 2L minus six E's == 2L - total + the two left out
        v = 2 * LINE - total + e[pair_out[0]] + e[pair_out[1]]
        roots.add(v)
        roots.add(-1 * v)
    for i in range(1, 9):
        v = 3 * LINE - e[i] - total
        roots.add(v)
        roots.add(-1 * v)
    if len(roots) != 240:
        raise AssertionError(f"root generator produced {len(roots)} classes")
    return tuple(sorted(roots))


def reflection(r: DivisorClass) -> LatticeIsometry:
    """The reflection x -> x + (x*r) r in a root r."""
    if not is_root(r):
        raise ValueError(f"not a root: {r!r}")
    cols = []
    for j in range(RANK):
        basis = [0] * RANK
        basis[j] = 1
        v = DivisorClass(tuple(basis))
        image = v + pair(v, r) * r
        cols.append(image.coeffs)
    rows = tuple(tuple(cols[j][i] for j in range(RANK)) for i in range(RANK))
    return LatticeIsometry(rows)


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
    """Deterministic search for `count` pairwise-orthogonal A2 root pairs.

    Each pair (a, b) has a*b = 1; distinct pairs pair to zero in all four
    combinations.  Depth-first over roots in enumeration order, so the
    result is reproducible.
    """
    roots = enumerate_roots()
    chosen: list[tuple[DivisorClass, DivisorClass]] = []

    def orthogonal_to_chosen(v: DivisorClass) -> bool:
        return all(pair(v, a) == 0 and pair(v, b) == 0 for a, b in chosen)

    def rec() -> bool:
        if len(chosen) == count:
            return True
        for a in roots:
            if not orthogonal_to_chosen(a):
                continue
            for b in roots:
                if b == a or pair(a, b) != 1:
                    continue
                if not orthogonal_to_chosen(b):
                    continue
                chosen.append((a, b))
                if rec():
                    return True
                chosen.pop()
            # with a rejected at this depth every extension was tried;
            # trying a later first-root instead cannot help because any
            # solution using it would also have been found from `a`
        return False

    if count < 1 or count > 4:
        raise ValueError("count must be between 1 and 4")
    if not rec():
        raise AssertionError(f"no {count} orthogonal A2 planes found")
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
