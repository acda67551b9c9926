"""The group layer: finitely generated groups of lattice isometries.

A `GroupSpec` computes with its generators' curve permutations: the
closure (`group_closure`), the element orders (`permutation_orders`),
the fixed rank, the fixed-curve mask and the order-3 Carter types, each
on first use.  Only `report`, `census` and the lemmas that build a
group load this module, and each of them computes on arrays, so numpy
is imported here once, at module level.  The commands that read one
element (list-curves, list-roots, classify-element, verify-lemma A2A22)
never load it: a bare isometry's order and fixed rank come from
`lattice`, off its basis curves' cycles.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from typing import Iterable, Sequence, Union

import numpy as np

from .curves import curve_table
from .lattice import (
    ORDER_CAP,
    RANK,
    CheckViolation,
    LatticeIsometry,
    Record,
    _cycle_rank,
    check_cap,
)
from .weyl import carter_types

# W(E8) has order 696,729,600, and two generators typed by a user can
# generate a subgroup far too large to list: a closure raises past its cap
CLOSURE_CAP = 10000


class GroupSpec(Record):
    """A finitely generated group of lattice isometries, closed at most once.

    Rows of ``generator_perms`` are the generators as curve permutations,
    rows of ``perms`` the closure in ``group_closure`` order, identity
    first, and ``orders`` their orders: n / gcd(n, k) for row k of a
    one-generator closure of n rows, which is g^k, and
    ``permutation_orders`` for any other; ``fixed_curves`` masks the curves
    every generator fixes, and ``order3_types`` holds the Carter classes
    of the order-3 elements.  These and ``fixed_rank`` are computed on
    first use and kept for the object's lifetime, so each generator is
    permuted once, a caller that needs only the generators closes
    nothing, and every rule, search and replay handed the same object
    shares one closure, one rank, one mask and one typing.  The rank is
    the average trace over the closure when the closure is already
    held, else the cycle sums of the one generator's basis curves, else
    elimination on the generators (``integer_rank``); no group is
    closed only to read its rank (see ``lattice.fixed_rank``).  All read
    only the generators' curve permutations, and each generator is kept
    once, at its first occurrence: a repeat yields no element the
    closure has not seen.
    ``cap``, at most ``lattice.MAX_CAP``, bounds that closure (see ``group_closure``).
    ``element(i)`` hands out element i as the bytes of its closure row,
    exact, hashable and independent of generator order, and ``index_of``
    finds such bytes in the closure; no 9x9 matrix is built.  The fields
    are immutable, and two groups are equal when their generators, label
    and cap are.
    """

    _fields = ("generators", "label", "cap")  # no __slots__: cached_property needs a __dict__

    def __init__(
        self,
        generators: Iterable[LatticeIsometry],
        label: str = "",
        cap: int = CLOSURE_CAP,
    ) -> None:
        check_cap(cap)
        generators = tuple(dict.fromkeys(generators))
        if not all(isinstance(m, LatticeIsometry) for m in generators):
            raise TypeError(f"generators must be LatticeIsometry objects: {generators!r}")
        super().__init__(generators, label, cap)

    def __repr__(self) -> str:
        return (
            f"GroupSpec({len(self.generators)} generators, "
            f"label={self.label!r}, cap={self.cap})"
        )

    @cached_property
    def generator_perms(self) -> np.ndarray:
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
        if len(self.generators) != 1:
            return permutation_orders(self.perms)
        # the closure of <g> is g^0, g^1, ..., g^(n-1) in that order, and
        # g^k has order n / gcd(n, k)
        n = len(self.perms)
        if n > ORDER_CAP:
            raise ValueError(f"element order exceeds cap {ORDER_CAP}")
        return n // np.gcd(n, np.arange(n))

    @cached_property
    def fixed_rank(self) -> int:
        if not self.generators:
            return RANK  # the empty group fixes everything
        if "perms" in self.__dict__:
            return _closure_rank(self.perms)
        if len(self.generators) == 1:
            return _cycle_rank(self.generator_perms[0].tolist())
        return _eliminated_rank(self.generator_perms)

    @cached_property
    def order3_types(self) -> tuple:
        """The Carter classes of the order-3 elements, in ``of_order(3)`` order."""
        return tuple(carter_types(self.perms[self.of_order(3)]))

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
        return (self.orders == n).nonzero()[0]

    def element(self, i: int) -> bytes:
        """Element i as the bytes of its int16 closure row."""
        return self.perms[i].tobytes()

    def index_of(self, m: bytes) -> int | None:
        """The closure index of an element's row bytes, or None if it is not
        in the group."""
        return self._index.get(m)


TRIVIAL_GROUP = GroupSpec((), "trivial")

GroupLike = Union[GroupSpec, LatticeIsometry]


def _generators_of(g: GroupLike) -> tuple[LatticeIsometry, ...]:
    return g.generators if isinstance(g, GroupSpec) else (g,)


def as_group(g: GroupLike) -> GroupSpec:
    """g itself if it is a GroupSpec, else a new one on its generators."""
    return g if isinstance(g, GroupSpec) else GroupSpec(_generators_of(g))


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


def _closure_rank(perms: np.ndarray) -> int:
    """dim Fix(G) = (1/|G|) sum of tr(g) over the closure rows, the
    multiplicity of the trivial character; raises CheckViolation if the
    sum is not a multiple of |G|."""
    t = curve_table()
    total = int(t.trace_array[perms[:, t.basis_ids], np.arange(RANK)].sum())
    rank, rest = divmod(total, len(perms))
    if rest:
        raise CheckViolation(
            f"closure traces sum to {total}, not a multiple of "
            f"its {len(perms)} rows: they are not a group"
        )
    return rank


def _eliminated_rank(generator_perms: np.ndarray) -> int:
    """9 minus the rank of the generators' basis moves, by ``integer_rank``.

    For an isometry g, ker(g - I) is the orthogonal complement of
    im(g - I), which the moves g(c) - c of the basis curves span.
    """
    t = curve_table()
    basis = t.basis_ids
    moves = t.coeff_array[generator_perms[:, basis]] - t.coeff_array[basis]
    return RANK - integer_rank(moves.reshape(-1, RANK).tolist())


def eliminated_rank(generators: Iterable[LatticeIsometry]) -> int:
    """The generators' common fixed rank, 9 minus the rank of their basis
    moves by ``integer_rank``, whatever route ``fixed_rank`` would take:
    the replays recompute a rank this way, independently of the closure
    trace and the cycle sums that the rules' groups read.
    """
    return _eliminated_rank(GroupSpec(tuple(generators)).generator_perms)


def cap_exceeded(label: str, cap: int) -> ValueError:
    """The error of a closure of the group named label past cap elements."""
    name = f"group {label}" if label else "group"
    return ValueError(f"{name} closure exceeds cap {cap}")


def group_closure(g: GroupSpec) -> np.ndarray:
    """Curve permutations of all distinct products of the generators.

    One int16 row of 240 curve ids per element, breadth-first from the
    identity: each element's products with the generators follow in
    generator order, composed as perm(A @ B) = perm_A[perm_B].  W(E8)
    acts faithfully on the 240 curves, and an element is fixed by its
    images of the basis curves E1..E8, L12 (``curve_table().basis_ids``;
    L = L12 + E1 + E2), so the closure keys each element on those nine
    ids, 18 bytes: one gather per element gives the keys of all its
    products, and a full row is built only for a new element.  The
    generator rows, the indices of every gather, are cast to intp once,
    so no gather casts them again; the closure rows stay int16, a quarter
    of the memory of int64 rows at MAX_CAP.

    ``g.cap`` bounds the time and memory a closure may take: past that
    many elements the closure raises.
    """
    basis = curve_table().basis_ids
    gens = g.generator_perms.astype(np.intp)
    gen_basis, width = gens[:, basis], 2 * len(basis)  # int16 ids: 2 bytes each
    identity = np.arange(240, dtype=np.int16)
    seen = {identity[basis].tobytes()}
    rows = [identity]
    for current in rows:  # rows grows while it is read: the BFS queue
        keys = current[gen_basis].tobytes()
        for i, gen in enumerate(gens):
            key = keys[width * i : width * (i + 1)]
            if key not in seen:
                if len(seen) >= g.cap:
                    raise cap_exceeded(g.label, g.cap)
                seen.add(key)
                rows.append(current[gen])
    return np.stack(rows)


def permutation_orders(perms: np.ndarray) -> np.ndarray:
    """Orders of curve permutations of W(E8) elements, one per row of perms;
    raises past ORDER_CAP.

    An element is fixed by its images of the basis curves E1..E8, L12
    (``curve_table().basis_ids``), so g^k = 1 exactly when g^k fixes
    those nine curves, and the order is the lcm of their cycle lengths.
    A curve's cycle length is the least k with perm^k(c) = c; the powers
    of all rows are taken together, on the nine basis columns only.
    """
    basis = curve_table().basis_ids
    rows = np.arange(len(perms))[:, None]
    lengths = np.zeros((len(perms), len(basis)), dtype=np.int64)
    power = perms[:, basis]
    for k in range(1, ORDER_CAP + 1):
        lengths[(power == basis) & (lengths == 0)] = k
        if lengths.all():
            orders = np.lcm.reduce(lengths, axis=1)
            if orders.max(initial=1) > ORDER_CAP:
                break
            return orders
        power = perms[rows, power]
    raise ValueError(f"element order exceeds cap {ORDER_CAP}")
