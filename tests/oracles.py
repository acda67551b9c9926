"""Slow routes that the library replaced, kept as test oracles, and the
differential table that runs each fast kernel against them.

Each oracle gives the answer of a fast path by the construction it
replaced, and is defined here once.  A change that replaces a fast path
moves the old path into this module and adds one row to `DIFFERENTIAL`:
the kernel, its oracles, and the families of `families.py` it walks.
No test module imports another; they share only `conftest.py`,
`families.py` and this module.
"""

from collections import deque
from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations, permutations
from math import isqrt
from typing import Callable
from unittest.mock import patch

import numpy as np

import dpone.criteria as criteria
from dpone.curves import bertini_class, curve_table
from dpone.groups import TRIVIAL_GROUP, GroupSpec, _closure_rank, eliminated_rank, integer_rank
from dpone.lattice import (
    CANONICAL_CLASS,
    ENTRY_BOUND,
    FORM_DIAG,
    LINE,
    ORDER_CAP,
    DivisorClass,
    LatticeIsometry,
    exceptional,
    fixed_rank,
    simple_roots,
)
from dpone.stars import (
    OVERLAPPING,
    PAIR_TYPES,
    OverlappingStars,
    PairType,
    asynchronized,
    classify_pair,
    invariant_curves,
    invariant_stars,
    pair_codes,
    pair_counts,
    split_invariant_stars,
    star_masks,
    star_table,
)
from dpone.weyl import CarterType3, carter_type_order3, enumerate_roots, reflection_permutation

ASYNCHRONIZED = PAIR_TYPES.index(PairType.ASYNCHRONIZED)  # its pair code


# ---------------------------------------------------------------------------
# curves, isometries and the census


def divisor_family_classes() -> dict[DivisorClass, tuple[str, str]]:
    """The seven curve families by DivisorClass arithmetic: class -> (family, name)."""
    out: dict[DivisorClass, tuple[str, str]] = {}
    e = [None] + [exceptional(i) for i in range(1, 9)]
    total = sum((e[i] for i in range(2, 9)), e[1])
    for i in range(1, 9):
        out[e[i]] = ("E", f"E{i}")
    for i, j in combinations(range(1, 9), 2):
        out[LINE - e[i] - e[j]] = ("L2", f"L{i}{j}")
    for i, j, k in combinations(range(1, 9), 3):
        out[2 * LINE + e[i] + e[j] + e[k] - total] = ("Q", f"Q{i}{j}{k}")
    for i, j in permutations(range(1, 9), 2):
        out[3 * LINE - e[i] + e[j] - total] = ("C", f"C{i}-{j}")
    for d, (fam, name) in list(out.items()):
        if fam != "C":
            out[bertini_class(d)] = ("B" + fam[0], "b" + name)
    return out


def all_pairs_census() -> dict[str, int]:
    """`pair_counts` of all 1120 stars: `pair_codes` on each of the 626,640 pairs."""
    return pair_counts(star_table().ids_array)


def meet_in_the_middle_norm_solver(square: int, dot_k: int) -> list[DivisorClass]:
    """The numpy meet-in-the-middle solve_norm replaced, on its c_L range.

    For each c_L, the 4-tuples whose sum of squares is within bound form
    one half table, keyed by (sum, sum of squares).  A left half with
    (s, q) joins exactly the right halves keyed (target_sum - s,
    target_sq - q), which two searchsorted calls find in the sorted keys.
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


def loop_is_isometry(matrix) -> bool:
    """The pure-Python check is_isometry replaced: exact on Python ints."""
    try:
        m = tuple(tuple(int(x) for x in row) for row in matrix)
    except (ValueError, TypeError):
        return False
    if len(m) != 9 or any(len(row) != 9 for row in m):
        return False
    for i in range(9):
        for j in range(i, 9):
            val = sum(FORM_DIAG[r] * m[r][i] * m[r][j] for r in range(9))
            if val != (FORM_DIAG[i] if i == j else 0):
                return False
    k = CANONICAL_CLASS.coeffs
    return all(sum(m[r][c] * k[c] for c in range(9)) == k[r] for r in range(9))


def numpy_is_isometry(matrix) -> bool:
    """The exact numpy check is_isometry replaced: M^T J M = J and MK = K on
    an int64 array.  Its products are exact only for small entries, so an
    entry past ENTRY_BOUND is rejected first (FORGED["wrapping"] passes the
    products)."""
    try:
        m = tuple(tuple(int(x) for x in row) for row in matrix)
        a = np.array(m, dtype=np.int64)
    except (ValueError, TypeError, OverflowError):
        return False
    if a.shape != (9, 9) or ((a < -ENTRY_BOUND) | (a > ENTRY_BOUND)).any():
        return False
    j, k = np.diag(FORM_DIAG), np.array(CANONICAL_CLASS.coeffs)
    return bool((a.T @ j @ a == j).all() and (a @ k == k).all())


def permutation_word_isometry(word) -> LatticeIsometry:
    """A word in s1..s8 (indices 0..7) as parse_element composed it before:
    the reflections' curve permutations, perm(w s) = perm_w[perm_s], turned
    into a validated matrix by `isometry_of`."""
    perms = [reflection_permutation(simple_roots()[i]) for i in word]
    identity = np.arange(240, dtype=np.int16)
    return curve_table().isometry_of(reduce(lambda p, q: p[q], perms, identity))


def loop_permutation_of_isometry(m):
    """The column shape test permutation_of_isometry replaced."""
    cols = []
    for j in range(9):
        col = tuple(m.matrix[i][j] for i in range(9))
        if sum(col) != 1 or any(x not in (0, 1) for x in col):
            return None
        cols.append(col.index(1))
    if cols[0] != 0 or sorted(cols[1:]) != list(range(1, 9)):
        return None
    return {i: cols[i] for i in range(1, 9) if cols[i] != i}


def matrix_fixed_rank(generators) -> int:
    """The fixed rank from the (g - I) matrix rows, as before permutations."""
    rows = [
        [m.matrix[i][j] - (i == j) for j in range(9)] for m in generators for i in range(9)
    ]
    return 9 - integer_rank(rows)


def rank_carter_type(m: LatticeIsometry) -> CarterType3:
    """The class of an order-3 isometry by the rank of its fixed sublattice,
    the typing that the fixed-curve count replaced (ranked as a group, off
    its permutation, as the typing read it)."""
    return {t.fixed_rank: t for t in CarterType3}[fixed_rank(GroupSpec((m,)))]


def orthogonal_a2_planes(count: int) -> tuple[tuple[DivisorClass, DivisorClass], ...]:
    """The first `count` pairwise-orthogonal A2 root pairs, chosen greedily.

    Each pair (a, b) has a*b = 1; distinct pairs pair to zero in all four
    combinations.  Each step takes a = the first root, in enumeration
    order, orthogonal to every root chosen so far, and b = the first such
    root with a*b = 1, so the result is reproducible.  No choice ever has
    to be undone: the roots orthogonal to one, two or three A2 planes form
    the root systems E6, A2 x A2 and A2, each of which holds an A2 plane,
    and an A2 plane inside A2 x A2 is one of the two factors, so the other
    is left for the fourth step.  The rotations of the first three and four
    planes multiply to the A2^3 and A2^4 words of `weyl.ORDER3_TEXT`.
    """
    if count < 1 or count > 4:
        raise ValueError("count must be between 1 and 4")
    roots = enumerate_roots()
    # the roots are the curves shifted by K in id order: r.s = c.d - 1
    gram = curve_table().pairing_array - 1
    free = np.ones(len(roots), dtype=bool)
    chosen = []
    for _ in range(count):
        a = int(np.argmax(free))
        b = int(np.argmax(free & (gram[a] == 1)))
        chosen.append((roots[a], roots[b]))
        free &= (gram[a] == 0) & (gram[b] == 0)
    return tuple(chosen)


# ---------------------------------------------------------------------------
# closure, permutations and orders


@cache
def curve_ids_by_class() -> dict[DivisorClass, int]:
    return {c.divisor: i for i, c in enumerate(curve_table().curves)}


def slow_permutation_of(m: LatticeIsometry) -> tuple[int, ...]:
    """The image of each curve by `apply`, one curve at a time, looked up by
    its class rather than by the table's packed keys."""
    ids = curve_ids_by_class()
    return tuple(ids[m.apply(c.divisor)] for c in curve_table().curves)


def coefficient_row_permutation_of(m: LatticeIsometry) -> np.ndarray:
    """Each curve's image row, looked up by `ids_of`, which compares rows."""
    t = curve_table()
    images = t.coeff_array @ np.array(m.matrix, dtype=np.int64).T
    try:
        ids = t.ids_of(images)
    except ValueError as exc:
        raise AssertionError(f"isometry maps a curve outside the curve set ({exc})")
    return ids.astype(np.int16)


def slow_group_closure(gens, cap: int = 10000) -> list[LatticeIsometry]:
    """The closure BFS on 9x9 matrices."""
    identity = LatticeIsometry.identity()
    seen = {identity.matrix: identity}
    queue = [identity]
    while queue:
        current = queue.pop(0)
        for gen in gens:
            nxt = current @ gen
            if nxt.matrix not in seen:
                if len(seen) >= cap:
                    raise ValueError(f"group closure exceeds cap {cap}")
                seen[nxt.matrix] = nxt
                queue.append(nxt)
    return list(seen.values())


def row_keyed_closure(g: GroupSpec) -> np.ndarray:
    """The closure BFS keyed on full 240-id rows."""
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
                    raise ValueError(f"group closure exceeds cap {g.cap}")
                seen[key] = nxt
                queue.append(nxt)
    return np.stack(list(seen.values()))


def all_column_orders(perms: np.ndarray) -> np.ndarray:
    """Orders as the lcm of the cycle lengths of all 240 curves."""
    ids = np.arange(perms.shape[1], dtype=perms.dtype)
    lengths = np.zeros(perms.shape, dtype=np.int8)  # cycle lengths up to ORDER_CAP
    rows, power = np.arange(len(perms)), perms  # rows with a cycle not yet closed
    for k in range(1, ORDER_CAP + 1):
        block = lengths[rows]
        block[(block == 0) & (power == ids)] = k
        lengths[rows] = block
        open_rows = ~block.all(axis=1)
        if not open_rows.any():
            orders = np.lcm.reduce(lengths, axis=1, dtype=np.int64)
            if orders.max(initial=1) > ORDER_CAP:
                break
            return orders
        rows, power = rows[open_rows], power[open_rows]
        power = np.take_along_axis(perms[rows], power, axis=1)
    raise ValueError(f"element order exceeds cap {ORDER_CAP}")


def slow_order(m: LatticeIsometry) -> int:
    """The least n with m^n = 1, by matrix products."""
    acc, n = m, 1
    while acc != LatticeIsometry.identity():
        acc, n = acc @ m, n + 1
    return n


# ---------------------------------------------------------------------------
# star rows


@cache
def rows16() -> np.ndarray:
    """The star table as it was: C-ordered int16 rows."""
    return np.ascontiguousarray(star_table().ids_array, dtype=np.int16)


def row_major_fixed_stars(fixed_curves: np.ndarray) -> np.ndarray:
    return fixed_curves[rows16()].all(axis=1)


def row_major_star_masks(perms: np.ndarray, ids: np.ndarray):
    edge_star = star_table().edge_star
    images = perms[:, ids]
    setwise = edge_star[images[..., 0], images[..., 1]] == edge_star[ids[:, 0], ids[:, 1]]
    return setwise, (images == ids).all(axis=2)


def sorted_row_star_masks(perms: np.ndarray, ids: np.ndarray):
    """The setwise test the edge lookup replaced: each image row, sorted, is
    the row sorted."""
    images = perms[:, ids]
    setwise = (np.sort(images, axis=2) == np.sort(ids, axis=1)).all(axis=2)
    return setwise, (images == ids).all(axis=2)


def row_major_antipodal(perm: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The antipode test on a permutation: every member goes to its partner."""
    return (perm[rows] == curve_table().bertini_ids[rows]).all(axis=1)


def pairing_three_antipodal(perm: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Star rows on which every member pairs to 3 with its image."""
    return (curve_table().pairing_array[rows, perm[rows]] == 3).all(axis=1)


def brute_force_code(a, b) -> int:
    """A pair's code by `classify_pair`, the 144-relabelling brute force."""
    try:
        return PAIR_TYPES.index(classify_pair(a, b).pair_type)
    except OverlappingStars:
        return OVERLAPPING


@cache
def invariant_pair_codes(m: LatticeIsometry) -> tuple[tuple, np.ndarray]:
    """The invariant stars of <m>, and `brute_force_code` of each pair i < j
    of them at [i, j] (-1 on and below the diagonal), once per test run."""
    actions = invariant_stars(m)
    codes = np.full((len(actions), len(actions)), -1)
    for i, j in combinations(range(len(actions)), 2):
        codes[i, j] = brute_force_code(actions[i].star, actions[j].star)
    codes.flags.writeable = False  # shared by every test that reads it
    return actions, codes


# ---------------------------------------------------------------------------
# two stars


def row_loop_first_pair(rows: np.ndarray) -> tuple[int, int] | None:
    """The first asynchronized pair of rows, one `asynchronized` call per row."""
    for i in range(len(rows) - 1):
        hits = np.flatnonzero(asynchronized(rows[i], rows[i + 1 :]))
        if len(hits):
            return i, i + 1 + int(hits[0])
    return None


def block_scan_first_pair(rows: np.ndarray) -> tuple[int, int] | None:
    """The first asynchronized pair of rows, testing blocks of 1, 2, 4, ...
    rows against every later row with `asynchronized`."""
    lo, size = 0, 1
    while lo < len(rows) - 1:
        block = asynchronized(rows[lo : lo + size], rows[lo + 1 :])
        hit = int(block.argmax())
        if block.flat[hit]:
            i, j = divmod(hit, block.shape[1])
            return lo + i, lo + 1 + j
        lo, size = lo + size, 2 * size
    return None


def first_pair_ids(scan, fixed: np.ndarray) -> tuple[int, int] | None:
    """A row scan's first pair of the ascending star ids fixed, as star ids."""
    found = scan(star_table().ids_array[fixed])
    return None if found is None else tuple(fixed[list(found)].tolist())


def all_ones_cross(a, b) -> bool:
    p = curve_table().pairing_array
    return all(p[x, y] == 1 for x in a for y in b)


def reference_two_stars(gamma):
    """The first asynchronized pair of StarAction records, by the all-ones
    cross test, each hit confirmed by classify_pair."""
    pointwise, _ = split_invariant_stars(gamma)
    for a, b in combinations(pointwise, 2):
        if set(a) & set(b):
            continue
        if all_ones_cross(a, b):
            assert classify_pair(a, b).pair_type is PairType.ASYNCHRONIZED
            return criteria.TwoStarsWitness(stars=(a, b))
    return None


def pair_code_two_stars(gamma):
    """Pointwise-fixed stars from `star_masks`, pairs tested by `pair_codes`."""
    table = star_table()
    _, pointwise = star_masks(gamma.generator_perms, table.ids_array)
    fixed = np.flatnonzero(pointwise.all(axis=0))
    rows = table.ids_array[fixed]
    for i in range(len(rows) - 1):
        hits = np.flatnonzero(pair_codes(rows[i], rows[i + 1 :]) == ASYNCHRONIZED)
        if len(hits):
            a, b = fixed[[i, i + 1 + hits[0]]].tolist()
            return criteria.TwoStarsWitness(stars=(table.stars[a], table.stars[b]))
    return None


# ---------------------------------------------------------------------------
# the order-3 rules and the triple


def reference_carter(gamma):
    """The first order-3 element whose matrix has the fixed rank of A2^3 or A2^4."""
    for i in gamma.of_order(3):
        m = criteria.element_isometry(gamma.element(i))
        if rank_carter_type(m) in (CarterType3.A2x3, CarterType3.A2x4):
            return criteria.CarterWitness((gamma.element(i),))
    return None


def reference_not_rational_stars(gamma):
    """The first order-3 element with three faithful StarAction records."""
    for i in gamma.of_order(3):
        _, faithful = split_invariant_stars(criteria.element_isometry(gamma.element(i)))
        if len(faithful) >= 3:
            return criteria.StarsWitness((gamma.element(i),), stars=tuple(faithful[:3]))
    return None


def ix_triple(gamma: GroupSpec) -> criteria.TripleWitness | None:
    """The triple scan over a pairing block read with `np.ix_`."""
    inv = invariant_curves(gamma)
    p = curve_table().pairing_array[np.ix_(inv, inv)].tolist()
    for i, a in enumerate(inv):
        for j, b in enumerate(inv):
            if p[i][j] != 1:
                continue
            for k, c in enumerate(inv):
                if c > a and p[j][k] == 1 and p[i][k] == 0:
                    return criteria.TripleWitness(curves=(a, b, c))
    return None


# ---------------------------------------------------------------------------
# the even rule


def element_loop_even(gamma: GroupSpec) -> criteria.EvenWitness | None:
    """The first even element, in closure order, that flips a star."""
    for i in np.flatnonzero(gamma.orders % 2 == 0):
        hits = np.flatnonzero(row_major_antipodal(gamma.perms[i], rows16()))
        if len(hits):
            star = star_table().stars[hits[0]]
            return criteria.EvenWitness((gamma.element(i),), stars=(star,))
    return None


# ---------------------------------------------------------------------------
# four stars


def dfs_four_clique(asynchronized):
    """The recursive search that _first_four_clique replaced."""
    n = len(asynchronized)
    chosen = []

    def rec(start):
        if len(chosen) == 4:
            return True
        for idx in range(start, n):
            if asynchronized[chosen, idx].all():
                chosen.append(idx)
                if rec(idx + 1):
                    return True
                chosen.pop()
        return False

    return chosen if rec(0) else None


def reference_four_stars(setup):
    """Four faithful stars of the combined group's StarAction records, pairwise
    asynchronized by the all-ones cross test, by depth-first search."""
    g = setup.g_group
    order3 = g.of_order(3)
    if not len(order3):
        return None
    stars = [a.star for a in invariant_stars(setup.combined)]
    ids = np.array(stars, dtype=np.intp).reshape(-1, 6)
    setwise, pointwise = star_masks(g.perms[order3], ids)
    faithful = setwise & ~pointwise
    candidates = [
        (s, int(order3[faithful[:, j].argmax()]))
        for j, s in enumerate(stars)
        if faithful[:, j].any()
    ]
    chosen = []

    def compatible(s):
        return all(
            not (set(s) & set(prev)) and all_ones_cross(s, prev)
            for prev, _ in chosen
        )

    def rec(start):
        if len(chosen) == 4:
            return True
        for idx in range(start, len(candidates)):
            s, m = candidates[idx]
            if compatible(s):
                chosen.append((s, m))
                if rec(idx + 1):
                    return True
                chosen.pop()
        return False

    if not rec(0):
        return None
    stars = tuple(s for s, _ in chosen)
    for a, b in combinations(stars, 2):
        assert classify_pair(a, b).pair_type is PairType.ASYNCHRONIZED
    elements = tuple(g.element(i) for _, i in chosen)
    return criteria.MinimalityCertificate(stars, elements, fixed_rank(setup.combined))


def pair_code_four_stars(setup):
    """The four-star search with pairs tested by their `pair_codes` code."""
    g = setup.g_group
    combined = GroupSpec(g.generators + setup.gamma_group.generators, label="combined")
    order3 = g.of_order(3)
    if not len(order3):
        return None
    table = star_table()
    setwise, _ = star_masks(combined.generator_perms, table.ids_array)
    invariant = np.flatnonzero(setwise.all(axis=0))
    faithful = criteria._faithful(g.perms[order3], table.ids_array[invariant])
    rotated = faithful.any(axis=0)
    candidates = invariant[rotated]
    rotator = order3[faithful[:, rotated].argmax(axis=0)]
    rows = table.ids_array[candidates]
    n = len(rows)
    pairs = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        pairs[i, i + 1 :] = pair_codes(rows[i], rows[i + 1 :]) == ASYNCHRONIZED
    chosen = criteria._first_four_clique(pairs)
    if chosen is None:
        return None
    stars = tuple(table.stars[candidates[i]] for i in chosen)
    elements = tuple(g.element(int(rotator[i])) for i in chosen)
    rank = fixed_rank(combined)
    if rank != 1:
        raise criteria.CertificateViolation(f"combined fixed rank is {rank}")
    return criteria.MinimalityCertificate(stars, elements, rank)


# ---------------------------------------------------------------------------
# the differential table
#
# Each row runs a kernel and every oracle on one input, a group of the
# families in `families.py`, and asserts that all answers agree exactly:
# witnesses are the first hit in a fixed order and arrays match in dtype.
# A rule row also replays each hit.


@dataclass(frozen=True)
class Row:
    kernel: Callable
    oracles: tuple[Callable, ...]
    families: tuple[str, ...]
    replay: Callable | None = None


def as_g(g: GroupSpec) -> criteria.ActionSetup:
    """The setup with g as G and Gamma trivial."""
    return criteria.ActionSetup(g, TRIVIAL_GROUP)


def per_element(f: Callable) -> Callable:
    """f on each closure row of a group, stacked."""
    return lambda g: np.array([f(p) for p in g.perms])


def trace_rank(g):
    """The rank as a closed group takes it, the average trace over g's
    closure: the closure the other rows read, so no group is closed twice."""
    return _closure_rank(g.perms)


def unclosed_rank(g):
    """The rank of an unclosed copy of g, left unclosed: the basis cycles of
    one generator, else elimination."""
    unclosed = GroupSpec(g.generators)
    rank = fixed_rank(unclosed)
    assert "perms" not in vars(unclosed)  # no group is closed for its rank
    return rank


def scanned_fixed_stars(perm):
    """The pointwise-fixed star mask `check_rational_two_stars` hands its pair
    scan when the permutation alone generates Gamma."""
    masks = []

    def scan(fixed, mask):
        assert np.array_equal(fixed, np.flatnonzero(mask))
        masks.append(mask)

    with patch.object(criteria, "_first_asynchronized", scan):
        gamma = GroupSpec((curve_table().isometry_of(perm),))
        assert criteria.check_rational_two_stars(gamma) is None
    return masks[0]


def fixed_star_ids(g):
    return np.flatnonzero(row_major_fixed_stars(g.fixed_curves))


def partner_rows_first_pair(g):
    """`criteria._first_asynchronized`, which reads the star table's partner
    rows, on g's pointwise-fixed stars."""
    mask = row_major_fixed_stars(g.fixed_curves)
    return criteria._first_asynchronized(np.flatnonzero(mask), mask)


def closure_permutations(f: Callable) -> Callable:
    """f on the isometry of each closure row of a group, stacked."""
    return per_element(lambda p: f(curve_table().isometry_of(p)))


def python_images(m: LatticeIsometry) -> np.ndarray:
    """`images_of`, the one-element images by `apply` and `id_of`, as int16."""
    return np.array(curve_table().images_of(m), dtype=np.int16)


def generator_permutations(f: Callable) -> Callable:
    """f on each generator of a group, stacked as `generator_perms` is."""
    return lambda g: np.array([f(m) for m in g.generators], dtype=np.int16)


def order3_isometries(f: Callable) -> Callable:
    """f on the isometry of each order-3 closure row of a group, in
    `of_order(3)` order."""
    return lambda g: tuple(f(curve_table().isometry_of(g.perms[i])) for i in g.of_order(3))


def flips(p):
    """The permutation's mask of curves sent to their Bertini partners."""
    return p == curve_table().bertini_ids


ALL = ("groups", "family", "pool")
SWEEP = ("groups", "family")
CLOSED = (*SWEEP, "parabolics")
# each rule's oracles; its kernel and replay are the library's
RULE_ORACLES = {
    "rational_two_stars": (reference_two_stars, pair_code_two_stars),
    "rational_triple": (ix_triple,),
    "not_rational_carter": (reference_carter,),
    "not_rational_stars": (reference_not_rational_stars,),
    "not_rational_even": (element_loop_even,),
}
RULE_ROWS = {
    **{
        name: Row(checker, RULE_ORACLES[name], ALL, criteria.REPLAYS[name])
        for name, _, checker in criteria.RULES
    },
    "minimal_four_stars": Row(
        lambda g: criteria.check_minimal_four_stars(as_g(g)),
        (lambda g: reference_four_stars(as_g(g)), lambda g: pair_code_four_stars(as_g(g))),
        ALL,
        lambda g, cert: criteria.replay_minimality(as_g(g), cert),
    ),
}
GROUP_ROWS = {
    "closure": Row(lambda g: g.perms, (row_keyed_closure,), CLOSED),
    "orders": Row(lambda g: g.orders, (lambda g: all_column_orders(g.perms),), CLOSED),
    "fixed_rank": Row(
        trace_rank,
        (
            unclosed_rank,
            lambda g: eliminated_rank(g.generators),
            lambda g: matrix_fixed_rank(g.generators),
        ),
        (*ALL, "parabolics", "parabolic_elements"),
    ),
    "permutation_of": Row(
        closure_permutations(lambda m: curve_table().permutation_of(m)),
        (lambda g: g.perms, closure_permutations(coefficient_row_permutation_of)),
        SWEEP,
    ),
    "images_of": Row(
        generator_permutations(python_images),
        (lambda g: g.generator_perms, generator_permutations(coefficient_row_permutation_of)),
        SWEEP,
    ),
    "fixed_stars": Row(
        per_element(scanned_fixed_stars),
        (per_element(lambda p: row_major_fixed_stars(p == np.arange(240))),),
        SWEEP,
    ),
    "partners": Row(
        partner_rows_first_pair,
        (
            lambda g: first_pair_ids(row_loop_first_pair, fixed_star_ids(g)),
            lambda g: first_pair_ids(block_scan_first_pair, fixed_star_ids(g)),
        ),
        SWEEP,
    ),
    "star_masks": Row(
        lambda g: star_masks(g.perms, star_table().ids_array),
        (
            lambda g: row_major_star_masks(g.perms, rows16()),
            lambda g: sorted_row_star_masks(g.perms, rows16()),
        ),
        SWEEP,
    ),
    "order3_types": Row(
        lambda g: g.order3_types,
        (order3_isometries(rank_carter_type), order3_isometries(carter_type_order3)),
        SWEEP,
    ),
    "flipped_stars": Row(
        per_element(lambda p: criteria._flipped_stars(flips(p), star_table().ids_array)),
        (
            per_element(lambda p: pairing_three_antipodal(p, star_table().ids_array)),
            per_element(lambda p: row_major_antipodal(p, rows16())),
        ),
        SWEEP,
    ),
}
DIFFERENTIAL = {**RULE_ROWS, **GROUP_ROWS}


def same(a, b) -> bool:
    """Exact agreement: arrays in value and dtype, tuples item by item."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.dtype == b.dtype and np.array_equal(a, b)
        )
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def hit(answer) -> bool:
    """A witness, or an answer with a true or nonzero entry."""
    if isinstance(answer, tuple):
        return any(hit(x) for x in answer)
    return answer is not None and bool(np.any(answer))


def assert_row(name: str, g: GroupSpec) -> bool:
    """The row's kernel and each of its oracles agree on g; a hit replays.
    Returns whether the kernel hit."""
    row = DIFFERENTIAL[name]
    got = row.kernel(g)
    for i, oracle in enumerate(row.oracles):
        assert same(got, oracle(g)), (name, f"oracle {i}", g)
    if row.replay is not None and got is not None:
        assert row.replay(g, got), (name, g)
    return hit(got)
