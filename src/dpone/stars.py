"""Star configurations: hexagons of exceptional curves and their interplay.

A star is a set of six exceptional curves that can be arranged in a cycle
H_0, ..., H_5 whose Gram matrix is the circulant STAR_GRAM of
(-1, 0, 2, 3, 2, 0): pairings 0, 2, 3 at cyclic distances 1, 2, 3.  The
opposite curve H_{i+3} is always the Bertini partner -2K - H_i.  Any two
disjoint curves lie in exactly one common star, giving 1120 stars with
each curve on 28 of them.  Every check reads the curve table's one
pairing matrix, `pairing_array`.

A star is the tuple of its six curve ids in hexagon order, wherever this
module takes or returns one.  The one table, `star_table()`, is the
entry point: ``stars`` holds all 1120 as tuples in canonical order,
``ids_array`` the same rows as a (1120, 6) intp array, stored slot-first
(``ids_array.T`` is a contiguous (6, 1120) view), and ``edge_star`` the
row through any edge.  Ids from outside the table are checked once, by
`star_id`, against the row through their first edge; `star_text` names a
star's curves.

Adding K to each member turns a star into a hexagon of E8 roots spanning
an A2 plane, which is how stars talk to the Weyl group: rotating the
plane rotates the star two steps.

Two stars with twelve distinct curves interact in exactly one of three
ways (asynchronized, synchronized, abnormal).  `classify_pair` recognizes
one pair by brute force over hexagon relabelings and returns the matching
orderings; it is the single-pair API and the check behind the witness
replays.  The censuses use `pair_codes`, which looks each cross-pairing
matrix up, as one base-3 key, among the precomputed keys of every
relabeled pattern.  Stars with overlapping supports share exactly one
Bertini pair and fit no pattern; `classify_pair` refuses them and
`pair_codes` gives them their own code.  The census of all 1120 stars
runs `pair_codes` on star 0 alone and proves, by `star_orbit`, that the
Weyl group moves star 0 to every star.  The decision rules ask only
whether pairs are asynchronized, and `asynchronized` answers that by
counting cross pairings equal to 1 (`cross_ones`); the table's
``partners`` holds its answer for every star.

The star table itself is built with array operations on the curve
table; `star_through` is the one-star construction it vectorizes.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping
from functools import cache, cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

from .curves import ExceptionalCurve, curve_table
from .lattice import (
    CANONICAL_CLASS,
    CheckViolation,
    DivisorClass,
    LatticeIsometry,
    Record,
    simple_roots,
)
from .weyl import reflection_permutation

if TYPE_CHECKING:
    from .groups import GroupLike, GroupSpec


def _circulant(row) -> np.ndarray:
    """6x6 matrix whose entry (i, j) is row[(j - i) % 6]."""
    return np.array([np.roll(row, i) for i in range(6)], dtype=np.int8)


# Gram matrix of a star in hexagon order
STAR_GRAM = _circulant((-1, 0, 2, 3, 2, 0)).tolist()
_K = np.array(CANONICAL_CLASS.coeffs, dtype=np.int64)  # K as a coefficient row


class OverlappingStars(ValueError):
    """Raised when a pair operation needs disjoint supports but got overlap."""

    def __init__(self, shared: frozenset[int]):
        self.shared = shared
        names = ", ".join(curve_table().curve(i).name for i in sorted(shared))
        super().__init__(f"stars share curves {{{names}}}")


class TrichotomyViolation(CheckViolation):
    """Raised if a disjoint-support pair matches no interaction pattern."""


def is_curve_id(c) -> bool:
    """Whether c is a curve id: an int in 0..239, and not a bool."""
    return isinstance(c, (int, np.integer)) and not isinstance(c, bool) and 0 <= c < 240


def _resolve_curve_id(c) -> int:
    if is_curve_id(c):
        return int(c)
    if isinstance(c, (int, np.integer)):
        raise ValueError(f"not a curve id in 0..239: {c!r}")
    if isinstance(c, ExceptionalCurve):
        return c.id
    if isinstance(c, DivisorClass):
        return curve_table().id_of(c)
    if isinstance(c, str):
        return curve_table().id_of_name(c)
    raise TypeError(f"cannot interpret {c!r} as a curve")


# the 12 hexagon relabelings (rotation by k, then its reflection), as
# position arrays: ordering[i] = ids[D6[r, i]]; row 0 is the identity
D6 = np.array([
    order
    for k in range(6)
    for order in ([(i + k) % 6 for i in range(6)], [(k - i) % 6 for i in range(6)])
])


def star_text(ids) -> str:
    """The curve names of a star in its order, as {E7, E8, ...}."""
    t = curve_table()
    return "{" + ", ".join(t.curve(i).name for i in ids) + "}"


def star_id(ids) -> int:
    """The star-table row of the star with these curve ids in this cyclic order.

    The row through the first two ids, read from ``edge_star``, is the only
    candidate; the ids are accepted when they are one of its 12 relabelings,
    the orders whose Gram block is STAR_GRAM.  Raises ValueError unless ids
    are six curve ids (`is_curve_id`) that form a star in this order.
    """
    if isinstance(ids, Iterable):
        ids = tuple(ids)
    if not (isinstance(ids, tuple) and len(ids) == 6 and all(map(is_curve_id, ids))):
        raise ValueError(f"a star needs six curve ids in 0..239, got {ids!r}")
    table = star_table()
    sid = int(table.edge_star[ids[0], ids[1]])
    if sid < 0 or not (table.ids_array[sid][D6] == ids).all(axis=1).any():
        raise ValueError("curves do not form a star in this order")
    return sid


def is_star(curves) -> bool:
    """Whether the six curves form a star in the given cyclic order."""
    try:
        star_id([_resolve_curve_id(c) for c in curves])
    except (ValueError, TypeError):
        return False
    return True


def star_through(a, b) -> tuple[int, ...]:
    """The curve ids of the unique star containing two disjoint curves as neighbors.

    With A, B the classes, the hexagon runs A, B, -K - A + B, -2K - A,
    -2K - B, -K + A - B.
    """
    t = curve_table()
    ia, ib = _resolve_curve_id(a), _resolve_curve_id(b)
    if t.pairing_array[ia, ib] != 0:
        raise ValueError(
            f"curves {t.curve(ia).name} and {t.curve(ib).name} are not disjoint"
        )
    va, vb = t.coeff_array[ia], t.coeff_array[ib]
    seq = (va, vb, -_K - va + vb, -2 * _K - va, -2 * _K - vb, -_K + va - vb)
    ids = tuple(t.ids_of(np.array(seq)).tolist())
    star_id(ids)
    return ids


class StarTable:
    """All 1120 stars in canonical order, as a (1120, 6) id array and as tuples.

    ``ids_array`` is intp, so it indexes without a cast, and Fortran-ordered:
    ``ids_array.T`` is a C-contiguous (6, 1120) view whose row i holds every
    star's slot i.  The kernels gather and reduce slot by slot through it,
    since numpy reduces over a short first axis far faster than over a
    short last one.  The table is shared by the whole process, so
    ``ids_array`` and ``edge_star`` are read-only.

    Built with array operations from the 6720 disjoint pairs (A, B), A < B,
    of the pairing table: the hexagon is A, B, B - A - K and the Bertini
    images of those three.  Each star arises from its six edges; the row
    kept is in canonical form, from the smallest id A to its smaller
    neighbor B, so the rows come sorted.

    ``edge_star[a, b]`` is the row with a and b as hexagon neighbors, -1
    when a and b meet.  The constructor checks once that every row's Gram
    block is STAR_GRAM and every disjoint ordered pair an edge of exactly
    one row.  ``stars`` holds the rows as tuples of ints.

    ``partners``, read-only int16 (1120, 120), is built on first use by
    `asynchronized`, a block of rows at a time: row s holds the stars
    asynchronized with star s, ascending, exactly 120 (67200 pairs in all).
    """

    def __init__(self) -> None:
        t = curve_table()
        a, b = np.nonzero(np.triu(t.pairing_array == 0, 1))
        third = t.ids_of(t.coeff_array[b] - t.coeff_array[a] - _K)
        half = np.stack([a, b, third], axis=1)
        hexagons = np.hstack([half, t.bertini_ids[half]])
        keep = (hexagons[:, 0] == hexagons.min(axis=1)) & (
            hexagons[:, 1] < hexagons[:, 5]
        )
        rows = hexagons[keep]

        # each row must be a star and read back its own edges, which must
        # cover the disjoint ordered pairs: each is then an edge of one row
        tails = np.concatenate([rows, np.roll(rows, 1, axis=1)]).ravel()
        heads = np.concatenate([np.roll(rows, 1, axis=1), rows]).ravel()
        owner = np.tile(np.arange(len(rows)).repeat(6), 2)
        edge_star = np.full((240, 240), -1, dtype=np.int16)
        edge_star[tails, heads] = owner
        gram = t.pairing_array[rows[:, :, None], rows[:, None, :]]
        if (
            len(rows) != 1120
            or np.any(gram != STAR_GRAM)
            or np.any(edge_star[tails, heads] != owner)
            or np.any((edge_star >= 0) != (t.pairing_array == 0))
        ):
            raise CheckViolation("star table rows are not 1120 canonical hexagons")

        self.ids_array = np.asfortranarray(rows, dtype=np.intp)
        self.edge_star = edge_star
        self.ids_array.flags.writeable = False
        self.edge_star.flags.writeable = False

    @cached_property
    def stars(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.ids_array.tolist()))

    @cached_property
    def partners(self) -> np.ndarray:
        ids, rows = self.ids_array, []
        for lo in range(0, len(ids), 56):  # a (56, 6, 1120) int8 gather, 376 KB
            block = asynchronized(ids[lo : lo + 56], ids)
            if np.any(block.sum(axis=1) != 120):
                raise CheckViolation("a star without exactly 120 asynchronized partners")
            rows.append(np.nonzero(block)[1].astype(np.int16))
        partners = np.concatenate(rows).reshape(len(ids), 120)
        partners.flags.writeable = False
        return partners


@cache
def star_table() -> StarTable:
    return StarTable()


# ---------------------------------------------------------------------------
# pairwise interaction patterns

class PairType(enum.Enum):
    ASYNCHRONIZED = "asynchronized"
    SYNCHRONIZED = "synchronized"
    ABNORMAL = "abnormal"


# abnormal: hexagon slots 0 and 3 meet everything once; {1, 2} and {4, 5}
# meet their own side twice and the other side not at all
PATTERNS: dict[PairType, np.ndarray] = {
    PairType.ASYNCHRONIZED: np.ones((6, 6), dtype=np.int8),
    PairType.SYNCHRONIZED: _circulant((1, 2, 2, 1, 0, 0)),
    PairType.ABNORMAL: np.array([
        [1, 1, 1, 1, 1, 1],
        [1, 2, 2, 1, 0, 0],
        [1, 2, 2, 1, 0, 0],
        [1, 1, 1, 1, 1, 1],
        [1, 0, 0, 1, 2, 2],
        [1, 0, 0, 1, 2, 2],
    ], dtype=np.int8),
}


class PairClassification(Record):
    """A pair's type, and the orderings of its two stars that show it."""

    __slots__ = _fields = ("pair_type", "ordering_a", "ordering_b")


def classify_pair(a: tuple[int, ...], b: tuple[int, ...]) -> PairClassification:
    """Match a disjoint-support star pair against the three patterns.

    a and b are stars' curve ids in hexagon order, each checked by
    `star_id` (ValueError unless it is a star).  Tries all 144 hexagon
    relabelings of both stars against each pattern and checks that
    exactly one pattern is ever achieved.  Raises OverlappingStars when
    the supports meet: such pairs share a Bertini pair, their cross
    matrix contains a -1 and a 3, and no pattern can absorb that.
    """
    star_id(a)
    star_id(b)
    shared = frozenset(a) & frozenset(b)
    if shared:
        raise OverlappingStars(shared)
    cross = curve_table().pairing_array[np.ix_(a, b)].tolist()
    relabelings = D6.tolist()
    # the first (ra, rb) relabeling, in loop order, that achieves each pattern
    hits: dict[PairType, tuple[int, int]] = {}
    for ra, oa in enumerate(relabelings):
        for rb, ob in enumerate(relabelings):
            for ptype, pat in PATTERNS.items():
                if all(
                    cross[oa[i]][ob[j]] == pat[i, j]
                    for i in range(6)
                    for j in range(6)
                ):
                    hits.setdefault(ptype, (ra, rb))
    if len(hits) != 1:
        raise TrichotomyViolation(
            f"pair matched {sorted(t.value for t in hits)} patterns: "
            f"{star_text(a)} vs {star_text(b)}"
        )
    [(ptype, (ra, rb))] = hits.items()
    return PairClassification(
        ptype,
        tuple(a[i] for i in relabelings[ra]),
        tuple(b[i] for i in relabelings[rb]),
    )


# ---------------------------------------------------------------------------
# the pair kernel of the censuses
#
# A disjoint pair's 6x6 cross-pairing matrix has entries 0..2, so its
# cells read as one base-3 number.  The pair matches a pattern up to
# hexagon relabeling exactly when that number is the key of one of the
# pattern's D6 x D6 relabelings: the 144 relabelings classify_pair tries,
# computed once.

PAIR_TYPES = tuple(PairType)
# pair code of stars whose supports meet; code i < OVERLAPPING is PAIR_TYPES[i]
OVERLAPPING = len(PAIR_TYPES)
# the census keys, in pair-code order
PAIR_KINDS = tuple(p.value for p in PAIR_TYPES) + ("overlapping",)
_CELL_WEIGHTS = 3 ** np.arange(36, dtype=np.int64)


def pattern_key_table(
    patterns: dict[PairType, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted keys of every relabeling of each pattern, and each key's code.

    Raises TrichotomyViolation if two patterns share a key, since a pair
    with that matrix would match both.
    """
    owner: dict[int, int] = {}
    for code, ptype in enumerate(PAIR_TYPES):
        relabeled = patterns[ptype][D6[:, None, :, None], D6[None, :, None, :]]
        for key in (relabeled.reshape(-1, 36) @ _CELL_WEIGHTS).tolist():
            if owner.setdefault(key, code) != code:
                raise TrichotomyViolation(
                    f"patterns {PAIR_TYPES[owner[key]].value} and "
                    f"{ptype.value} share a relabeling"
                )
    keys = sorted(owner)
    return np.array(keys, dtype=np.int64), np.array([owner[k] for k in keys])


@cache
def pattern_keys() -> tuple[np.ndarray, np.ndarray]:
    return pattern_key_table(PATTERNS)


def pair_codes(a: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """Pair code of the star with curve ids a against each row of rest.

    a holds six curve ids and rest is (m, 6).  Raises TrichotomyViolation
    unless every pair whose supports meet shares exactly one Bertini pair
    and every other pair matches exactly one pattern.
    """
    t = curve_table()
    in_a = np.zeros(240, dtype=bool)
    in_a[a] = True
    shared = in_a[rest]
    over = shared.any(axis=1)
    if over.any():
        hit = shared[over]
        both = rest[over][hit]  # the shared ids, two per row if the pair is sound
        if np.any(hit.sum(axis=1) != 2) or np.any(
            t.bertini_ids[both[::2]] != both[1::2]
        ):
            raise TrichotomyViolation(
                "overlapping pair does not share exactly one Bertini pair"
            )
    cells = t.pairing_array[a][:, rest[~over]].transpose(1, 0, 2).reshape(-1, 36)
    table, table_codes = pattern_keys()
    keys = cells @ _CELL_WEIGHTS
    at = np.searchsorted(table, keys).clip(max=len(table) - 1)
    if cells.max(initial=0) > 2 or np.any(table[at] != keys):
        raise TrichotomyViolation("pair with disjoint supports matched no pattern")
    codes = np.full(len(rest), OVERLAPPING)
    codes[~over] = table_codes[at]
    return codes


def cross_ones(a: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """How many cross pairings of a star, or of each star of a block, with
    each row of rest equal 1.

    a is six curve ids, giving (m,) counts against the (m, 6) rest, or a
    (b, 6) block of stars, giving (b, m) counts.  The counts, at most 6 per
    curve and 36 per pair, are summed in int8, slot-first: ``rest.T``
    gathers (6, m) counts, reduced over their short first axis.
    """
    ones = (curve_table().pairing_array[a] == 1).sum(axis=-2, dtype=np.int8)
    return ones[..., rest.T].sum(axis=-2, dtype=np.int8)


def asynchronized(a: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """Whether a star, or each star of a block, is asynchronized with each row of rest.

    A pair is asynchronized exactly when all 36 of its `cross_ones` are 1.
    That pattern is the same under every relabeling, so none is tried, and
    a shared curve pairs -1 with itself, so overlapping pairs fail the
    test.  Unlike `pair_codes`, nothing else about the pairs is checked.
    """
    return cross_ones(a, rest) == 36


def pair_counts(ids) -> dict[str, int]:
    """How many unordered pairs of the stars with these curve ids are of each kind.

    ids is a sequence of six-id rows, one per star.  The keys are the three
    PairType values and "overlapping", in pair-code order, zeros included.
    """
    ids = np.asarray(ids, dtype=np.int64).reshape(-1, 6)
    counts = np.zeros(OVERLAPPING + 1, dtype=np.int64)
    for a in range(len(ids) - 1):
        counts += np.bincount(pair_codes(ids[a], ids[a + 1 :]), minlength=len(counts))
    return dict(zip(PAIR_KINDS, counts.tolist()))


def sample_pairs_by_type(per_type: int) -> dict[PairType, list]:
    """First per_type disjoint star pairs of each kind, in canonical order.

    Canonical order is that of combinations over star ids.
    """
    table = star_table()
    s = table.ids_array
    found: dict[PairType, list] = {p: [] for p in PairType}
    for a in range(len(s) - 1):
        codes = pair_codes(s[a], s[a + 1 :])
        for code, ptype in enumerate(PAIR_TYPES):
            need = per_type - len(found[ptype])
            for b in np.flatnonzero(codes == code)[:need].tolist():
                found[ptype].append((table.stars[a], table.stars[a + 1 + b]))
        if all(len(v) >= per_type for v in found.values()):
            break
    return found


# ---------------------------------------------------------------------------
# star versus outside curve

# row k < 6 is the touching profile anchored at k, its zeros at slots k and
# k + 1; the last row is the all-ones profile
PROFILE_SHAPES = np.array(
    [np.roll((0, 0, 1, 2, 2, 1), k) for k in range(6)] + [[1] * 6], dtype=np.int8
)
ALL_ONES = 6
NO_SHAPE = len(PROFILE_SHAPES)


def _profile_shapes(vecs: np.ndarray) -> np.ndarray:
    """The PROFILE_SHAPES row each slot-first (6, ...) profile equals, or NO_SHAPE."""
    # each match is built one slot at a time: no array is larger than a slot's
    shape = np.full(vecs.shape[1:], NO_SHAPE, dtype=np.int8)
    for s, row in enumerate(PROFILE_SHAPES.tolist()):
        match = vecs[0] == row[0]
        for i in range(1, 6):
            match &= vecs[i] == row[i]
        shape[match] = s
    return shape


def profile(a, star: tuple[int, ...]) -> int | None:
    """Where an outside curve touches a star's hexagon, or None if nowhere.

    The curve's pairings with the star, in the star's order, are one row of
    PROFILE_SHAPES: all ones gives None, and the touching profile
    (0,0,1,2,2,1) anchored at k gives k.  ValueError unless `star_id` reads a star.
    """
    star_id(star)
    cid = _resolve_curve_id(a)
    if cid in star:
        raise ValueError(f"curve {curve_table().curve(cid).name} lies on the star")
    vec = curve_table().pairing_array[list(star), cid]
    shape = int(_profile_shapes(vec))
    if shape == NO_SHAPE:
        raise TrichotomyViolation(
            f"profile {tuple(vec.tolist())} of curve {curve_table().curve(cid).name} "
            f"against {star_text(star)} fits neither shape"
        )
    return None if shape == ALL_ONES else shape


# ---------------------------------------------------------------------------
# group actions on stars

class ActionKind(enum.Enum):
    TRIVIAL = "trivial"
    FAITHFUL = "faithful"


class StarAction(Record):
    """An invariant star and how the group acts on it."""

    __slots__ = _fields = ("star", "kind")


def star_masks(perms: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which stars each permutation maps to itself, and which it fixes pointwise.

    perms is (k, 240) curve permutations of isometries and ids is (m, 6)
    star curve ids, table rows or ids `star_id` accepted; both masks are
    (k, m).  A star is mapped to itself when its first edge's image has
    its own ``edge_star`` row (a row whose first curves meet would pass).
    The images are gathered slot-first, (k, 6, m), through ``ids.T``.
    """
    edge_star = star_table().edge_star
    slots = ids.T
    images = perms[:, slots]
    setwise = edge_star[images[:, 0], images[:, 1]] == edge_star[slots[0], slots[1]]
    pointwise = (images == slots).all(axis=1)
    return setwise, pointwise


def _group(g: GroupLike) -> GroupSpec:
    """g itself if it is a GroupSpec; only a bare isometry, wrapped as the
    group it generates, loads the group layer, which list-stars never does."""
    if isinstance(g, LatticeIsometry):
        from .groups import as_group

        return as_group(g)
    return g


def invariant_curves(g: GroupLike) -> tuple[int, ...]:
    """Ids of curves fixed by every generator: the group's ``fixed_curves``."""
    return tuple(np.flatnonzero(_group(g).fixed_curves).tolist())


def invariant_stars(g: GroupLike) -> tuple[StarAction, ...]:
    """Setwise-invariant stars, flagged trivial (pointwise) or faithful."""
    table = star_table()
    setwise, pointwise = star_masks(_group(g).generator_perms, table.ids_array)
    pointwise = pointwise.all(axis=0)
    return tuple(
        StarAction(
            table.stars[sid],
            ActionKind.TRIVIAL if pointwise[sid] else ActionKind.FAITHFUL,
        )
        for sid in np.flatnonzero(setwise.all(axis=0))
    )


def split_invariant_stars(g: GroupLike) -> tuple[list, list]:
    """The invariant stars of g: those it fixes pointwise, those it rotates."""
    actions = invariant_stars(g)
    return tuple(
        [a.star for a in actions if a.kind is kind]
        for kind in (ActionKind.TRIVIAL, ActionKind.FAITHFUL)
    )


def star_plane(star: tuple[int, ...]) -> tuple[DivisorClass, DivisorClass]:
    """Two roots spanning the A2 plane of a star.

    H + K is a root for every member; opposite members give opposite
    roots, and members at hexagon distance two give roots a, b pairing to
    1, whose rotation s_a s_b of the plane shifts the hexagon by two.
    """
    t = curve_table()
    h0 = t.curve(star[0]).divisor
    h2 = t.curve(star[2]).divisor
    return (h0 + CANONICAL_CLASS, h2 + CANONICAL_CLASS)


# ---------------------------------------------------------------------------
# automorphisms of small weighted graphs of stars

def star_graph_automorphisms(stars) -> int:
    """Order of the weight-preserving symmetry group of a union of stars.

    Vertices are the curves of the given stars; the weight of an edge is
    the pairing.  Each row of ``maps`` is an injective, weight-preserving
    map of vertices 0..pos-1; every row is extended by every vertex whose
    weights to the row's images match those of vertex pos.  A level holds
    at most as many rows as an induced subgraph has symmetries (288 for
    two stars).
    """
    verts = sorted(set().union(*stars))
    n = len(verts)
    w = curve_table().pairing_array[np.ix_(verts, verts)]
    maps = np.zeros((1, 0), dtype=np.intp)
    for pos in range(n):
        rows = np.repeat(maps, n, axis=0)
        cand = np.tile(np.arange(n), len(maps))
        # an image already used pairs -1 with itself, and distinct curves
        # pair 0..3, so this test also keeps every map injective
        keep = (w[cand[:, None], rows] == w[pos, :pos]).all(axis=1)
        maps = np.column_stack([rows[keep], cand[keep]])
    return len(maps)


# ---------------------------------------------------------------------------
# whole-population sweeps

# Both censuses are cached and shared, so they return read-only mappings.

# the cross pairings equal to 1 of a pair of each code, in pair-code order:
# asynchronized, synchronized, abnormal, overlapping
CODE_ONES = (36, 12, 20, 8)


def star_orbit(perms: np.ndarray) -> np.ndarray:
    """Mask of the stars in the orbit of star 0 under the group that the
    rows of perms, curve permutations of isometries, generate.

    Breadth-first over star ids: the image of a star is the ``edge_star``
    row through the images of its first edge, since an isometry keeps the
    edge's curves disjoint neighbors.  Raises TrichotomyViolation when an
    image edge's curves meet, which no isometry's permutation does.
    """
    table = star_table()
    first, second = table.ids_array[:, 0], table.ids_array[:, 1]
    seen = np.zeros(len(first), dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        images = table.edge_star[perms[:, first[frontier]], perms[:, second[frontier]]]
        if images.min() < 0:
            raise TrichotomyViolation("a permutation maps a star edge to curves that meet")
        frontier = np.unique(images[~seen[images]])
        seen[frontier] = True
    return seen


@cache
def trichotomy_census() -> Mapping[str, int]:
    """pair_counts of every unordered pair of the 1120 stars, proved on one orbit.

    W(E8) preserves pairings and acts transitively on the stars, so every
    star meets the other 1119 as star 0 does, and the census is 1120 times
    star 0's counts over 2.  Star 0's 1119 pairs run through `pair_codes`,
    which raises on any trichotomy failure, and the same call proves the
    transitivity: the simple reflections move star 0 to every star
    (`star_orbit`).  A second route cross-checks the totals: the kind of
    each of the 626,640 pairs is read off its number of `cross_ones`
    (CODE_ONES), in blocks of 56 stars against all, with no 1120 x 1120
    array.  Raises TrichotomyViolation when the orbit is not all stars or
    the two routes disagree.
    """
    ids = star_table().ids_array
    n = len(ids)
    row = np.bincount(pair_codes(ids[0], ids[1:]), minlength=OVERLAPPING + 1)
    counts = n * row // 2
    reflections = np.array([reflection_permutation(r) for r in simple_roots()])
    if not star_orbit(reflections).all():
        raise TrichotomyViolation("the simple reflections do not move star 0 to every star")
    ones = np.zeros(37, dtype=np.int64)
    for lo in range(0, n, 56):  # a (56, 6, 1120) int8 gather, 376 KB
        ones += np.bincount(cross_ones(ids[lo : lo + 56], ids).ravel(), minlength=37)
    # each unordered pair is counted twice; a star against itself has no
    # cross pairing 1, and a pair of no kind would also land outside
    # CODE_ONES and break the equality
    if ones[list(CODE_ONES)].tolist() != (2 * counts).tolist():
        raise TrichotomyViolation(
            "the census of cross pairings equal to 1 disagrees with star 0's orbit"
        )
    return MappingProxyType(dict(zip(PAIR_KINDS, counts.tolist())))


@cache
def intersection_profile_census() -> Mapping[str, int]:
    """Count (outside curve, star) profiles as "all-ones" and "touching".

    Raises TrichotomyViolation unless every profile is all-ones or touching.
    """
    s = star_table().ids_array
    # (6, 1120, 240): pairing of each hexagon slot of each star with each curve
    shape = _profile_shapes(curve_table().pairing_array[s.T])
    # a member pairs -1 with itself, so the six members of a star fit no shape
    if np.count_nonzero(shape == NO_SHAPE) != s.size:
        raise TrichotomyViolation("outside curve with an unrecognized profile")
    return MappingProxyType({
        "all-ones": int(np.count_nonzero(shape == ALL_ONES)),
        "touching": int(np.count_nonzero(shape < ALL_ONES)),
    })
