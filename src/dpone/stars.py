"""Star configurations: hexagons of exceptional curves and their interplay.

A star is a set of six exceptional curves that can be arranged in a cycle
H_0, ..., H_5 with pairings 0, 2, 3 at cyclic distances 1, 2, 3; the
opposite curve H_{i+3} is always the Bertini partner -2K - H_i.  Any two
disjoint curves lie in exactly one common star, giving 1120 stars with
each curve on 28 of them.

Adding K to each member turns a star into a hexagon of E8 roots spanning
an A2 plane, which is how stars talk to the Weyl group: rotating the
plane rotates the star two steps.

Two stars with twelve distinct curves interact in exactly one of three
ways (asynchronized, synchronized, abnormal), recognized here by brute
force over hexagon relabelings.  Stars with overlapping supports share
exactly one Bertini pair and fit no pattern; `classify_pair` refuses
them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations

import numpy as np

from .curves import ExceptionalCurve, curve_table
from .lattice import (
    CANONICAL_CLASS,
    DivisorClass,
    GroupLike,
    LatticeIsometry,
    _generators_of,
)
from .weyl import rotation

# cyclic pairing pattern of a star: distances 1..3 pair to 0, 2, 3
STAR_PATTERN = (0, 2, 3)


class OverlappingStars(ValueError):
    """Raised when a pair operation needs disjoint supports but got overlap."""

    def __init__(self, shared: frozenset[int]):
        self.shared = shared
        names = ", ".join(curve_table().curve(i).name for i in sorted(shared))
        super().__init__(f"stars share curves {{{names}}}")


class TrichotomyViolation(RuntimeError):
    """Raised if a disjoint-support pair matches no interaction pattern."""


def _resolve_curve_id(c) -> int:
    table = curve_table()
    if isinstance(c, (int, np.integer)):
        if not 0 <= c < 240:
            raise ValueError(f"curve id out of range: {c}")
        return int(c)
    if isinstance(c, ExceptionalCurve):
        return c.id
    if isinstance(c, DivisorClass):
        return table.id_of(c)
    if isinstance(c, str):
        return table.id_of_name(c)
    raise TypeError(f"cannot interpret {c!r} as a curve")


def _d6_orderings(ids: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All 12 hexagon reorderings (rotations and reflections)."""
    out = []
    for k in range(6):
        out.append(tuple(ids[(i + k) % 6] for i in range(6)))
        out.append(tuple(ids[(k - i) % 6] for i in range(6)))
    return out


@dataclass(frozen=True, eq=False)
class StarConfiguration:
    """Six curve ids in hexagon order; equality ignores the labeling."""

    curve_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        ids = self.curve_ids
        if len(ids) != 6 or len(set(ids)) != 6:
            raise ValueError("a star needs six distinct curves")
        p = curve_table().pairing
        for i in range(6):
            for d in (1, 2, 3):
                if p[ids[i]][ids[(i + d) % 6]] != STAR_PATTERN[d - 1]:
                    raise ValueError("curves do not form a star in this order")

    @cached_property
    def canonical_key(self) -> tuple[int, ...]:
        return min(_d6_orderings(self.curve_ids))

    @cached_property
    def support(self) -> frozenset[int]:
        return frozenset(self.curve_ids)

    @property
    def curves(self) -> tuple[ExceptionalCurve, ...]:
        t = curve_table()
        return tuple(t.curve(i) for i in self.curve_ids)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.curves)

    def text(self) -> str:
        return "{" + ", ".join(self.names) + "}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StarConfiguration)
            and self.canonical_key == other.canonical_key
        )

    def __hash__(self) -> int:
        return hash(self.canonical_key)

    def __repr__(self) -> str:
        return f"Star{self.text()}"


def is_star(curves) -> bool:
    """Whether the six curves form a star in the given cyclic order."""
    try:
        StarConfiguration(tuple(_resolve_curve_id(c) for c in curves))
    except (ValueError, TypeError):
        return False
    return True


def star_through(a, b) -> StarConfiguration:
    """The unique star containing two disjoint curves as neighbors.

    With A, B the classes, the hexagon runs A, B, -K - A + B, -2K - A,
    -2K - B, -K + A - B.
    """
    t = curve_table()
    ia, ib = _resolve_curve_id(a), _resolve_curve_id(b)
    if t.pairing[ia][ib] != 0:
        raise ValueError(
            f"curves {t.curve(ia).name} and {t.curve(ib).name} are not disjoint"
        )
    k = CANONICAL_CLASS
    va, vb = t.curve(ia).divisor, t.curve(ib).divisor
    seq = (va, vb, -1 * k - va + vb, -2 * k - va, -2 * k - vb, -1 * k + va - vb)
    return StarConfiguration(tuple(t.id_of(d) for d in seq))


class StarTable:
    """All 1120 stars, indexed, with membership and support arrays."""

    def __init__(self) -> None:
        t = curve_table()
        seen: dict[tuple[int, ...], StarConfiguration] = {}
        for i in range(240):
            for j in t.disjoint[i]:
                if j > i:
                    s = star_through(i, j)
                    seen.setdefault(s.canonical_key, StarConfiguration(s.canonical_key))
        stars = [seen[k] for k in sorted(seen)]
        self.stars: tuple[StarConfiguration, ...] = tuple(stars)
        self.id_by_key: dict[tuple[int, ...], int] = {
            s.canonical_key: i for i, s in enumerate(stars)
        }
        self.ids_array = np.array([s.curve_ids for s in stars], dtype=np.int16)
        membership: list[list[int]] = [[] for _ in range(240)]
        for sid, s in enumerate(stars):
            for c in s.curve_ids:
                membership[c].append(sid)
        self.membership: tuple[tuple[int, ...], ...] = tuple(
            tuple(m) for m in membership
        )

    def star_id(self, s: StarConfiguration) -> int:
        return self.id_by_key[s.canonical_key]

    def star(self, sid: int) -> StarConfiguration:
        return self.stars[sid]

    def stars_containing(self, c) -> tuple[int, ...]:
        return self.membership[_resolve_curve_id(c)]


@cache
def star_table() -> StarTable:
    return StarTable()


def enumerate_stars() -> tuple[StarConfiguration, ...]:
    """All 1120 stars, deduplicated by canonical key, in key order."""
    return star_table().stars


# ---------------------------------------------------------------------------
# pairwise interaction patterns

class PairType(enum.Enum):
    ASYNCHRONIZED = "asynchronized"
    SYNCHRONIZED = "synchronized"
    ABNORMAL = "abnormal"


def _pattern_matrix(ptype: PairType) -> np.ndarray:
    m = np.zeros((6, 6), dtype=np.int8)
    if ptype is PairType.ASYNCHRONIZED:
        m[:] = 1
    elif ptype is PairType.SYNCHRONIZED:
        row = (1, 2, 2, 1, 0, 0)
        for i in range(6):
            for j in range(6):
                m[i, j] = row[(j - i) % 6]
    else:
        axis = {0, 3}
        low = {1, 2}
        for i in range(6):
            for j in range(6):
                if i in axis or j in axis:
                    m[i, j] = 1
                elif (i in low) == (j in low):
                    m[i, j] = 2
                else:
                    m[i, j] = 0
    return m


PATTERNS: dict[PairType, np.ndarray] = {p: _pattern_matrix(p) for p in PairType}


@dataclass(frozen=True)
class PairClassification:
    pair_type: PairType
    ordering_a: tuple[int, ...]
    ordering_b: tuple[int, ...]


def classify_pair(a: StarConfiguration, b: StarConfiguration) -> PairClassification:
    """Match a disjoint-support star pair against the three patterns.

    Tries all 144 hexagon relabelings of both stars against each pattern
    and checks that exactly one pattern is ever achieved.  Raises
    OverlappingStars when the supports meet: such pairs share a Bertini
    pair, their cross matrix contains a -1 and a 3, and no pattern can
    absorb that.
    """
    shared = a.support & b.support
    if shared:
        raise OverlappingStars(frozenset(shared))
    p = curve_table().pairing
    hits: dict[PairType, PairClassification] = {}
    for oa in _d6_orderings(a.curve_ids):
        for ob in _d6_orderings(b.curve_ids):
            for ptype, pat in PATTERNS.items():
                if all(
                    p[oa[i]][ob[j]] == pat[i, j]
                    for i in range(6)
                    for j in range(6)
                ):
                    hits.setdefault(ptype, PairClassification(ptype, oa, ob))
    if len(hits) != 1:
        raise TrichotomyViolation(
            f"pair matched {sorted(t.value for t in hits)} patterns: "
            f"{a.text()} vs {b.text()}"
        )
    return next(iter(hits.values()))


def sample_pairs_by_type(per_type: int) -> dict[PairType, list]:
    """First per_type disjoint star pairs of each kind, in canonical order."""
    stars = enumerate_stars()
    found: dict[PairType, list] = {p: [] for p in PairType}
    for a, b in combinations(range(len(stars)), 2):
        sa, sb = stars[a], stars[b]
        if sa.support & sb.support:
            continue
        ptype = classify_pair(sa, sb).pair_type
        if len(found[ptype]) < per_type:
            found[ptype].append((sa, sb))
        if all(len(v) >= per_type for v in found.values()):
            break
    return found


# ---------------------------------------------------------------------------
# star versus outside curve

class ProfileKind(enum.Enum):
    ALL_ONES = "all-ones"
    TOUCHING = "touching"


TOUCHING_BASE = (0, 0, 1, 2, 2, 1)


@dataclass(frozen=True)
class IntersectionProfile:
    kind: ProfileKind
    vector: tuple[int, ...]
    anchor: int | None = None


def profile(a, star: StarConfiguration) -> IntersectionProfile:
    """Pairing vector of an outside curve against a star's hexagon.

    The vector is (1,1,1,1,1,1) or a rotation of (0,0,1,2,2,1); the
    anchor is the rotation offset, so zeros sit at positions anchor and
    anchor + 1 of the star's own ordering.
    """
    cid = _resolve_curve_id(a)
    if cid in star.support:
        raise ValueError(f"curve {curve_table().curve(cid).name} lies on the star")
    p = curve_table().pairing
    vec = tuple(p[cid][h] for h in star.curve_ids)
    if all(v == 1 for v in vec):
        return IntersectionProfile(ProfileKind.ALL_ONES, vec)
    for k in range(6):
        if all(vec[(i + k) % 6] == TOUCHING_BASE[i] for i in range(6)):
            return IntersectionProfile(ProfileKind.TOUCHING, vec, anchor=k)
    raise TrichotomyViolation(
        f"profile {vec} of curve {curve_table().curve(cid).name} "
        f"against {star.text()} fits neither shape"
    )


# ---------------------------------------------------------------------------
# group actions on stars

class ActionKind(enum.Enum):
    TRIVIAL = "trivial"
    FAITHFUL = "faithful"


@dataclass(frozen=True)
class StarAction:
    star: StarConfiguration
    kind: ActionKind


def generator_permutations(g: GroupLike) -> np.ndarray:
    """Curve permutations of a group's generators, one row each."""
    t = curve_table()
    perms = [t.permutation_of(m) for m in _generators_of(g)]
    return np.array(perms, dtype=np.int16).reshape(len(perms), 240)


def star_masks(perms: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which stars each permutation maps to itself, and which it fixes pointwise.

    perms is (k, 240) curve permutations and ids is (m, 6) star curve ids;
    both masks are (k, m).
    """
    images = perms[:, ids]
    setwise = (np.sort(images, axis=2) == np.sort(ids, axis=1)).all(axis=2)
    pointwise = (images == ids).all(axis=2)
    return setwise, pointwise


def invariant_curves(g: GroupLike) -> tuple[int, ...]:
    """Ids of curves fixed by every generator."""
    fixed = (generator_permutations(g) == np.arange(240)).all(axis=0)
    return tuple(np.flatnonzero(fixed).tolist())


def star_actions(perms: np.ndarray) -> tuple[StarAction, ...]:
    """Stars invariant under every row of perms, flagged trivial or faithful."""
    table = star_table()
    setwise, pointwise = star_masks(perms, table.ids_array)
    pointwise = pointwise.all(axis=0)
    return tuple(
        StarAction(
            table.stars[sid],
            ActionKind.TRIVIAL if pointwise[sid] else ActionKind.FAITHFUL,
        )
        for sid in np.flatnonzero(setwise.all(axis=0))
    )


def invariant_stars(g: GroupLike) -> tuple[StarAction, ...]:
    """Setwise-invariant stars, flagged trivial (pointwise) or faithful."""
    return star_actions(generator_permutations(g))


def star_plane(star: StarConfiguration) -> tuple[DivisorClass, DivisorClass]:
    """Two roots spanning the A2 plane of a star.

    H + K is a root for every member; opposite members give opposite
    roots, and members at hexagon distance two give roots pairing to 1.
    """
    t = curve_table()
    h0 = t.curve(star.curve_ids[0]).divisor
    h2 = t.curve(star.curve_ids[2]).divisor
    return (h0 + CANONICAL_CLASS, h2 + CANONICAL_CLASS)


def star_rotation(star: StarConfiguration) -> LatticeIsometry:
    """Order-3 rotation of a star's A2 plane; shifts the hexagon by two."""
    a, b = star_plane(star)
    return rotation(a, b)


# ---------------------------------------------------------------------------
# automorphisms of small weighted graphs of stars

def star_graph_automorphisms(stars) -> int:
    """Order of the weight-preserving symmetry group of a union of stars.

    Vertices are the curves of the given stars; the weight of an edge is
    the pairing.  Counted by backtracking, so only meant for one or two
    stars at a time.
    """
    verts = sorted(set().union(*(s.support for s in stars)))
    n = len(verts)
    p = curve_table().pairing
    w = [[p[u][v] for v in verts] for u in verts]
    count = 0
    image: list[int] = []

    def rec(pos: int) -> None:
        nonlocal count
        if pos == n:
            count += 1
            return
        used = set(image)
        for cand in range(n):
            if cand in used:
                continue
            if all(w[pos][i] == w[cand][image[i]] for i in range(pos)):
                image.append(cand)
                rec(pos + 1)
                image.pop()

    rec(0)
    return count


# ---------------------------------------------------------------------------
# whole-population sweeps

@dataclass(frozen=True)
class TrichotomyCensus:
    total_pairs: int
    overlapping: int
    asynchronized: int
    synchronized: int
    abnormal: int


def _pattern_orbit_stack(ptype: PairType) -> np.ndarray:
    """Distinct relabelings of a pattern under independent hexagon symmetry."""
    pat = PATTERNS[ptype]
    perms = []
    for k in range(6):
        perms.append([(i + k) % 6 for i in range(6)])
        perms.append([(k - i) % 6 for i in range(6)])
    seen: dict[bytes, np.ndarray] = {}
    for pa in perms:
        for pb in perms:
            m = pat[np.ix_(pa, pb)]
            seen.setdefault(m.tobytes(), m)
    return np.stack(list(seen.values()))


@cache
def trichotomy_census() -> TrichotomyCensus:
    """Classify every unordered pair of distinct stars.

    Pairs with overlapping supports are checked to share exactly one
    Bertini pair; all others are required to match exactly one pattern
    up to relabeling (the stacked-orbit comparison below is the same 144
    relabelings classify_pair walks, precomputed once).  Any exception
    raises.
    """
    t = curve_table()
    table = star_table()
    p = t.pairing_array
    s = table.ids_array
    n = len(table.stars)
    bert = np.array(t.bertini_ids, dtype=np.int16)

    memb = np.zeros((n, 240), dtype=np.int16)
    memb[np.arange(n)[:, None], s] = 1
    shared_counts = memb @ memb.T

    orbit = {
        ptype: _pattern_orbit_stack(ptype)
        for ptype in (PairType.SYNCHRONIZED, PairType.ABNORMAL)
    }

    counts = {ptype: 0 for ptype in PairType}
    overlapping = 0
    for a in range(n - 1):
        rest = s[a + 1 :]
        cross = p[s[a]][:, rest.ravel()].reshape(6, n - a - 1, 6).transpose(1, 0, 2)
        c0 = (cross == 0).sum(axis=(1, 2))
        c1 = (cross == 1).sum(axis=(1, 2))
        c2 = (cross == 2).sum(axis=(1, 2))
        over = shared_counts[a, a + 1 :] > 0

        if np.any(shared_counts[a, a + 1 :][over] != 2):
            raise TrichotomyViolation(
                "overlapping pair shares more than one Bertini pair"
            )
        for b in np.nonzero(over)[0]:
            common = np.intersect1d(s[a], rest[b])
            if len(common) != 2 or bert[common[0]] != common[1]:
                raise TrichotomyViolation(
                    "overlapping pair does not share a Bertini pair"
                )
        overlapping += int(over.sum())

        masks = {
            PairType.ASYNCHRONIZED: (c1 == 36) & ~over,
            PairType.SYNCHRONIZED: (c0 == 12) & (c1 == 12) & (c2 == 12) & ~over,
            PairType.ABNORMAL: (c0 == 8) & (c1 == 20) & (c2 == 8) & ~over,
        }
        covered = over.copy()
        for ptype, mask in masks.items():
            if np.any(covered & mask):
                raise TrichotomyViolation("pair matched two patterns")
            covered |= mask
            counts[ptype] += int(mask.sum())
            if ptype in orbit and mask.any():
                cand = cross[mask]
                ok = (
                    (cand[:, None, :, :] == orbit[ptype][None])
                    .all(axis=(2, 3))
                    .any(axis=1)
                )
                if not ok.all():
                    raise TrichotomyViolation(
                        f"multiset suggested {ptype.value} but no relabeling matches"
                    )
        if not covered.all():
            raise TrichotomyViolation("pair with disjoint supports matched no pattern")

    return TrichotomyCensus(
        total_pairs=n * (n - 1) // 2,
        overlapping=overlapping,
        asynchronized=counts[PairType.ASYNCHRONIZED],
        synchronized=counts[PairType.SYNCHRONIZED],
        abnormal=counts[PairType.ABNORMAL],
    )


@dataclass(frozen=True)
class ProfileCensus:
    pairs_checked: int
    all_ones: int
    touching: int


@cache
def intersection_profile_census() -> ProfileCensus:
    """Check every (outside curve, star) profile is all-ones or touching."""
    table = star_table()
    t = curve_table()
    p = t.pairing_array
    s = table.ids_array
    n = len(table.stars)

    vecs = p[s]  # (n, 6, 240): pairing of each hexagon slot with each curve
    member = np.zeros((n, 240), dtype=bool)
    member[np.arange(n)[:, None], s] = True

    ones = (vecs == 1).all(axis=1)
    base = np.array(TOUCHING_BASE, dtype=np.int8)
    touching = np.zeros((n, 240), dtype=bool)
    for k in range(6):
        rot = np.roll(base, k)[None, :, None]
        touching |= (vecs == rot).all(axis=1)

    outside = ~member
    if np.any(ones & touching):
        raise TrichotomyViolation("profile matched both shapes")
    if not np.all(ones[outside] | touching[outside]):
        raise TrichotomyViolation("outside curve with an unrecognized profile")
    return ProfileCensus(
        pairs_checked=int(outside.sum()),
        all_ones=int((ones & outside).sum()),
        touching=int((touching & outside).sum()),
    )
