"""Rationality and minimality criteria with replayable certificates.

The setting: two commuting groups of isometries act on the lattice, G by
automorphisms of the surface and Gamma through the ground field.  "A
class is defined over the ground field" translates into "fixed by every
element of Gamma"; the rules below draw conclusions from the combinatorics
of fixed curves, invariant stars, and order-3 conjugacy classes.

Every check either returns None or a `Witness`: the group elements,
curve ids and stars (curve-id tuples in hexagon order) it found, any of
them empty.  Its subclass names the rule, and the matching replay_*
function re-checks it from scratch.  The rules are sufficient
conditions, so Inconclusive is an honest verdict.  Rational verdicts are
a lattice-level statement: the lattice cannot see rational points, so
they assume the surface has one where the geometric argument needs it.

The rules read stars as rows of the star table and test star pairs with
`stars.asynchronized`, which counts cross pairings equal to 1.  The
replays take no star on trust: each must be distinct and pass `star_id`,
and star pairs are re-checked with `classify_pair`.
Both order-3 rules take the first closure element of class A2^3 or A2^4,
typed by `weyl.carter_types`; a 9x9 matrix is built only for a witness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

import numpy as np

from .curves import curve_table
from .lattice import (
    CANONICAL_CLASS,
    CheckViolation,
    GroupSpec,
    LatticeIsometry,
    TRIVIAL_GROUP,
    fixed_rank,
    pair,
    permutation_orders,
)
from .stars import (
    PairType,
    asynchronized,
    classify_pair,
    invariant_curves,
    star_id,
    star_masks,
    star_plane,
    star_table,
)
from .weyl import CarterType3, carter_types, reflection_permutation

RATIONAL_CAVEAT = (
    "lattice-level verdict: assumes the surface has a suitable rational point, "
    "which the lattice cannot see"
)


class CertificateViolation(CheckViolation):
    """A certificate was found whose direct re-verification failed."""


@dataclass(frozen=True)
class ActionSetup:
    """Commuting pair of groups acting on the lattice."""

    g_group: GroupSpec
    gamma_group: GroupSpec

    def __post_init__(self) -> None:
        # W(E8) acts faithfully on the curves, so two elements commute
        # exactly when their curve permutations do
        if not (self.g_group.generators and self.gamma_group.generators):
            return
        gamma = self.gamma_group.generator_perms
        for a in self.g_group.generator_perms:
            if (a[gamma] != gamma[:, a]).any():
                raise ValueError("g_group and gamma_group do not commute")

    @cached_property
    def combined(self) -> GroupSpec:
        """The group both generate; a side with no generators adds nothing."""
        if not self.g_group.generators:
            return self.gamma_group
        if not self.gamma_group.generators:
            return self.g_group
        return GroupSpec(
            self.g_group.generators + self.gamma_group.generators,
            label="combined",
        )


# ---------------------------------------------------------------------------
# witnesses

@dataclass(frozen=True)
class Witness:
    """What a rule found: group elements, curve ids and stars."""

    elements: tuple[LatticeIsometry, ...] = ()
    curves: tuple[int, ...] = ()
    stars: tuple[tuple[int, ...], ...] = ()


# one subclass per rule, naming the replay that checks it
class CarterWitness(Witness):
    """One order-3 element of class A2^3 or A2^4."""


class StarsWitness(Witness):
    """One order-3 element and three stars it acts on faithfully."""


class EvenWitness(Witness):
    """One even-order element and a star it flips antipodally."""


class TripleWitness(Witness):
    """Three fixed curves A, B, C with A.B = B.C = 1 and A.C = 0."""


class TwoStarsWitness(Witness):
    """Two pointwise-fixed asynchronized stars."""


@dataclass(frozen=True)
class MinimalityCertificate:
    stars: tuple[tuple[int, ...], ...]
    elements: tuple[LatticeIsometry, ...]
    combined_rank: int


# ---------------------------------------------------------------------------
# not-rational rules

# the order-3 classes with at least three faithful stars: A2^3 and A2^4
# have 12 and 40, A2 and A2^2 only 1 and 2
_MANY_FAITHFUL = (CarterType3.A2x3, CarterType3.A2x4)


def _first_many_faithful(gamma: GroupSpec) -> int | None:
    """Closure index of the first order-3 element of class A2^3 or A2^4."""
    order3 = gamma.of_order(3)
    types = carter_types(gamma.perms[order3])
    return next((int(i) for i, t in zip(order3, types) if t in _MANY_FAITHFUL), None)


def check_not_rational_carter(gamma: GroupSpec) -> CarterWitness | None:
    """An order-3 element of class A2^3 or A2^4 in the closure."""
    i = _first_many_faithful(gamma)
    return None if i is None else CarterWitness((gamma.element(i),))


def _faithful(perms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(k, m) mask: permutation k maps star row m to itself and moves a curve."""
    setwise, pointwise = star_masks(perms, rows)
    return setwise & ~pointwise


def check_not_rational_stars(gamma: GroupSpec) -> StarsWitness | None:
    """An order-3 element acting faithfully on three invariant stars (lowest ids).

    It is the Carter rule's element, and this rule runs after it, so it
    never decides a report.
    """
    i = _first_many_faithful(gamma)
    if i is None:
        return None
    table = star_table()
    hits = np.flatnonzero(_faithful(gamma.perms[i][None], table.ids_array)[0])
    stars = tuple(table.stars[h] for h in hits[:3].tolist())
    return StarsWitness((gamma.element(i),), stars=stars)


def _antipodal(perm: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(m,) mask: a curve permutation acts on star row m as the antipode.

    Pairing 3 with the image forces H -> H_{i+3} on every member, the
    Bertini flip of the hexagon (only a Bertini pair pairs to 3), so such
    a star is invariant.
    """
    return (curve_table().pairing_array[rows, perm[rows]] == 3).all(axis=1)


def check_not_rational_even(gamma: GroupSpec) -> EvenWitness | None:
    """An even-order element acting on an invariant star as the antipode."""
    for i in np.flatnonzero(gamma.orders % 2 == 0):
        hits = np.flatnonzero(_antipodal(gamma.perms[i], star_table().ids_array))
        if len(hits):
            star = star_table().stars[hits[0]]
            return EvenWitness((gamma.element(i),), stars=(star,))
    return None


# ---------------------------------------------------------------------------
# rational rules

def check_rational_triple(gamma: GroupSpec) -> TripleWitness | None:
    """Fixed curves A, B, C with A.B = B.C = 1 and A.C = 0.

    The sum D = A + B + C then has D^2 = 1 and D.K = -3, the shape of a
    plane model; both equalities are re-checked on the found triple.
    """
    inv = invariant_curves(gamma)
    p = curve_table().pairing_array[np.ix_(inv, inv)].tolist()
    for i, a in enumerate(inv):
        for j, b in enumerate(inv):
            if p[i][j] != 1:
                continue
            for k, c in enumerate(inv):
                if c > a and p[j][k] == 1 and p[i][k] == 0:
                    witness = TripleWitness(curves=(a, b, c))
                    _verify_triple_sum(witness)
                    return witness
    return None


def _verify_triple_sum(w: TripleWitness) -> None:
    t = curve_table()
    d = sum((t.curve(i).divisor for i in w.curves[1:]), t.curve(w.curves[0]).divisor)
    if pair(d, d) != 1 or pair(d, CANONICAL_CLASS) != -3:
        raise CertificateViolation(f"triple sum fails the plane-model check: {w}")


def check_rational_two_stars(gamma: GroupSpec) -> TwoStarsWitness | None:
    """Two pointwise-fixed stars that are asynchronized.

    The pointwise-fixed stars are the table rows whose six curves are all
    fixed.  Scans their pairs in combinations order over star ids and
    returns the first that is asynchronized (all 36 cross pairings 1).
    """
    table = star_table()
    fixed = np.flatnonzero(gamma.fixed_curves[table.ids_array].all(axis=1))
    rows = table.ids_array[fixed]
    for i in range(len(rows) - 1):
        hits = np.flatnonzero(asynchronized(rows[i], rows[i + 1 :]))
        if len(hits):
            a, b = fixed[[i, i + 1 + hits[0]]].tolist()
            return TwoStarsWitness(stars=(table.stars[a], table.stars[b]))
    return None


# ---------------------------------------------------------------------------
# minimality

def search_commuting_order3(
    g: LatticeIsometry, faithful_on
) -> LatticeIsometry:
    """Find an order-3 isometry commuting with g, faithful on given stars.

    Candidates are products of plane rotations of the requested stars
    (exponents 1 and 2); a rotation of a star whose curves g fixes
    commutes with g automatically, but every condition is checked rather
    than assumed.  The search runs on curve permutations; only the hit
    becomes a matrix.  Raises ValueError unless each requested star passes
    `star_id`.
    """
    stars = list(faithful_on)
    if not stars:
        raise ValueError("need at least one star to act on")
    for s in stars:
        star_id(s)
    t = curve_table()
    g_perm = t.permutation_of(g)
    planes = map(star_plane, stars)
    rotations = [reflection_permutation(a)[reflection_permutation(b)] for a, b in planes]
    for exps in product((1, 2), repeat=len(stars)):
        h = np.arange(240, dtype=np.int16)
        for r, e in zip(rotations, exps):
            for _ in range(e):
                h = h[r]
        if not np.array_equal(h[g_perm], g_perm[h]):
            continue
        if permutation_orders(h[None])[0] != 3:
            continue
        if _faithful(h[None], np.array(stars)).all():
            return t.isometry_of(h)
    raise ValueError("no commuting order-3 element found over the star planes")


def _first_four_clique(asynchronized: np.ndarray) -> list[int] | None:
    """The least sorted index 4-tuple whose pairs (i, j), i < j, are all True.

    Reads the (n, n) mask only at i < j.  Sorted cliques grow one index at
    a time, each row by every larger index that is True against all its
    members, in (row, index) order, so each level is in lexicographic
    order and the first row at size 4 is the least.
    """
    n = len(asynchronized)
    cliques = np.arange(n)[:, None]
    for _ in range(3):
        rows, j = np.nonzero(np.arange(n) > cliques[:, -1:])
        keep = asynchronized[cliques[rows], j[:, None]].all(axis=1)
        cliques = np.column_stack([cliques[rows[keep]], j[keep]])
    return cliques[0].tolist() if len(cliques) else None


def check_minimal_four_stars(setup: ActionSetup) -> MinimalityCertificate | None:
    """Four pairwise-asynchronized invariant stars, each rotated by G.

    Stars must be setwise invariant under the combined group; each needs
    an order-3 element of G acting faithfully on it, so a G with no
    generators has none.  The search tests each pair of candidates once
    for being asynchronized and takes the least clique of candidate
    indices; the A2^4 representative has 40 candidates and 240, 160 and
    40 cliques of sizes 2, 3 and 4.  When the clique exists the fixed rank
    of the combined group, computed from its generators, must equal 1.
    """
    g = setup.g_group
    if not g.generators:
        return None
    order3 = g.of_order(3)
    if not len(order3):
        return None
    table = star_table()
    setwise, _ = star_masks(setup.combined.generator_perms, table.ids_array)
    invariant = np.flatnonzero(setwise.all(axis=0))
    faithful = _faithful(g.perms[order3], table.ids_array[invariant])
    rotated = faithful.any(axis=0)
    candidates = invariant[rotated]
    # each star takes the first order-3 element, in closure order, that rotates it
    rotator = order3[faithful[:, rotated].argmax(axis=0)]
    rows = table.ids_array[candidates]
    n = len(rows)
    pairs = np.zeros((n, n), dtype=bool)  # filled and read for i < j only
    for i in range(n - 1):
        pairs[i, i + 1 :] = asynchronized(rows[i], rows[i + 1 :])

    chosen = _first_four_clique(pairs)
    if chosen is None:
        return None
    stars = tuple(table.stars[candidates[i]] for i in chosen)
    elements = tuple(g.element(int(rotator[i])) for i in chosen)
    rank = fixed_rank(setup.combined)
    if rank != 1:
        raise CertificateViolation(
            f"four-star certificate found but combined fixed rank is {rank}"
        )
    return MinimalityCertificate(stars, elements, rank)


# ---------------------------------------------------------------------------
# replay

def replay_carter(gamma: GroupSpec, w: CarterWitness) -> bool:
    if len(w.elements) != 1:
        return False
    (m,) = w.elements
    i = gamma.index_of(m)
    if i is None or gamma.orders[i] != 3:
        return False
    return fixed_rank(m) in {t.fixed_rank for t in _MANY_FAITHFUL}


def _distinct_stars(stars, n: int) -> bool:
    """Whether stars are n different stars, each a star in its own order."""
    try:
        return len(stars) == len({star_id(s) for s in stars}) == n
    except ValueError:
        return False


def replay_stars(gamma: GroupSpec, w: StarsWitness) -> bool:
    if len(w.elements) != 1:
        return False
    (m,) = w.elements
    i = gamma.index_of(m)
    if i is None or gamma.orders[i] != 3 or not _distinct_stars(w.stars, 3):
        return False
    return bool(_faithful(gamma.perms[i][None], np.array(w.stars)).all())


def replay_even(gamma: GroupSpec, w: EvenWitness) -> bool:
    if len(w.elements) != 1:
        return False
    (m,) = w.elements
    i = gamma.index_of(m)
    if i is None or gamma.orders[i] % 2 != 0 or not _distinct_stars(w.stars, 1):
        return False
    return bool(_antipodal(gamma.perms[i], np.array(w.stars))[0])


def _all_fixed(gamma: GroupSpec, ids) -> bool:
    """Whether ids are curve ids, each fixed by every generator of gamma."""
    ids = list(ids)
    if not all(isinstance(c, (int, np.integer)) and 0 <= c < 240 for c in ids):
        return False
    return bool(gamma.fixed_curves[ids].all())


def replay_triple(gamma: GroupSpec, w: TripleWitness) -> bool:
    if len(w.curves) != 3 or not _all_fixed(gamma, w.curves):
        return False
    a, b, c = w.curves
    p = curve_table().pairing_array
    if not (p[a, b] == 1 and p[b, c] == 1 and p[a, c] == 0):
        return False
    _verify_triple_sum(w)
    return True


def replay_two_stars(gamma: GroupSpec, w: TwoStarsWitness) -> bool:
    if not _distinct_stars(w.stars, 2):
        return False
    a, b = w.stars
    if not _all_fixed(gamma, a + b):
        return False
    return classify_pair(a, b).pair_type is PairType.ASYNCHRONIZED


def replay_minimality(setup: ActionSetup, cert: MinimalityCertificate) -> bool:
    if not _distinct_stars(cert.stars, 4) or len(cert.elements) != 4:
        return False
    g = setup.g_group
    combined = setup.combined.generator_perms
    for s, m in zip(cert.stars, cert.elements):
        i = g.index_of(m)
        if i is None or g.orders[i] != 3:
            return False
        setwise, _ = star_masks(combined, np.array([s]))
        if not setwise.all():
            return False
        if not _faithful(g.perms[i][None], np.array([s])).all():
            return False
    for a, b in combinations(cert.stars, 2):
        if classify_pair(a, b).pair_type is not PairType.ASYNCHRONIZED:
            return False
    return fixed_rank(setup.combined) == 1 == cert.combined_rank


# ---------------------------------------------------------------------------
# the report

class Verdict(enum.Enum):
    RATIONAL = "Rational"
    NOT_RATIONAL = "NotRational"
    INCONCLUSIVE = "Inconclusive"


RULES = (
    ("rational_two_stars", Verdict.RATIONAL, check_rational_two_stars),
    ("rational_triple", Verdict.RATIONAL, check_rational_triple),
    ("not_rational_carter", Verdict.NOT_RATIONAL, check_not_rational_carter),
    ("not_rational_stars", Verdict.NOT_RATIONAL, check_not_rational_stars),
    ("not_rational_even", Verdict.NOT_RATIONAL, check_not_rational_even),
)


@dataclass(frozen=True)
class RationalityVerdict:
    verdict: Verdict
    rule: str | None
    witness: Witness | None
    ranks: dict[str, int]
    minimality: MinimalityCertificate | None
    caveat: str | None


def rationality_report(setup: ActionSetup) -> RationalityVerdict:
    """Run the decision rules in fixed order and report the first hit.

    Every rule reads the closure cached on ``setup.gamma_group``, so Gamma
    is closed at most once, and only if a rule needs more than its
    generators.  Rational rules run first because their witnesses are
    cheap to check; the verdict also carries the fixed ranks of G, Gamma
    and the combined group, each computed once per group, and a
    minimality certificate when one exists.
    """
    verdict, rule, witness = Verdict.INCONCLUSIVE, None, None
    for name, v, checker in RULES:
        w = checker(setup.gamma_group)
        if w is not None:
            verdict, rule, witness = v, name, w
            break
    ranks = {
        "G": fixed_rank(setup.g_group),
        "Gamma": fixed_rank(setup.gamma_group),
        "combined": fixed_rank(setup.combined),
    }
    minimality = check_minimal_four_stars(setup)
    caveat = RATIONAL_CAVEAT if verdict is Verdict.RATIONAL else None
    return RationalityVerdict(verdict, rule, witness, ranks, minimality, caveat)


def gamma_report(gamma: GroupSpec) -> RationalityVerdict:
    """Report for a Galois image acting alone (G trivial)."""
    return rationality_report(ActionSetup(TRIVIAL_GROUP, gamma))
