"""Rationality and minimality criteria with replayable certificates.

The setting: two commuting groups of isometries act on the lattice, G by
automorphisms of the surface and Gamma through the ground field.  "A
class is defined over the ground field" translates into "fixed by every
element of Gamma"; the rules below draw conclusions from the combinatorics
of fixed curves, invariant stars, and order-3 conjugacy classes.

Every check either returns None or a `Witness`: the group elements,
curve ids and stars (curve-id tuples in hexagon order) it found, any of
them empty.  An element is the bytes of its int16 closure row
(`GroupSpec.element`), and becomes a 9x9 matrix, by `element_isometry`,
only to be printed or replayed.  Its subclass names the rule, and the
matching replay_* function re-checks it from scratch: an element's
order comes from its own row, not from the group's cached orders.  The
rules are sufficient conditions, so Inconclusive is an honest verdict.
Rational verdicts are a lattice-level statement: the lattice cannot see
rational points, so they assume the surface has one where the geometric
argument needs it.

The rules read stars as rows of the star table, and asynchronized star
pairs off its ``partners`` or with `stars.asynchronized`.  The scans
test many candidates per numpy call in the order a one-at-a-time loop
would, so each finds that loop's first hit: the two-stars rule looks up
doubling blocks of stars, the even rule counts Bertini flips before any
star test, and the four-star search tests all its pairs at once.  The
replays take no star on trust: each is read once, by `star_id`, into its
table row, the rows must be distinct, and the replays test their masks
on those rows; star pairs are re-checked with `classify_pair`.
Both order-3 rules take the first closure element of class A2^3 or A2^4,
typed by `weyl.carter_types` once per group (`GroupSpec.order3_types`);
no rule builds a 9x9 matrix.
"""

from __future__ import annotations

import enum
from functools import cached_property
from itertools import combinations, product

import numpy as np

from .curves import curve_table
from .groups import TRIVIAL_GROUP, GroupSpec, eliminated_rank
from .lattice import (
    CANONICAL_CLASS, CheckViolation, LatticeIsometry, Record, cycle_order, fixed_rank, pair,
)
from .stars import (
    PairType,
    asynchronized,
    classify_pair,
    is_curve_id,
    star_id,
    star_masks,
    star_plane,
    star_table,
)
from .weyl import CarterType3, reflection_permutation

RATIONAL_CAVEAT = (
    "lattice-level verdict: assumes the surface has a suitable rational point, "
    "which the lattice cannot see"
)


class CertificateViolation(CheckViolation):
    """A certificate was found whose direct re-verification failed."""


class ActionSetup(Record):
    """Commuting pair of groups acting on the lattice."""

    _fields = ("g_group", "gamma_group")  # no __slots__: cached_property needs a __dict__

    def __init__(self, g_group: GroupSpec, gamma_group: GroupSpec) -> None:
        super().__init__(g_group, gamma_group)
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

class Witness(Record):
    """What a rule found: group elements, curve ids and stars, each a tuple."""

    __slots__ = _fields = ("elements", "curves", "stars")

    def __init__(self, elements: tuple = (), curves: tuple = (), stars: tuple = ()) -> None:
        super().__init__(tuple(elements), tuple(curves), tuple(stars))


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


class MinimalityCertificate(Record):
    __slots__ = _fields = ("stars", "elements", "combined_rank")

    def __init__(self, stars: tuple, elements: tuple, combined_rank: int) -> None:
        super().__init__(tuple(stars), tuple(elements), combined_rank)


def element_isometry(element: bytes) -> LatticeIsometry:
    """The validated 9x9 matrix of a witness or certificate element."""
    return curve_table().isometry_of(np.frombuffer(element, np.int16))


# ---------------------------------------------------------------------------
# not-rational rules

# the order-3 classes with at least three faithful stars: A2^3 and A2^4
# have 12 and 40, A2 and A2^2 only 1 and 2
_MANY_FAITHFUL = (CarterType3.A2x3, CarterType3.A2x4)


def _first_many_faithful(gamma: GroupSpec) -> int | None:
    """Closure index of the first order-3 element of class A2^3 or A2^4.

    The elements are typed once per group, in ``gamma.order3_types``, so
    the stars rule reads the Carter rule's typing.
    """
    pairs = zip(gamma.of_order(3).tolist(), gamma.order3_types)
    return next((i for i, t in pairs if t in _MANY_FAITHFUL), None)


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


def _flipped_stars(flipped: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(m,) mask: an element acts on star row m as the antipode.

    flipped is the element's (240,) mask of curves sent to their Bertini
    partners, the curves they pair to 3 with (E + E' = -2K).  The antipode
    sends every member H_i to H_{i+3}, its partner, so the star is
    invariant.  The rows are read slot-first, through ``rows.T``.
    """
    return flipped[rows.T].all(axis=0)


def check_not_rational_even(gamma: GroupSpec) -> EvenWitness | None:
    """An even-order element acting on an invariant star as the antipode.

    Takes the first such element in closure order and its first such
    star.  One comparison gives every even element's mask of Bertini
    flips.  An element flips a star only if it flips its six curves, so
    only those with six or more get the star test, on their own mask.
    """
    even = np.flatnonzero(gamma.orders % 2 == 0)
    flipped = gamma.perms[even] == curve_table().bertini_ids
    for k in np.flatnonzero(flipped.sum(axis=1) >= 6):
        hits = np.flatnonzero(_flipped_stars(flipped[k], star_table().ids_array))
        if len(hits):
            star = star_table().stars[hits[0]]
            return EvenWitness((gamma.element(even[k]),), stars=(star,))
    return None


# ---------------------------------------------------------------------------
# rational rules

def check_rational_triple(gamma: GroupSpec) -> TripleWitness | None:
    """Fixed curves A, B, C with A.B = B.C = 1 and A.C = 0.

    The sum D = A + B + C then has D^2 = 1 and D.K = -3, the shape of a
    plane model; both equalities are re-checked on the found triple.
    """
    ids = np.flatnonzero(gamma.fixed_curves)
    inv = ids.tolist()
    p = curve_table().pairing_array[ids[:, None], ids].tolist()
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


def _first_asynchronized(fixed: np.ndarray, mask: np.ndarray) -> tuple[int, int] | None:
    """The first asynchronized pair of star ids (a, b), a < b, in combinations order.

    fixed holds ascending star ids and mask is their (1120,) mask.  Looks
    up blocks of 1, 2, 4, ... ids as ``mask[partners[block]]`` and takes
    a block's first hit in row-major order, so k ids take at most
    ceil(log2 k) lookups.  That hit (a, b) is the first pair: a is the
    least id with a partner in fixed, and b its least one, since partner
    rows ascend.  And b > a: a star is not its own partner and, partners
    being symmetric, a partner b < a would have given b a hit first.
    Fewer than two ids need no lookup, so they leave the table unbuilt.
    """
    if len(fixed) < 2:
        return None
    partners = star_table().partners
    lo, size = 0, 1
    while lo < len(fixed) - 1:
        block = mask[partners[fixed[lo : lo + size]]]
        hit = int(block.argmax())
        if block.flat[hit]:
            i, j = divmod(hit, block.shape[1])
            return int(fixed[lo + i]), int(partners[fixed[lo + i], j])
        lo, size = lo + size, 2 * size
    return None


def check_rational_two_stars(gamma: GroupSpec) -> TwoStarsWitness | None:
    """Two pointwise-fixed stars that are asynchronized.

    The pointwise-fixed stars are the table rows whose six curves are all
    fixed, read slot by slot.  Returns the first of their pairs, in
    combinations order over star ids, that is asynchronized (all 36 cross
    pairings 1), read off the star table's ``partners``.
    """
    table = star_table()
    mask = gamma.fixed_curves[table.ids_array.T].all(axis=0)
    found = _first_asynchronized(np.flatnonzero(mask), mask)
    if found is None:
        return None
    return TwoStarsWitness(stars=tuple(table.stars[s] for s in found))


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
    becomes a matrix.  Raises ValueError unless each requested star, read
    once into a tuple, passes `star_id`.
    """
    stars = [tuple(s) for s in faithful_on]
    if not stars:
        raise ValueError("need at least one star to act on")
    rows = star_table().ids_array[[star_id(s) for s in stars]]
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
        if cycle_order(h.tolist()) != 3:
            continue
        if _faithful(h[None], rows).all():
            return t.isometry_of(h)
    raise ValueError("no commuting order-3 element found over the star planes")


def _first_four_clique(asynchronized: np.ndarray) -> list[int] | None:
    """The least sorted index 4-tuple whose pairs (i, j), i < j, are all True.

    Reads the (n, n) mask only at i < j.  For i ascending, its later
    neighbours N_i; for each j in N_i, the later members of N_i that j
    meets; for each such k, the least later one that k meets too.  The
    first l found closes the least clique, so the search stops at the
    first hit and never lists the cliques of a dense mask; with n < 4
    there is no i to take.
    """
    n = len(asynchronized)
    for i in range(n - 3):
        later_i = i + 1 + np.flatnonzero(asynchronized[i, i + 1 :])
        for p, j in enumerate(later_i.tolist()):
            common = later_i[p + 1 :]
            common = common[asynchronized[j, common]]
            for q, k in enumerate(common.tolist()):
                last = common[q + 1 :]
                hits = last[asynchronized[k, last]]
                if len(hits):
                    return [i, j, k, int(hits[0])]
    return None


def check_minimal_four_stars(setup: ActionSetup) -> MinimalityCertificate | None:
    """Four pairwise-asynchronized invariant stars, each rotated by G.

    Stars must be setwise invariant under the combined group; each needs
    an order-3 element of G acting faithfully on it, so a G with no
    generators has none.  The search tests every pair of candidates in
    one `asynchronized` call and takes the least clique of candidate
    indices; the A2^4 representative has 40 candidates and 240, 160 and
    40 cliques of sizes 2, 3 and 4.  When the clique exists the fixed rank
    of the combined group must equal 1: its average trace when the
    combined group is G itself, whose closure the search holds, and
    otherwise the route `fixed_rank` takes on its generators.
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
    chosen = _first_four_clique(asynchronized(rows, rows))
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

def _witness_row(g: GroupSpec, elements) -> np.ndarray | None:
    """The closure row of a witness's one element, given as row bytes, or None."""
    if len(elements) != 1 or not isinstance(elements[0], bytes):
        return None
    i = g.index_of(elements[0])
    return None if i is None else g.perms[i]


def replay_carter(gamma: GroupSpec, w: CarterWitness) -> bool:
    row = _witness_row(gamma, w.elements)
    if row is None or cycle_order(row.tolist()) != 3:
        return False
    # the rank is eliminated on the validated matrix
    rank = eliminated_rank((element_isometry(row.tobytes()),))
    return rank in {t.fixed_rank for t in _MANY_FAITHFUL}


def _star_rows(stars, n: int) -> np.ndarray | None:
    """The table rows of n different stars, each read once by `star_id`
    in its own order, or None."""
    try:
        ids = [star_id(s) for s in stars]
    except ValueError:
        return None
    if len(ids) != n or len(set(ids)) != n:
        return None
    return star_table().ids_array[ids]


def replay_stars(gamma: GroupSpec, w: StarsWitness) -> bool:
    row, rows = _witness_row(gamma, w.elements), _star_rows(w.stars, 3)
    if row is None or rows is None or cycle_order(row.tolist()) != 3:
        return False
    return bool(_faithful(row[None], rows).all())


def replay_even(gamma: GroupSpec, w: EvenWitness) -> bool:
    row, rows = _witness_row(gamma, w.elements), _star_rows(w.stars, 1)
    if row is None or rows is None or cycle_order(row.tolist()) % 2 != 0:
        return False
    flipped = row == curve_table().bertini_ids
    return bool(_flipped_stars(flipped, rows)[0])


def replay_triple(gamma: GroupSpec, w: TripleWitness) -> bool:
    if len(w.curves) != 3 or not all(map(is_curve_id, w.curves)):
        return False
    a, b, c = w.curves
    p = curve_table().pairing_array
    if not gamma.fixed_curves[[a, b, c]].all():
        return False
    if not (p[a, b] == 1 and p[b, c] == 1 and p[a, c] == 0):
        return False
    _verify_triple_sum(w)
    return True


def replay_two_stars(gamma: GroupSpec, w: TwoStarsWitness) -> bool:
    rows = _star_rows(w.stars, 2)
    if rows is None or not gamma.fixed_curves[rows].all():
        return False
    return classify_pair(*rows).pair_type is PairType.ASYNCHRONIZED


def replay_minimality(setup: ActionSetup, cert: MinimalityCertificate) -> bool:
    rows = _star_rows(cert.stars, 4)
    if rows is None or len(cert.elements) != 4:
        return False
    perms = [_witness_row(setup.g_group, (m,)) for m in cert.elements]
    if any(p is None or cycle_order(p.tolist()) != 3 for p in perms):
        return False
    setwise, _ = star_masks(setup.combined.generator_perms, rows)
    # element i must rotate star i: the diagonal of the (4, 4) faithful mask
    if not (setwise.all() and _faithful(np.stack(perms), rows).diagonal().all()):
        return False
    for a, b in combinations(rows, 2):
        if classify_pair(a, b).pair_type is not PairType.ASYNCHRONIZED:
            return False
    # the rank is eliminated anew, not read from the object the
    # certificate was built on
    rank = eliminated_rank(setup.combined.generators)
    return rank == 1 == cert.combined_rank


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

# rule name -> the replay that checks its witness, replay(gamma, witness)
REPLAYS = {
    "rational_two_stars": replay_two_stars,
    "rational_triple": replay_triple,
    "not_rational_carter": replay_carter,
    "not_rational_stars": replay_stars,
    "not_rational_even": replay_even,
}


class RationalityVerdict(Record):
    __slots__ = _fields = ("verdict", "rule", "witness", "ranks", "minimality", "caveat")


def rationality_report(setup: ActionSetup) -> RationalityVerdict:
    """Run the decision rules in fixed order and report the first hit.

    Every rule reads the closure cached on ``setup.gamma_group``, so Gamma
    is closed at most once, and only if a rule needs more than its
    generators.  Rational rules run first because their witnesses are
    cheap to check; the verdict also carries a minimality certificate
    when one exists, and the fixed ranks of G, Gamma and the combined
    group, each computed once per group.  The ranks are read after the
    minimality search, which closes every G with generators, so a group
    closed by then takes the average trace over its closure.  A group
    left unclosed, such as the Gamma of an early Rational hit, takes the
    cycle sums of its basis curves if it has one generator, as a Galois
    image over a finite field does, and elimination on its generators
    otherwise.  No group is closed for its rank.
    """
    verdict, rule, witness = Verdict.INCONCLUSIVE, None, None
    for name, v, checker in RULES:
        w = checker(setup.gamma_group)
        if w is not None:
            verdict, rule, witness = v, name, w
            break
    minimality = check_minimal_four_stars(setup)
    ranks = {
        "G": fixed_rank(setup.g_group),
        "Gamma": fixed_rank(setup.gamma_group),
        "combined": fixed_rank(setup.combined),
    }
    caveat = RATIONAL_CAVEAT if verdict is Verdict.RATIONAL else None
    return RationalityVerdict(verdict, rule, witness, ranks, minimality, caveat)


def gamma_report(gamma: GroupSpec) -> RationalityVerdict:
    """Report for a Galois image acting alone (G trivial)."""
    return rationality_report(ActionSetup(TRIVIAL_GROUP, gamma))
