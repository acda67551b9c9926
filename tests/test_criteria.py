import random
from collections import Counter
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from dpone.criteria import (
    ActionSetup,
    CarterWitness,
    MinimalityCertificate,
    StarsWitness,
    TripleWitness,
    TwoStarsWitness,
    Verdict,
    _first_four_clique,
    check_minimal_four_stars,
    check_not_rational_carter,
    check_not_rational_even,
    check_not_rational_stars,
    check_rational_triple,
    check_rational_two_stars,
    gamma_report,
    rationality_report,
    replay_carter,
    replay_even,
    replay_minimality,
    replay_stars,
    replay_triple,
    replay_two_stars,
    search_commuting_order3,
)
from dpone.curves import bertini_isometry, curve_table, s8_action
from dpone.lattice import (
    CANONICAL_CLASS,
    GroupSpec,
    TRIVIAL_GROUP,
    divisor,
    fixed_rank,
    pair,
    permutation_isometry,
    simple_roots,
)
from dpone.stars import (
    ActionKind,
    PairType,
    classify_pair,
    invariant_stars,
    star_masks,
)
from dpone.weyl import (
    CarterType3,
    carter_type_order3,
    element_order,
    reflection,
    representative_order3,
)
from test_group_oracles import GROUPS as ORACLE_GROUPS
from test_weyl import rank_carter_type


def group_of(*elements, label=""):
    return GroupSpec(tuple(elements), label)


REPS = {ctype: representative_order3(ctype) for ctype in CarterType3}
CANNED = {
    "trivial": TRIVIAL_GROUP,
    "A2": group_of(REPS[CarterType3.A2]),
    "A2^2": group_of(REPS[CarterType3.A2x2]),
    "A2^3": group_of(REPS[CarterType3.A2x3]),
    "A2^4": group_of(REPS[CarterType3.A2x4]),
}


def test_action_setup_requires_commuting():
    with pytest.raises(ValueError):
        ActionSetup(group_of(s8_action("(1 2)")), group_of(s8_action("(1 3)")))
    setup = ActionSetup(group_of(s8_action("(1 2)")), group_of(s8_action("(3 4)")))
    assert fixed_rank(setup.combined) == 7
    # reflections outside S8: roots pairing 1 span an A2, whose reflections
    # do not commute; roots pairing 0 give commuting reflections
    a = divisor(1, -1, -1, -1, 0, 0, 0, 0, 0)
    b = divisor(1, 0, 0, 0, -1, -1, -1, 0, 0)
    c = divisor(0, 0, 0, 0, 0, 0, 0, 1, -1)
    assert (pair(a, b), pair(a, c)) == (1, 0)
    with pytest.raises(ValueError, match="do not commute"):
        ActionSetup(group_of(reflection(a)), group_of(reflection(b)))
    ActionSetup(group_of(reflection(a), reflection(c)), group_of(reflection(c)))


def test_carter_rule():
    w = check_not_rational_carter(CANNED["A2^4"])
    assert w is not None and carter_type_order3(w.elements[0]) is CarterType3.A2x4
    assert replay_carter(CANNED["A2^4"], w)
    w3 = check_not_rational_carter(CANNED["A2^3"])
    assert w3 is not None and carter_type_order3(w3.elements[0]) is CarterType3.A2x3
    assert check_not_rational_carter(CANNED["A2"]) is None
    assert check_not_rational_carter(CANNED["trivial"]) is None


def test_stars_rule():
    w = check_not_rational_stars(CANNED["A2^3"])
    assert w is not None and len(w.stars) == 3
    assert replay_stars(CANNED["A2^3"], w)
    assert check_not_rational_stars(CANNED["A2^2"]) is None
    assert check_not_rational_stars(CANNED["A2"]) is None


def test_stars_rule_consistent_with_carter():
    # the faithful-star threshold singles out exactly the same classes
    for name, gamma in CANNED.items():
        carter = check_not_rational_carter(gamma)
        stars = check_not_rational_stars(gamma)
        assert (carter is None) == (stars is None)


def test_even_rule_bertini():
    gamma = group_of(bertini_isometry())
    w = check_not_rational_even(gamma)
    assert w is not None
    assert element_order(w.elements[0]) == 2
    assert replay_even(gamma, w)
    p = curve_table().pairing_array
    perm = curve_table().permutation_of(w.elements[0])
    for c in w.stars[0]:
        assert p[c, perm[c]] == 3


def test_even_rule_negative_cases():
    assert check_not_rational_even(group_of(reflection(simple_roots()[1]))) is None
    assert check_not_rational_even(CANNED["trivial"]) is None
    assert check_not_rational_even(CANNED["A2"]) is None


def test_triple_rule():
    w = check_rational_triple(CANNED["trivial"])
    assert w is not None
    assert replay_triple(CANNED["trivial"], w)
    a, b, c = (curve_table().curve(i).divisor for i in w.curves)
    assert pair(a, b) == 1 and pair(b, c) == 1 and pair(a, c) == 0
    d = a + b + c
    assert pair(d, d) == 1
    assert pair(d, CANONICAL_CLASS) == -3


def test_triple_rule_census():
    exists = {
        name: check_rational_triple(gamma) is not None
        for name, gamma in CANNED.items()
    }
    assert exists == {
        "trivial": True,
        "A2": True,
        "A2^2": True,
        "A2^3": False,
        "A2^4": False,
    }


def test_triple_search_is_exhaustive_for_a2x3():
    # the six invariant curves pair only 0, 2, 3: no 1 anywhere
    from dpone.stars import invariant_curves

    inv = invariant_curves(CANNED["A2^3"])
    p = curve_table().pairing_array
    values = {p[a, b] for a in inv for b in inv if a != b}
    assert 1 not in values


def test_two_stars_rule():
    w = check_rational_two_stars(CANNED["trivial"])
    assert w is not None
    assert replay_two_stars(CANNED["trivial"], w)
    assert classify_pair(*w.stars).pair_type is PairType.ASYNCHRONIZED
    w2 = check_rational_two_stars(CANNED["A2"])
    assert w2 is not None and replay_two_stars(CANNED["A2"], w2)
    assert check_rational_two_stars(CANNED["A2^3"]) is None
    assert check_rational_two_stars(CANNED["A2^4"]) is None


def forged_stars(stars):
    """A witness's stars with the first one forged: reordered off the hexagon,
    given an id of -1 or of 240, or repeated in place of another star."""
    s = stars[0]
    return [
        ((s[1], s[0]) + s[2:],) + stars[1:],
        ((-1,) + s[1:],) + stars[1:],
        (s[:5] + (240,),) + stars[1:],
        stars[:-1] + (s,) if len(stars) > 1 else (s, s),
    ]


def test_replay_rejects_tampered_witnesses():
    triple = check_rational_triple(CANNED["A2"])
    t = triple.curves
    tampered = TripleWitness(curves=(t[0], t[1], t[1]))
    assert not replay_triple(CANNED["A2"], tampered)
    w4 = check_not_rational_carter(CANNED["A2^4"])
    assert not replay_carter(CANNED["A2^3"], w4)
    assert not replay_carter(CANNED["A2"], CarterWitness((REPS[CarterType3.A2],)))

    # every replay that reads stars checks each one before trusting it
    bertini = group_of(bertini_isometry())
    cases = [
        (replay_stars, CANNED["A2^3"], check_not_rational_stars(CANNED["A2^3"])),
        (replay_even, bertini, check_not_rational_even(bertini)),
        (replay_two_stars, CANNED["trivial"], check_rational_two_stars(CANNED["trivial"])),
    ]
    for replay, gamma, w in cases:
        assert replay(gamma, w)
        for stars in forged_stars(w.stars):
            assert not replay(gamma, replace(w, stars=stars)), (replay.__name__, stars)

    # a witness of the wrong size is rejected, not unpacked into an error
    cases = [(replay_carter, CANNED["A2^4"], w4)] + cases[:2]
    for replay, gamma, w in cases:
        (m,) = w.elements
        for elements in ((), (m, m)):
            assert not replay(gamma, replace(w, elements=elements)), replay.__name__
    for curves in ((), t[:2], t + t[:1], (-1,) + t[1:], t[:2] + (240,), t[:2] + ("E1",)):
        assert not replay_triple(CANNED["A2"], TripleWitness(curves=curves)), curves
    setup = ActionSetup(CANNED["A2^4"], TRIVIAL_GROUP)
    cert = check_minimal_four_stars(setup)
    assert replay_minimality(setup, cert)
    for stars in forged_stars(cert.stars):
        assert not replay_minimality(setup, replace(cert, stars=stars)), stars


def test_minimality_a2x4():
    setup = ActionSetup(CANNED["A2^4"], TRIVIAL_GROUP)
    cert = check_minimal_four_stars(setup)
    assert cert is not None
    assert cert.combined_rank == 1
    assert replay_minimality(setup, cert)
    for a in range(4):
        for b in range(a + 1, 4):
            res = classify_pair(cert.stars[a], cert.stars[b])
            assert res.pair_type is PairType.ASYNCHRONIZED


def test_minimality_none_for_trivial_g():
    setup = ActionSetup(TRIVIAL_GROUP, CANNED["A2^4"])
    assert check_minimal_four_stars(setup) is None


def test_minimality_none_for_a2():
    setup = ActionSetup(CANNED["A2"], TRIVIAL_GROUP)
    assert check_minimal_four_stars(setup) is None


def _commuting_pair(ctype):
    g = REPS[ctype]
    pointwise = [
        a.star for a in invariant_stars(g) if a.kind is ActionKind.TRIVIAL
    ]
    h = search_commuting_order3(g, pointwise)
    return g, h, pointwise


def test_search_commuting_order3_a2x3():
    g, h, pointwise = _commuting_pair(CarterType3.A2x3)
    assert element_order(h) == 3
    assert g @ h == h @ g
    perm = curve_table().permutation_of(h)
    s = pointwise[0]
    assert {perm[c] for c in s} == set(s)
    assert any(perm[c] != c for c in s)


def test_minimality_construction_a2x3():
    g, h, _ = _commuting_pair(CarterType3.A2x3)
    setup = ActionSetup(group_of(g, h), TRIVIAL_GROUP)
    assert fixed_rank(setup.combined) == 1
    cert = check_minimal_four_stars(setup)
    assert cert is not None and replay_minimality(setup, cert)


def test_minimality_construction_a2x2():
    g, h, pointwise = _commuting_pair(CarterType3.A2x2)
    assert len(pointwise) == 2
    perm = curve_table().permutation_of(h)
    for s in pointwise:
        assert {perm[c] for c in s} == set(s)
        assert any(perm[c] != c for c in s)
    setup = ActionSetup(group_of(g, h), TRIVIAL_GROUP)
    assert fixed_rank(setup.combined) == 1
    cert = check_minimal_four_stars(setup)
    assert cert is not None and replay_minimality(setup, cert)


def test_search_commuting_requires_stars():
    with pytest.raises(ValueError):
        search_commuting_order3(REPS[CarterType3.A2], [])


@pytest.mark.parametrize("which", ["non-star", "out of hexagon order"])
def test_search_commuting_rejects_what_is_not_a_star(which):
    # star_masks reads a row by its first edge, so a row whose first two
    # curves meet would pass as invariant; the search checks every row first
    g = REPS[CarterType3.A2x2]
    s = next(a.star for a in invariant_stars(g) if a.kind is ActionKind.TRIVIAL)
    row = (0, 1, 2, 3, 4, 5) if which == "non-star" else (s[0], s[2], s[1]) + s[3:]
    with pytest.raises(ValueError, match="do not form a star"):
        search_commuting_order3(g, [s, row])


def test_canned_verdicts():
    expected = {
        "trivial": Verdict.RATIONAL,
        "A2": Verdict.RATIONAL,
        "A2^2": Verdict.RATIONAL,
        "A2^3": Verdict.NOT_RATIONAL,
        "A2^4": Verdict.NOT_RATIONAL,
    }
    for name, gamma in CANNED.items():
        report = gamma_report(gamma)
        assert report.verdict is expected[name], name
        if report.verdict is Verdict.RATIONAL:
            assert report.caveat is not None
        else:
            assert report.caveat is None


def test_report_ranks():
    report = gamma_report(CANNED["A2^2"])
    assert report.ranks == {"G": 9, "Gamma": 5, "combined": 5}
    setup = ActionSetup(CANNED["A2"], CANNED["A2"])
    assert rationality_report(setup).ranks["combined"] == 7


def test_order3_rules_build_matrices_only_for_witnesses(monkeypatch):
    # the rules type closure rows by fixed curves; no element becomes a
    # 9x9 matrix, and no rank is taken, unless it is the witness
    import dpone.lattice as lattice

    table = curve_table()
    calls = Counter()
    real_isometry_of, real_rank = type(table).isometry_of, lattice.integer_rank

    def isometry_of(self, perm):
        calls["isometry_of"] += 1
        return real_isometry_of(self, perm)

    def integer_rank(rows):
        calls["integer_rank"] += 1
        return real_rank(rows)

    monkeypatch.setattr(type(table), "isometry_of", isometry_of)
    monkeypatch.setattr(lattice, "integer_rank", integer_rank)
    s5 = group_of(s8_action("(1 2)"), s8_action("(1 2 3 4 5)"))
    a2x4 = CANNED["A2^4"]
    for gamma in (s5, a2x4):
        gamma.perms  # close outside the count
    assert len(s5.of_order(3)) == 20
    for rule in (check_not_rational_carter, check_not_rational_stars):
        calls.clear()
        assert rule(s5) is None
        assert calls == {}
        assert rule(a2x4) is not None
        assert calls == {"isometry_of": 1}


def test_exclusivity_on_canned_setups():
    for name, gamma in CANNED.items():
        rational = (
            check_rational_two_stars(gamma) is not None
            or check_rational_triple(gamma) is not None
        )
        not_rational = (
            check_not_rational_carter(gamma) is not None
            or check_not_rational_stars(gamma) is not None
            or check_not_rational_even(gamma) is not None
        )
        assert not (rational and not_rational), name


def test_monotonicity_along_chains():
    order = {
        Verdict.RATIONAL: 0,
        Verdict.INCONCLUSIVE: 1,
        Verdict.NOT_RATIONAL: 2,
    }
    g123 = s8_action("(1 2 3)")
    g456 = s8_action("(4 5 6)")
    g3, h3, _ = _commuting_pair(CarterType3.A2x3)
    chains = [
        [TRIVIAL_GROUP, group_of(g123), group_of(g123, g456)],
        [TRIVIAL_GROUP, CANNED["A2^3"], group_of(g3, h3)],
        [TRIVIAL_GROUP, CANNED["A2^4"]],
    ]
    for chain in chains:
        verdicts = [gamma_report(gamma).verdict for gamma in chain]
        for a, b in zip(verdicts, verdicts[1:]):
            assert order[a] <= order[b]


def test_rank_one_group_never_rational_verdict():
    report = gamma_report(group_of(REPS[CarterType3.A2x4]))
    assert report.verdict is Verdict.NOT_RATIONAL
    assert report.ranks["Gamma"] == 1


def test_minimality_cert_included_in_report():
    g, h, _ = _commuting_pair(CarterType3.A2x2)
    report = rationality_report(ActionSetup(group_of(g, h), TRIVIAL_GROUP))
    assert report.minimality is not None
    assert report.minimality.combined_rank == 1


def test_report_closes_each_group_once(monkeypatch):
    # Gamma = <Bertini>: no rule hits before the even rule, so all three
    # closure-reading rules run; the minimality search closes G unless G
    # has no generators, and the replays of the witness and the
    # certificate reuse both closures.
    # Bertini is central, so it commutes with the A2^2 pair, whose
    # certificate survives the combined group.
    import dpone.lattice as lattice

    closed = []
    real = lattice.group_closure

    def counting(g):
        closed.append(g.label)
        return real(g)

    monkeypatch.setattr(lattice, "group_closure", counting)
    for g_gens in ((), _commuting_pair(CarterType3.A2x2)[:2]):
        closed.clear()
        setup = ActionSetup(
            GroupSpec(g_gens, "G"), GroupSpec((bertini_isometry(),), "Gamma")
        )
        report = rationality_report(setup)
        assert report.rule == "not_rational_even"
        assert replay_even(setup.gamma_group, report.witness)
        assert (report.minimality is not None) == bool(g_gens)
        if g_gens:
            assert replay_minimality(setup, report.minimality)
        assert sorted(closed) == (["G", "Gamma"] if g_gens else ["Gamma"])


def test_report_permutes_each_generator_once_per_group(monkeypatch):
    # G has two generators, Gamma one and combined three: six permutations
    # at most, however many rules, closures and star scans read them
    table = curve_table()
    calls = []
    real = type(table).permutation_of

    def counting(self, m):
        calls.append(m)
        return real(self, m)

    monkeypatch.setattr(type(table), "permutation_of", counting)
    g = group_of(s8_action("(1 2 3)"), s8_action("(4 5 6)"), label="G")
    gamma = group_of(bertini_isometry(), label="Gamma")
    report = rationality_report(ActionSetup(g, gamma))
    assert report.rule == "not_rational_even"
    assert len(calls) <= 6


# ---------------------------------------------------------------------------
# the star rules against object-level reference scans
#
# The rules read star-table rows and count unit pairings.  The reference
# versions below walk the stars of StarAction records instead: an all-ones
# cross test confirmed by classify_pair, a clique search over those tests, and the
# faithful-star list of StarAction objects.  The Carter reference builds
# each order-3 element's matrix and types it by fixed rank, as the rule
# did before it typed closure rows by fixed curves.  Witnesses are the
# first hit in a fixed order, so they must agree exactly, labeling included.


def all_ones_cross(a, b):
    p = curve_table().pairing_array
    return all(p[x, y] == 1 for x in a for y in b)


def reference_two_stars(gamma):
    pointwise = [a.star for a in invariant_stars(gamma) if a.kind is ActionKind.TRIVIAL]
    for a, b in combinations(pointwise, 2):
        if set(a) & set(b):
            continue
        if all_ones_cross(a, b):
            assert classify_pair(a, b).pair_type is PairType.ASYNCHRONIZED
            return TwoStarsWitness(stars=(a, b))
    return None


def reference_carter(gamma):
    for i in gamma.of_order(3):
        m = gamma.element(i)
        if rank_carter_type(m) in (CarterType3.A2x3, CarterType3.A2x4):
            return CarterWitness((m,))
    return None


def reference_not_rational_stars(gamma):
    for i in gamma.of_order(3):
        faithful = [
            a.star for a in invariant_stars(gamma.element(i))
            if a.kind is ActionKind.FAITHFUL
        ]
        if len(faithful) >= 3:
            return StarsWitness((gamma.element(i),), stars=tuple(faithful[:3]))
    return None


def reference_four_stars(setup):
    g = setup.g_group
    order3 = g.of_order(3)
    if not len(order3):
        return None
    stars = [a.star for a in invariant_stars(setup.combined)]
    ids = np.array(stars).reshape(-1, 6)
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
    return MinimalityCertificate(stars, elements, fixed_rank(setup.combined))


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_star_rules_match_reference_scans(name):
    gamma = GroupSpec(ORACLE_GROUPS[name], "Gamma")
    got, want = check_rational_two_stars(gamma), reference_two_stars(gamma)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.stars == want.stars
        assert replay_two_stars(gamma, got)
    got, want = check_not_rational_carter(gamma), reference_carter(gamma)
    assert got == want
    if got is not None:
        assert replay_carter(gamma, got)
    got, want = check_not_rational_stars(gamma), reference_not_rational_stars(gamma)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.elements == want.elements
        assert got.stars == want.stars
        assert replay_stars(gamma, got)
    setup = ActionSetup(GroupSpec(gamma.generators, "G"), TRIVIAL_GROUP)
    got, want = check_minimal_four_stars(setup), reference_four_stars(setup)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.stars == want.stars
        assert got.elements == want.elements
        assert replay_minimality(setup, got)


MINIMALITY_GROUPS = {
    "A2^4 rep": lambda: (REPS[CarterType3.A2x4],),
    "A2^3 pair": lambda: _commuting_pair(CarterType3.A2x3)[:2],
    "A2^2 pair": lambda: _commuting_pair(CarterType3.A2x2)[:2],
}


@pytest.mark.parametrize("with_bertini", [False, True], ids=["trivial", "Bertini"])
@pytest.mark.parametrize("g_name", sorted(MINIMALITY_GROUPS))
def test_minimality_matches_reference_clique(g_name, with_bertini):
    # relabelling the eight points conjugates G and reorders its candidates
    gamma = (bertini_isometry(),) if with_bertini else ()
    base = MINIMALITY_GROUPS[g_name]()
    for seed in (None, 0, 1, 2):
        gens = base
        if seed is not None:
            images = list(range(1, 9))
            random.Random(seed).shuffle(images)
            p = permutation_isometry(dict(zip(range(1, 9), images)))
            gens = tuple(p @ m @ p.inverse() for m in base)
        setup = ActionSetup(GroupSpec(gens, "G"), GroupSpec(gamma, "Gamma"))
        got, want = check_minimal_four_stars(setup), reference_four_stars(setup)
        assert got is not None and want is not None
        assert got.stars == want.stars
        assert got.elements == want.elements
        assert got.combined_rank == want.combined_rank == 1
        assert replay_minimality(setup, got)


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


def test_clique_search_matches_dfs_and_reads_upper_triangle():
    # the lower triangle and diagonal hold noise the search must never read
    rng = np.random.default_rng(4)
    found = 0
    for n in (0, 3, 4, 5, 12, 30):
        for density in (0.2, 0.5, 0.8):
            upper = np.triu(rng.random((n, n)) < density, 1)
            noisy = upper | np.tril(rng.random((n, n)) < 0.5)
            want = dfs_four_clique(upper)
            assert _first_four_clique(noisy) == want
            found += want is not None
    assert found >= 5


def test_report_path_never_calls_brute_force(monkeypatch):
    # classify_pair stays the replays' check; the rules count unit pairings
    import dpone.criteria as criteria
    import dpone.stars as stars

    def forbidden(a, b):
        raise AssertionError("classify_pair called on the report path")

    monkeypatch.setattr(criteria, "classify_pair", forbidden)
    monkeypatch.setattr(stars, "classify_pair", forbidden)
    gamma = group_of(s8_action("(1 2 3)"))
    report = gamma_report(gamma)
    assert report.rule == "rational_two_stars"
    g, h, _ = _commuting_pair(CarterType3.A2x2)
    setup = ActionSetup(group_of(g, h), TRIVIAL_GROUP)
    cert = rationality_report(setup).minimality
    assert cert is not None
    monkeypatch.undo()
    assert replay_two_stars(gamma, report.witness)
    assert replay_minimality(setup, cert)


def test_swapped_kernel_table_is_caught_at_replay(monkeypatch):
    # a pair test that files synchronized pairs as asynchronized, here
    # pair_codes reading a kernel table with the two patterns swapped, makes
    # the rule report a wrong pair; the brute-force replay must reject it
    import dpone.criteria as criteria
    import dpone.stars as stars

    swapped = dict(stars.PATTERNS)
    swapped[PairType.ASYNCHRONIZED] = stars.PATTERNS[PairType.SYNCHRONIZED]
    swapped[PairType.SYNCHRONIZED] = stars.PATTERNS[PairType.ASYNCHRONIZED]
    table = stars.pattern_key_table(swapped)
    monkeypatch.setattr(stars, "pattern_keys", lambda: table)
    code = stars.PAIR_TYPES.index(PairType.ASYNCHRONIZED)
    monkeypatch.setattr(
        criteria, "asynchronized", lambda a, rest: stars.pair_codes(a, rest) == code
    )
    gamma = group_of(s8_action("(1 2 3)"))
    w = check_rational_two_stars(gamma)
    assert w is not None
    assert classify_pair(*w.stars).pair_type is PairType.SYNCHRONIZED
    assert not replay_two_stars(gamma, w)
