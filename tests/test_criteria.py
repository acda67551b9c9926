import random
from collections import Counter

import numpy as np
import pytest

from dpone.criteria import (
    REPLAYS,
    RULES,
    ActionSetup,
    CarterWitness,
    EvenWitness,
    MinimalityCertificate,
    StarsWitness,
    TripleWitness,
    Verdict,
    Witness,
    _first_four_clique,
    check_minimal_four_stars,
    check_not_rational_carter,
    check_not_rational_even,
    check_not_rational_stars,
    check_rational_triple,
    check_rational_two_stars,
    element_isometry,
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
from dpone.groups import GroupSpec, TRIVIAL_GROUP
from dpone.lattice import CANONICAL_CLASS, divisor, fixed_rank, pair, simple_roots
from dpone.stars import PairType, classify_pair, split_invariant_stars, star_table
from dpone.weyl import CarterType3, carter_type_order3, element_order, reflection
from families import group, groups, reps, workloads
from oracles import RULE_ROWS, assert_row, dfs_four_clique, reference_four_stars


def group_of(*elements, label=""):
    return GroupSpec(tuple(elements), label)


REPS = reps()
CANNED = {
    "trivial": TRIVIAL_GROUP,
    "A2": group_of(REPS[CarterType3.A2]),
    "A2^2": group_of(REPS[CarterType3.A2x2]),
    "A2^3": group_of(REPS[CarterType3.A2x3]),
    "A2^4": group_of(REPS[CarterType3.A2x4]),
}


def test_value_classes_keep_the_record_contract():
    # records equal by fields, and only records of their own class
    triple, same = TripleWitness(curves=(1, 2, 3)), TripleWitness((), (1, 2, 3))
    assert triple == same and hash(triple) == hash(same)
    assert CarterWitness((b"x",)) != StarsWitness((b"x",))
    assert triple != ((), (1, 2, 3), ()) and divisor(*range(9)) != tuple(range(9))
    # slotted records and dict-backed ones refuse writes alike
    setup = ActionSetup(CANNED["A2"], CANNED["A2"])
    for record, slotted in ((divisor(*range(9)), True), (Witness(), True),
                            (CANNED["A2"], False), (setup, False)):
        assert hasattr(record, "__dict__") is not slotted
        for name in (record._fields[0], "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, record._fields[0])
    # cached_property still caches on a dict-backed record
    assert "combined" not in vars(setup)
    assert setup.combined is setup.combined is vars(setup)["combined"]
    # the repr the replays' error messages print is the dataclass one
    assert repr(triple) == "TripleWitness(elements=(), curves=(1, 2, 3), stars=())"


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
    assert w is not None
    assert carter_type_order3(element_isometry(w.elements[0])) is CarterType3.A2x4
    assert replay_carter(CANNED["A2^4"], w)
    w3 = check_not_rational_carter(CANNED["A2^3"])
    assert w3 is not None
    assert carter_type_order3(element_isometry(w3.elements[0])) is CarterType3.A2x3
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
    m = element_isometry(w.elements[0])
    assert element_order(m) == 2
    assert replay_even(gamma, w)
    p = curve_table().pairing_array
    perm = curve_table().permutation_of(m)
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
    given an id of -1 or of 240, written as bools, replaced by a bare curve
    id, or repeated in place of another star."""
    s = stars[0]
    return [
        ((s[1], s[0]) + s[2:],) + stars[1:],
        ((-1,) + s[1:],) + stars[1:],
        (s[:5] + (240,),) + stars[1:],
        (tuple(map(bool, s)),) + stars[1:],
        (s[0],) + stars[1:],
        stars[:-1] + (s,) if len(stars) > 1 else (s, s),
    ]


def test_replay_rejects_tampered_witnesses():
    triple = check_rational_triple(CANNED["A2"])
    t = triple.curves
    tampered = TripleWitness(curves=(t[0], t[1], t[1]))
    assert not replay_triple(CANNED["A2"], tampered)
    w4 = check_not_rational_carter(CANNED["A2^4"])
    assert not replay_carter(CANNED["A2^3"], w4)
    # an element of the group, of order 3, but of a class (A2) whose fixed
    # rank the Carter rule does not accept
    a2 = curve_table().permutation_of(REPS[CarterType3.A2]).tobytes()
    assert CANNED["A2"].index_of(a2) is not None
    assert not replay_carter(CANNED["A2"], CarterWitness((a2,)))

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
            forged = type(w)(w.elements, w.curves, stars)
            assert not replay(gamma, forged), (replay.__name__, stars)

    # a witness of the wrong size, or whose element is not row bytes (an
    # isometry included), is rejected, not read into an error
    cases = [(replay_carter, CANNED["A2^4"], w4)] + cases[:2]
    for replay, gamma, w in cases:
        (m,) = w.elements
        for elements in ((), (m, m), ("junk",), (5,), (None,), (REPS[CarterType3.A2x4],)):
            assert not replay(gamma, type(w)(elements, w.curves, w.stars)), replay.__name__
    for curves in (
        (), t[:2], t + t[:1], (-1,) + t[1:], t[:2] + (240,), t[:2] + ("E1",), (True,) * 3,
    ):
        assert not replay_triple(CANNED["A2"], TripleWitness(curves=curves)), curves
    setup = ActionSetup(CANNED["A2^4"], TRIVIAL_GROUP)
    cert = check_minimal_four_stars(setup)
    assert replay_minimality(setup, cert)
    for stars in forged_stars(cert.stars):
        forged = MinimalityCertificate(stars, cert.elements, cert.combined_rank)
        assert not replay_minimality(setup, forged), stars
    for m in ("junk", 5, None, REPS[CarterType3.A2x4]):
        forged = MinimalityCertificate(cert.stars, (m,) + cert.elements[1:], cert.combined_rank)
        assert not replay_minimality(setup, forged), m


def test_minimality_none_for_trivial_g():
    setup = ActionSetup(TRIVIAL_GROUP, CANNED["A2^4"])
    assert check_minimal_four_stars(setup) is None


def test_minimality_none_for_a2():
    setup = ActionSetup(CANNED["A2"], TRIVIAL_GROUP)
    assert check_minimal_four_stars(setup) is None


def _commuting_pair(ctype):
    g = REPS[ctype]
    pointwise, _ = split_invariant_stars(g)
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
    s = split_invariant_stars(g)[0][0]
    row = (0, 1, 2, 3, 4, 5) if which == "non-star" else (s[0], s[2], s[1]) + s[3:]
    with pytest.raises(ValueError, match="do not form a star"):
        search_commuting_order3(g, [s, row])


def test_report_ranks():
    report = gamma_report(CANNED["A2^2"])
    assert report.ranks == {"G": 9, "Gamma": 5, "combined": 5}
    setup = ActionSetup(CANNED["A2"], CANNED["A2"])
    assert rationality_report(setup).ranks["combined"] == 7


def test_order3_rules_build_matrices_only_for_witnesses(monkeypatch):
    # no rule, search or report builds a 9x9 matrix, witnesses included,
    # and no rule takes a rank; printing builds one per printed element
    import dpone.groups as group_layer
    from dpone.cli import verdict_to_dict

    table = curve_table()
    calls = Counter()
    real_isometry_of, real_rank = type(table).isometry_of, group_layer.integer_rank

    def isometry_of(self, perm):
        calls["isometry_of"] += 1
        return real_isometry_of(self, perm)

    def integer_rank(rows):
        calls["integer_rank"] += 1
        return real_rank(rows)

    monkeypatch.setattr(type(table), "isometry_of", isometry_of)
    monkeypatch.setattr(group_layer, "integer_rank", integer_rank)
    s5 = group_of(s8_action("(1 2)"), s8_action("(1 2 3 4 5)"))
    a2x4, bertini = CANNED["A2^4"], group_of(bertini_isometry())
    for gamma in (s5, a2x4, bertini):
        gamma.perms  # close outside the count
    assert len(s5.of_order(3)) == 20
    for rule, hit in (
        (check_not_rational_carter, a2x4),
        (check_not_rational_stars, a2x4),
        (check_not_rational_even, bertini),
    ):
        calls.clear()
        assert rule(s5) is None
        assert rule(hit) is not None
        assert calls == {}, rule.__name__
    calls.clear()
    assert check_minimal_four_stars(ActionSetup(a2x4, TRIVIAL_GROUP)) is not None
    assert calls == {}

    # G = Gamma = <A2^4 rep>: one witness element and four certificate elements
    report = rationality_report(ActionSetup(a2x4, a2x4))
    assert calls["isometry_of"] == 0
    doc = verdict_to_dict(report)
    printed = doc["witness"]["elements"] + doc["minimality"]["elements"]
    assert len(printed) == 5
    assert calls["isometry_of"] == 5

    calls.clear()
    assert gamma_report(group_of(s8_action("(1 2 3)") @ bertini_isometry())).witness
    s4 = group_of(s8_action("(1 2)"), s8_action("(1 2 3 4)"))
    assert rationality_report(ActionSetup(s4, TRIVIAL_GROUP)).ranks["G"] == 6
    assert calls["isometry_of"] == 0


def forged_orders(m, orders):
    """The closed group <m> with its cached orders overwritten."""
    group = group_of(m)
    group.perms
    group.__dict__["orders"] = np.array(orders)
    return group


def test_replays_read_no_cached_orders():
    # with forged orders, the Bertini involution b passes as an order-3
    # element of class A2^4 (it fixes no curve) and as a rotation of every
    # star it flips, so three rules hand out b; each replay takes b's order
    # from its own row and refuses it
    b = bertini_isometry()
    gamma = forged_orders(b, [1, 3])
    w = check_not_rational_carter(gamma)
    assert w is not None and not replay_carter(gamma, w)
    w = check_not_rational_stars(gamma)
    assert w is not None and not replay_stars(gamma, w)
    setup = ActionSetup(gamma, TRIVIAL_GROUP)
    cert = check_minimal_four_stars(setup)
    assert cert is not None and not replay_minimality(setup, cert)
    # no odd element flips a star, so the even rule hands none out; an
    # order-3 element forged as even is refused all the same
    gamma = forged_orders(REPS[CarterType3.A2x4], [1, 2, 2])
    star = check_not_rational_stars(CANNED["A2^4"]).stars[0]
    assert not replay_even(gamma, EvenWitness((gamma.element(1),), stars=(star,)))
    # and b's witness replays on a group whose forged orders call b odd
    w = check_not_rational_even(group_of(b))
    assert replay_even(forged_orders(b, [2, 1]), w)


def test_reports_read_a_closed_groups_rank_off_its_closure(monkeypatch):
    # Gamma = <(1 2 3) b> is closed by the even rule, and G = S4 by the
    # minimality search, so neither report eliminates
    import dpone.groups as group_layer

    def integer_rank(rows):
        raise AssertionError("a closed group's rank was eliminated")

    monkeypatch.setattr(group_layer, "integer_rank", integer_rank)
    report = gamma_report(group_of(s8_action("(1 2 3)") @ bertini_isometry()))
    assert report.rule == "not_rational_even"
    assert report.ranks == {"G": 9, "Gamma": 1, "combined": 1}
    s4 = group_of(s8_action("(1 2)"), s8_action("(1 2 3 4)"))
    report = rationality_report(ActionSetup(s4, TRIVIAL_GROUP))
    assert report.ranks == {"G": 6, "Gamma": 9, "combined": 6}


def test_early_hit_report_reads_its_unclosed_gamma_rank_off_cycles(monkeypatch):
    # the one generator's basis cycles give Gamma's rank: nothing is
    # eliminated and Gamma stays unclosed
    import dpone.groups as group_layer

    calls, real_rank = [], group_layer.integer_rank

    def integer_rank(rows):
        calls.append(len(rows))
        return real_rank(rows)

    monkeypatch.setattr(group_layer, "integer_rank", integer_rank)
    gamma = group_of(s8_action("(1 2 3)"))
    report = gamma_report(gamma)
    assert report.rule == "rational_two_stars"
    assert report.ranks == {"G": 9, "Gamma": 7, "combined": 7}
    assert calls == []
    assert "perms" not in vars(gamma)


def test_replays_eliminate_their_ranks(monkeypatch):
    # the replays rank a fresh group by elimination, never by the cycle
    # sums a one-generator group would take: with those patched to raise
    # the witnesses still replay, and a wrong elimination refuses them
    import dpone.groups as group_layer
    import dpone.lattice as lattice

    carter = [(CANNED[n], check_not_rational_carter(CANNED[n])) for n in ("A2^3", "A2^4")]
    setup = ActionSetup(group_of(REPS[CarterType3.A2x4], label="G"), TRIVIAL_GROUP)
    cert = check_minimal_four_stars(setup)
    assert cert is not None and all(w is not None for _, w in carter)

    def cycle_rank(perm):
        raise AssertionError("a replay read a rank off basis cycles")

    for module in (lattice, group_layer):
        monkeypatch.setattr(module, "_cycle_rank", cycle_rank)
    assert all(replay_carter(gamma, w) for gamma, w in carter)
    assert replay_minimality(setup, cert)
    monkeypatch.setattr(group_layer, "integer_rank", lambda rows: 0)  # rank 9
    assert not any(replay_carter(gamma, w) for gamma, w in carter)
    assert not replay_minimality(setup, cert)


def test_order3_rules_type_their_elements_once(monkeypatch):
    # the Carter and stars rules both miss on <(1 2 3) b>, whose two
    # order-3 elements are typed once, for the Carter rule
    import dpone.groups as group_layer

    calls, real_types = [], group_layer.carter_types

    def carter_types(perms):
        calls.append(len(perms))
        return real_types(perms)

    monkeypatch.setattr(group_layer, "carter_types", carter_types)
    gamma = group_of(s8_action("(1 2 3)") @ bertini_isometry())
    assert gamma_report(gamma).rule == "not_rational_even"
    assert calls == [2]
    assert check_not_rational_stars(gamma) is None and calls == [2]


def test_replay_minimality_recomputes_the_rank(monkeypatch):
    # four faithful stars of the A2^3 representative, whose fixed rank is
    # 3, and a classify_pair that files every pair as asynchronized: every
    # other check passes, so only a recomputed rank refuses the certificate
    import dpone.criteria as criteria

    class Asynchronized:
        pair_type = PairType.ASYNCHRONIZED

    monkeypatch.setattr(criteria, "classify_pair", lambda a, b: Asynchronized)
    m = REPS[CarterType3.A2x3]
    g = group_of(m, label="G")
    setup = ActionSetup(g, TRIVIAL_GROUP)
    _, stars = split_invariant_stars(g)
    row = curve_table().permutation_of(m).tobytes()  # the element as row bytes
    cert = MinimalityCertificate(tuple(stars[:4]), (row,) * 4, 1)
    vars(setup.combined)["fixed_rank"] = 1  # a false cached rank
    assert fixed_rank(setup.combined) == 1
    assert not replay_minimality(setup, cert)
    monkeypatch.setattr(criteria, "eliminated_rank", lambda generators: 1)
    assert replay_minimality(setup, cert)  # the rank is the only refusal


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
    import dpone.groups as group_layer

    closed = []
    real = group_layer.group_closure

    def counting(g):
        closed.append(g.label)
        return real(g)

    monkeypatch.setattr(group_layer, "group_closure", counting)
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


@pytest.mark.parametrize("name", sorted(groups()))
def test_star_rules_match_reference_scans(name):
    """Every rule row of the differential table on one group: each rule,
    and the minimality search with the group as G, against its reference
    scans (`oracles.RULE_ROWS`), each hit replayed."""
    for row in RULE_ROWS:
        assert_row(row, group(name))


def test_every_rule_has_one_replay():
    assert set(REPLAYS) == {name for name, _, _ in RULES}


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
            _, p, p_inv = workloads._relabelling(random.Random(seed))
            gens = workloads._conjugate(base, p, p_inv)
        setup = ActionSetup(GroupSpec(gens, "G"), GroupSpec(gamma, "Gamma"))
        got, want = check_minimal_four_stars(setup), reference_four_stars(setup)
        assert got is not None and want is not None
        assert got.stars == want.stars
        assert got.elements == want.elements
        assert got.combined_rank == want.combined_rank == 1
        assert replay_minimality(setup, got)


def test_clique_search_matches_dfs_and_reads_upper_triangle():
    # the lower triangle and diagonal hold noise the search must never read;
    # the 150-index masks with no pair in their first rows start late, and
    # the last, dense from its first row, holds a clique at once
    rng = np.random.default_rng(4)
    found = 0
    for n, empty_rows in ((0, 0), (3, 0), (4, 0), (5, 0), (12, 0), (30, 0),
                          (150, 63), (150, 64), (150, 140), (150, 0)):
        for density in (0.2, 0.5, 0.8):
            upper = np.triu(rng.random((n, n)) < density, 1)
            upper[:empty_rows] = False
            noisy = upper | np.tril(rng.random((n, n)) < 0.5)
            want = dfs_four_clique(upper)
            assert _first_four_clique(noisy) == want
            found += want is not None
    assert found >= 12


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
    # a partner table of synchronized pairs, here filed by pair_codes
    # reading a kernel table with the two patterns swapped, makes the rule
    # report a wrong pair; the brute-force replay must reject it
    import dpone.stars as stars

    swapped = dict(stars.PATTERNS)
    swapped[PairType.ASYNCHRONIZED] = stars.PATTERNS[PairType.SYNCHRONIZED]
    swapped[PairType.SYNCHRONIZED] = stars.PATTERNS[PairType.ASYNCHRONIZED]
    table = stars.pattern_key_table(swapped)
    monkeypatch.setattr(stars, "pattern_keys", lambda: table)
    code = stars.PAIR_TYPES.index(PairType.ASYNCHRONIZED)
    ids = star_table().ids_array

    def filed_asynchronized(s):
        others = np.delete(np.arange(len(ids)), s)  # a star overlaps itself
        return others[stars.pair_codes(ids[s], ids[others]) == code]

    planted = np.array([filed_asynchronized(s) for s in range(len(ids))])
    monkeypatch.setitem(star_table().__dict__, "partners", planted)
    gamma = group_of(s8_action("(1 2 3)"))
    w = check_rational_two_stars(gamma)
    assert w is not None
    assert classify_pair(*w.stars).pair_type is PairType.SYNCHRONIZED
    assert not replay_two_stars(gamma, w)
