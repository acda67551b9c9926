import random
from itertools import combinations

import numpy as np
import pytest

from dpone.curves import bertini, curve_table, s8_action
from dpone.lattice import CANONICAL_CLASS, pair, permutation_orders
import dpone.stars as stars_module
from dpone.stars import (
    D6,
    OVERLAPPING,
    PAIR_TYPES,
    PATTERNS,
    ActionKind,
    OverlappingStars,
    PairType,
    ProfileKind,
    StarConfiguration,
    TrichotomyViolation,
    classify_pair,
    enumerate_stars,
    intersection_profile_census,
    invariant_curves,
    invariant_stars,
    is_star,
    pair_codes,
    pattern_key_table,
    profile,
    sample_pairs_by_type,
    star_graph_automorphisms,
    star_plane,
    star_table,
    star_through,
    trichotomy_census,
)
from dpone.weyl import CarterType3, reflection_permutation, representative_order3


def names_of(star):
    return set(star.names)


def star_of_names(*names):
    t = curve_table()
    return frozenset(t.id_of_name(n) for n in names)


def stars_containing(c):
    """Star-table ids of the stars through curve c."""
    return set(np.flatnonzero((star_table().ids_array == c).any(axis=1)).tolist())


def test_star_through_example():
    s = star_through("E7", "E8")
    assert s.names == ("E7", "E8", "C7-8", "bE7", "bE8", "C8-7")


def test_star_through_rejects_meeting_curves():
    with pytest.raises(ValueError):
        star_through("E1", "L12")


def test_star_pattern_invariants():
    s = star_through("E7", "E8")
    t = curve_table()
    ids = s.curve_ids
    for i in range(6):
        assert t.pairing_array[ids[i], ids[(i + 1) % 6]] == 0
        assert t.pairing_array[ids[i], ids[(i + 2) % 6]] == 2
        assert t.pairing_array[ids[i], ids[(i + 3) % 6]] == 3
        assert bertini(t.curve(ids[i])).id == ids[(i + 3) % 6]
    k = CANONICAL_CLASS
    divisors = [t.curve(i).divisor for i in ids]
    for i in range(6):
        assert divisors[i] + divisors[(i + 3) % 6] == -2 * k
        total3 = divisors[i] + divisors[(i + 2) % 6] + divisors[(i + 4) % 6]
        assert total3 == -3 * k
    assert sum(divisors[1:], divisors[0]) == -6 * k


def test_is_star():
    s = star_through("E7", "E8")
    assert is_star(s.curve_ids)
    assert not is_star(s.curve_ids[:5] + (s.curve_ids[4],))
    shuffled = (s.curve_ids[0], s.curve_ids[2], s.curve_ids[1],
                s.curve_ids[3], s.curve_ids[4], s.curve_ids[5])
    assert not is_star(shuffled)


@pytest.mark.parametrize("bad", [-1, 240])
def test_star_rejects_out_of_range_ids(bad):
    # (0, 1, 120, 239, 238, 119) is a star; -1 must not index curve 239
    assert is_star((0, 1, 120, 239, 238, 119))
    with pytest.raises(ValueError, match="0..239"):
        StarConfiguration((0, 1, 120, bad, 238, 119))
    assert not is_star((0, 1, 120, bad, 238, 119))


def loop_is_star(p, ids):
    """The distance-1/2/3 loop over a tuple pairing: the slow star check."""
    if len(ids) != 6 or len(set(ids)) != 6:
        return False
    return all(
        p[ids[i]][ids[(i + d) % 6]] == (0, 2, 3)[d - 1]
        for i in range(6)
        for d in (1, 2, 3)
    )


def gram_is_star(ids):
    try:
        StarConfiguration(tuple(ids))
    except ValueError:
        return False
    return True


def test_gram_check_agrees_with_loop_oracle():
    p = tuple(map(tuple, curve_table().pairing_array.tolist()))
    stars = star_table().ids_array.tolist()
    relabeled = [[row[i] for i in order] for row in stars for order in D6.tolist()]
    rng = random.Random(0)
    near_misses = []
    for _ in range(1000):
        a, b = rng.sample(stars, 2)
        swapped = list(a)
        for pos in rng.sample(range(6), rng.randint(1, 2)):
            swapped[pos] = rng.choice(b)
        # a reordered star passes in 12 of its 720 orders
        near_misses += [swapped, rng.sample(a + b, 6), rng.sample(a, 6)]
    short_or_long = [row[:5] for row in stars[:50]] + [
        row + [c] for row in stars[:50] for c in (row[0], (row[0] + 1) % 240)
    ]
    for ids in relabeled + near_misses + short_or_long:
        expected = loop_is_star(p, ids)
        assert gram_is_star(ids) == expected == is_star(ids), ids
    assert all(gram_is_star(ids) for ids in relabeled)
    assert {gram_is_star(ids) for ids in near_misses} == {True, False}
    assert not any(gram_is_star(ids) for ids in short_or_long)


def test_star_equality_ignores_labeling():
    s = star_through("E7", "E8")
    rotated = StarConfiguration(s.curve_ids[2:] + s.curve_ids[:2])
    reflected = StarConfiguration(tuple(reversed(s.curve_ids)))
    assert s == rotated == reflected
    assert len({s, rotated, reflected}) == 1


def test_enumerate_stars_totals():
    stars = enumerate_stars()
    assert len(stars) == 1120
    for c in range(240):
        assert len(stars_containing(c)) == 28


def test_every_disjoint_pair_yields_its_star():
    t = curve_table()
    count = 0
    for i in range(240):
        for j in np.flatnonzero(t.pairing_array[i] == 0).tolist():
            if j > i:
                s = star_through(i, j)
                assert {i, j} <= s.support
                count += 1
    assert count == 6720


def test_stars_stable_under_isometry():
    g = s8_action("(1 5)(2 6)(3 7)(4 8)")
    t = curve_table()
    perm = t.permutation_of(g)
    table = star_table()
    for s in table.stars[:50]:
        image = tuple(perm[c] for c in s.curve_ids)
        assert is_star(image)
        key = StarConfiguration(image).canonical_key
        assert (table.ids_array == key).all(axis=1).any()


def test_star_table_builds_each_star_once_on_request():
    table = stars_module.StarTable()
    assert table._built == {}
    s = table.star(7)
    assert s.curve_ids == tuple(table.ids_array[7].tolist())
    assert table.star(7) is s
    assert table.stars[7] is s
    assert len(table._built) == len(table.stars) == 1120


def test_star_table_checks_every_gram_block(monkeypatch):
    # no star-table row has this Gram block
    gram = np.array(stars_module.STAR_GRAM)
    gram[0, 1] = gram[1, 0] = 1
    monkeypatch.setattr(stars_module, "STAR_GRAM", gram.tolist())
    with pytest.raises(AssertionError, match="1120 canonical hexagons"):
        stars_module.StarTable()


def test_table_stars_skip_the_repeat_gram_check(monkeypatch):
    # the table checks all Gram blocks at once; its objects do not repeat it,
    # while a star built from outside ids still checks its own
    checked = []
    real = StarConfiguration.__post_init__

    def counting(self):
        checked.append(self.curve_ids)
        real(self)

    monkeypatch.setattr(StarConfiguration, "__post_init__", counting)
    table = stars_module.StarTable()
    built = table.stars
    assert checked == []
    for s, row in zip(built, table.ids_array.tolist()):
        want = StarConfiguration(tuple(row))
        assert s == want and s.curve_ids == want.curve_ids
    assert len(checked) == len(built) == 1120


def test_bertini_fixes_every_star_antipodally():
    from dpone.curves import bertini_isometry

    b = bertini_isometry()
    t = curve_table()
    perm = t.permutation_of(b)
    for s in enumerate_stars():
        for i, c in enumerate(s.curve_ids):
            assert perm[c] == s.curve_ids[(i + 3) % 6]


def test_classify_pair_overlap_raises_with_bertini_pair():
    s1 = star_through("E7", "E8")
    s2 = star_through("E6", "E7")
    with pytest.raises(OverlappingStars) as exc:
        classify_pair(s1, s2)
    shared = exc.value.shared
    assert shared == star_of_names("E7", "bE7")


def test_classify_pair_rejects_equal_stars():
    s = star_through("E7", "E8")
    with pytest.raises(OverlappingStars):
        classify_pair(s, StarConfiguration(s.curve_ids[1:] + s.curve_ids[:1]))


def test_classified_examples():
    a2x2_stars = [
        a.star
        for a in invariant_stars(representative_order3(CarterType3.A2x2))
        if a.kind is ActionKind.TRIVIAL
    ]
    assert len(a2x2_stars) == 2
    res = classify_pair(*a2x2_stars)
    assert res.pair_type is PairType.ASYNCHRONIZED


def test_classification_returns_matching_orderings():
    samples = sample_pairs_by_type(3)
    t = curve_table()
    from dpone.stars import PATTERNS

    for ptype, pairs in samples.items():
        pat = PATTERNS[ptype]
        for sa, sb in pairs:
            res = classify_pair(sa, sb)
            assert res.pair_type is ptype
            for i in range(6):
                for j in range(6):
                    assert (
                        t.pairing_array[res.ordering_a[i], res.ordering_b[j]]
                        == pat[i, j]
                    )


def test_trichotomy_census_totals():
    census = trichotomy_census()
    assert sum(census.values()) == 1120 * 1119 // 2
    assert census["overlapping"] == 45360
    assert (
        census["asynchronized"] + census["synchronized"] + census["abnormal"]
        == 1120 * 1119 // 2 - census["overlapping"]
    )


def test_overlap_count_closed_form():
    # stars through a curve all contain its Bertini partner, so overlaps
    # come one per unordered pair of the 28 stars through a Bertini pair
    t = curve_table()
    for c in range(0, 240, 17):
        assert stars_containing(c) == stars_containing(t.bertini_ids[c])
    n_pairs = 28 * 27 // 2
    assert trichotomy_census()["overlapping"] == 120 * n_pairs


def test_census_agrees_with_classify_pair_samples():
    census = trichotomy_census()
    samples = sample_pairs_by_type(5)
    for ptype, pairs in samples.items():
        assert len(pairs) == 5
    # per-star tallies derived from the census are consistent
    assert census["asynchronized"] * 2 // 1120 == 120
    assert census["synchronized"] * 2 // 1120 == 270
    assert census["abnormal"] * 2 // 1120 == 648


def brute_force_code(a, b):
    try:
        return PAIR_TYPES.index(classify_pair(a, b).pair_type)
    except OverlappingStars:
        return OVERLAPPING


@pytest.mark.parametrize(
    "element",
    [representative_order3(c) for c in CarterType3]
    + [s8_action("(1 2)(3 4)(5 6)(7 8)")],
    ids=[c.display for c in CarterType3] + ["(1 2)(3 4)(5 6)(7 8)"],
)
def test_pair_codes_match_classify_pair(element):
    found = [a.star for a in invariant_stars(element)]
    ids = np.array([s.curve_ids for s in found])
    for i in range(len(found) - 1):
        codes = pair_codes(ids[i], ids[i + 1 :]).tolist()
        assert codes == [brute_force_code(found[i], b) for b in found[i + 1 :]]


def test_sample_pairs_follow_the_combinations_walk():
    stars = enumerate_stars()
    walk = {p: [] for p in PairType}
    for a, b in combinations(stars, 2):
        if a.support & b.support:
            continue
        ptype = classify_pair(a, b).pair_type
        if len(walk[ptype]) < 10:
            walk[ptype].append((a, b))
        if all(len(v) >= 10 for v in walk.values()):
            break
    assert sample_pairs_by_type(10) == walk


def test_pattern_keys_are_disjoint():
    keys, codes = stars_module.pattern_keys()
    assert np.all(np.diff(keys) > 0)
    assert sorted(set(codes.tolist())) == [0, 1, 2]
    clash = dict(PATTERNS)
    clash[PairType.ABNORMAL] = PATTERNS[PairType.SYNCHRONIZED][::-1]
    with pytest.raises(TrichotomyViolation, match="share a relabeling"):
        pattern_key_table(clash)


def test_pair_codes_reject_corrupted_key(monkeypatch):
    samples = sample_pairs_by_type(1)
    keys, codes = stars_module.pattern_keys()
    for ptype, [(a, b)] in samples.items():
        cross = curve_table().pairing_array[np.ix_(a.curve_ids, b.curve_ids)]
        key = int(cross.ravel() @ 3 ** np.arange(36))
        assert key in keys.tolist()
        corrupted = np.where(keys == key, key + 1, keys)
        order = np.argsort(corrupted)
        monkeypatch.setattr(
            stars_module, "pattern_keys", lambda: (corrupted[order], codes[order])
        )
        with pytest.raises(TrichotomyViolation, match="matched no pattern"):
            pair_codes(np.array(a.curve_ids), np.array([b.curve_ids]))


def test_pair_codes_reject_unpaired_shared_curves():
    # two shared curves that are neighbors on the hexagon, not partners
    a = star_through("E7", "E8")
    b = star_through("L78", "Q123")
    forged = a.curve_ids[:2] + b.curve_ids[2:]
    with pytest.raises(TrichotomyViolation, match="Bertini pair"):
        pair_codes(np.array(a.curve_ids), np.array([forged]))


def test_pair_codes_reject_broken_overlap():
    # a hexagon sharing a curve but not its Bertini partner
    a = star_through("E7", "E8")
    b = star_through("L78", "Q123")
    forged = (a.curve_ids[0],) + b.curve_ids[1:]
    with pytest.raises(TrichotomyViolation, match="Bertini pair"):
        pair_codes(np.array(a.curve_ids), np.array([forged]))


def test_profile_shapes():
    s = star_through("E7", "E8")
    t = curve_table()
    res = profile("E6", s)
    assert res.kind is ProfileKind.TOUCHING
    assert res.vector[res.anchor] == 0
    assert res.vector[(res.anchor + 1) % 6] == 0
    base = (0, 0, 1, 2, 2, 1)
    assert tuple(res.vector[(i + res.anchor) % 6] for i in range(6)) == base
    ones = profile("L78", s)
    assert ones.kind is ProfileKind.ALL_ONES
    assert sum(ones.vector) == 6
    with pytest.raises(ValueError):
        profile("E7", s)


def test_profile_census():
    census = intersection_profile_census()
    assert sum(census.values()) == 1120 * 234
    assert census["all-ones"] == 80640
    assert census["touching"] == 181440


def test_touching_anchor_matches_adjacency():
    # a curve disjoint from two neighbors of a star anchors at that edge
    s = star_through("E7", "E8")
    res = profile("E6", s)
    t = curve_table()
    i, j = res.anchor, (res.anchor + 1) % 6
    e6 = t.id_of_name("E6")
    assert t.pairing_array[e6, s.curve_ids[i]] == 0
    assert t.pairing_array[e6, s.curve_ids[j]] == 0


def test_invariant_census_a2():
    g = representative_order3(CarterType3.A2)
    inv = invariant_curves(g)
    assert len(inv) == 72
    actions = invariant_stars(g)
    faithful = [a.star for a in actions if a.kind is ActionKind.FAITHFUL]
    assert len(faithful) == 1
    assert faithful[0].support == star_of_names(
        "C1-2", "C3-2", "C3-1", "C2-1", "C2-3", "C1-3"
    )
    for c in inv:
        assert profile(c, faithful[0]).kind is ProfileKind.ALL_ONES


def test_invariant_census_a2x2():
    g = representative_order3(CarterType3.A2x2)
    assert len(invariant_curves(g)) == 12
    actions = invariant_stars(g)
    trivial = [a.star for a in actions if a.kind is ActionKind.TRIVIAL]
    faithful = [a.star for a in actions if a.kind is ActionKind.FAITHFUL]
    assert len(trivial) == 2
    assert len(faithful) == 2
    assert {s.support for s in trivial} == {
        star_of_names("E7", "E8", "C7-8", "bE7", "bE8", "C8-7"),
        star_of_names("L78", "bQ123", "Q456", "bL78", "Q123", "bQ456"),
    }
    assert {s.support for s in faithful} == {
        star_of_names("C1-2", "C3-2", "C3-1", "C2-1", "C2-3", "C1-3"),
        star_of_names("C4-5", "C6-5", "C6-4", "C5-4", "C5-6", "C4-6"),
    }
    for a, b in combinations(trivial + faithful, 2):
        assert classify_pair(a, b).pair_type is PairType.ASYNCHRONIZED


def test_invariant_census_a2x3():
    g = representative_order3(CarterType3.A2x3)
    inv = invariant_curves(g)
    assert len(inv) == 6
    actions = invariant_stars(g)
    trivial = [a.star for a in actions if a.kind is ActionKind.TRIVIAL]
    faithful = [a.star for a in actions if a.kind is ActionKind.FAITHFUL]
    assert len(trivial) == 1
    assert trivial[0].support == frozenset(inv)
    assert len(faithful) == 12
    for s in faithful:
        assert classify_pair(trivial[0], s).pair_type is PairType.ASYNCHRONIZED


def test_invariant_census_a2x4():
    g = representative_order3(CarterType3.A2x4)
    assert invariant_curves(g) == ()
    actions = invariant_stars(g)
    assert len(actions) == 40
    assert all(a.kind is ActionKind.FAITHFUL for a in actions)


def test_faithful_action_is_two_step_rotation():
    g = representative_order3(CarterType3.A2)
    t = curve_table()
    perm = t.permutation_of(g)
    faithful = [
        a.star for a in invariant_stars(g) if a.kind is ActionKind.FAITHFUL
    ][0]
    ids = faithful.curve_ids
    shift = ids.index(perm[ids[0]])
    assert shift in (2, 4)
    for i in range(6):
        assert perm[ids[i]] == ids[(i + shift) % 6]


def test_faithful_invariant_pairs_never_abnormal():
    for ctype in CarterType3:
        g = representative_order3(ctype)
        actions = invariant_stars(g)
        faithful = [a.star for a in actions if a.kind is ActionKind.FAITHFUL]
        others = [a.star for a in actions]
        for f in faithful:
            for s in others:
                if f == s:
                    continue
                res = classify_pair(f, s)
                assert res.pair_type in (
                    PairType.ASYNCHRONIZED,
                    PairType.SYNCHRONIZED,
                )


def test_star_graph_automorphism_orders():
    stars = enumerate_stars()
    assert star_graph_automorphisms([stars[0]]) == 12
    samples = sample_pairs_by_type(2)
    expected = {
        PairType.ASYNCHRONIZED: 288,
        PairType.SYNCHRONIZED: 24,
        PairType.ABNORMAL: 16,
    }
    for ptype, pairs in samples.items():
        for sa, sb in pairs:
            assert star_graph_automorphisms([sa, sb]) == expected[ptype]


def backtrack_automorphisms(stars) -> int:
    """The recursive count that star_graph_automorphisms replaced."""
    verts = sorted(set().union(*(s.support for s in stars)))
    n = len(verts)
    w = curve_table().pairing_array[np.ix_(verts, verts)].tolist()
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


def test_automorphisms_match_backtracking():
    stars = enumerate_stars()
    graphs = [[s] for s in stars[:10]]
    graphs += [list(p) for pairs in sample_pairs_by_type(10).values() for p in pairs]
    ids = star_table().ids_array
    overlapping = np.flatnonzero(pair_codes(ids[0], ids[1:]) == OVERLAPPING)[:10]
    assert len(overlapping) == 10
    graphs += [[stars[0], stars[1 + b]] for b in overlapping.tolist()]
    rng = random.Random(3)
    graphs += [rng.sample(stars, 3) for _ in range(5)]
    for g in graphs:
        assert star_graph_automorphisms(g) == backtrack_automorphisms(g)


def test_star_plane_and_rotation():
    s = star_through("E7", "E8")
    a, b = star_plane(s)
    assert pair(a, a) == -2 and pair(b, b) == -2
    assert pair(a, b) == 1
    assert pair(a, CANONICAL_CLASS) == 0
    perm = reflection_permutation(a)[reflection_permutation(b)]
    assert permutation_orders(perm[None])[0] == 3
    ids = s.curve_ids
    shift = ids.index(perm[ids[0]])
    assert shift in (2, 4)


def test_star_text_format():
    s = star_through("E7", "E8")
    assert s.text() == "{E7, E8, C7-8, bE7, bE8, C8-7}"
