import random
from itertools import combinations

import numpy as np
import pytest

from dpone.curves import curve_table, s8_action
from dpone.groups import TRIVIAL_GROUP, GroupSpec, permutation_orders
from dpone.lattice import CANONICAL_CLASS, CheckViolation, pair
import dpone.stars as stars_module
from dpone.stars import (
    D6,
    OVERLAPPING,
    PAIR_TYPES,
    PATTERNS,
    ActionKind,
    OverlappingStars,
    PairType,
    STAR_GRAM,
    TrichotomyViolation,
    classify_pair,
    invariant_curves,
    pair_codes,
    pattern_key_table,
    profile,
    sample_pairs_by_type,
    split_invariant_stars,
    star_graph_automorphisms,
    star_id,
    star_orbit,
    star_plane,
    star_table,
    star_text,
    trichotomy_census,
)
from dpone.weyl import CarterType3, reflection_permutation, representative_order3
from oracles import invariant_pair_codes, star_through


def star_of_names(*names):
    t = curve_table()
    return frozenset(t.id_of_name(n) for n in names)


def stars_containing(c):
    """Star-table ids of the stars through curve c."""
    return set(np.flatnonzero((star_table().ids_array == c).any(axis=1)).tolist())


def test_star_through_example():
    # the slow builder, and the table row through the same edge
    t, table = curve_table(), star_table()
    s = star_through("E7", "E8")
    names = tuple(t.curve(i).name for i in s)
    assert names == ("E7", "E8", "C7-8", "bE7", "bE8", "C8-7")
    row = table.stars[table.edge_star[t.id_of_name("E8"), t.id_of_name("E7")]]
    assert star_text(row) == "{E8, E7, C8-7, bE8, bE7, C7-8}"
    assert star_id(s) == star_id(row)


def test_star_through_rejects_meeting_curves():
    t = curve_table()
    e1, l12 = t.id_of_name("E1"), t.id_of_name("L12")
    with pytest.raises(ValueError):
        star_through("E1", "L12")
    assert star_table().edge_star[e1, l12] == -1


def test_star_pattern_invariants():
    s = star_through("E7", "E8")
    t = curve_table()
    ids = s
    for i in range(6):
        assert t.pairing_array[ids[i], ids[(i + 1) % 6]] == 0
        assert t.pairing_array[ids[i], ids[(i + 2) % 6]] == 2
        assert t.pairing_array[ids[i], ids[(i + 3) % 6]] == 3
        assert t.bertini_ids[ids[i]] == ids[(i + 3) % 6]
    k = CANONICAL_CLASS
    divisors = [t.curve(i).divisor for i in ids]
    for i in range(6):
        assert divisors[i] + divisors[(i + 3) % 6] == -2 * k
        total3 = divisors[i] + divisors[(i + 2) % 6] + divisors[(i + 4) % 6]
        assert total3 == -3 * k
    assert sum(divisors[1:], divisors[0]) == -6 * k


def test_is_star():
    # star_id answers whether six ids form a star in their order
    s = star_through("E7", "E8")
    assert star_table().stars[star_id(s)] == (s[1], s[0], s[5], s[4], s[3], s[2])
    shuffled = (s[0], s[2], s[1], s[3], s[4], s[5])
    for bad in (s[:5] + (s[4],), shuffled):
        with pytest.raises(ValueError, match="do not form a star"):
            star_id(bad)


@pytest.mark.parametrize("ids", [
    pytest.param((0, 1, 120, -1, 238, 119), id="-1"),
    pytest.param((0, 1, 120, 240, 238, 119), id="240"),
    pytest.param((False, True, 120, 239, 238, 119), id="bools"),
    pytest.param(5, id="bare-id"),
])
def test_star_rejects_out_of_range_ids(ids):
    # (0, 1, 120, 239, 238, 119) is a star; -1 must not index curve 239,
    # False and True are not the curve ids 0 and 1, and one id is no star
    assert star_id((0, 1, 120, 239, 238, 119)) == 0
    with pytest.raises(ValueError, match="0..239"):
        star_id(ids)


@pytest.mark.parametrize("bad", [
    pytest.param((0, 1, 120, -1, 238, 119), id="-1"),
    pytest.param((0, 1, 120, 240, 238, 119), id="240"),
    pytest.param((0, 120, 1, 239, 238, 119), id="non-star"),
    pytest.param((False, True, 120, 239, 238, 119), id="bools"),
])
def test_pair_and_profile_reject_bad_stars(bad):
    # each is a bad input, not a library fault: -1 must not read as curve
    # 239, nor a non-star as a broken trichotomy
    star = (0, 1, 120, 239, 238, 119)
    other = next(s for s in star_table().stars if not set(s) & set(star))
    outside = next(c for c in range(240) if c not in star)
    classify_pair(star, other)
    profile(outside, star)
    for a, b in ((bad, other), (other, bad)):
        with pytest.raises(ValueError):
            classify_pair(a, b)
    with pytest.raises(ValueError):
        profile(outside, bad)


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
    """The Gram-block star check: six ids in 0..239 whose pairings are STAR_GRAM."""
    if len(ids) != 6 or not all(0 <= c < 240 for c in ids):
        return False
    return curve_table().pairing_array[np.ix_(ids, ids)].tolist() == STAR_GRAM


def star_candidates():
    """All 1120 x 12 relabeled table rows, seeded near misses, wrong lengths."""
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
    return relabeled, near_misses, short_or_long


def test_gram_check_agrees_with_loop_oracle():
    p = tuple(map(tuple, curve_table().pairing_array.tolist()))
    relabeled, near_misses, short_or_long = star_candidates()
    rows = star_table().stars
    for ids in relabeled + near_misses + short_or_long:
        expected = loop_is_star(p, ids)
        assert gram_is_star(ids) == expected, ids
        if expected:
            assert set(rows[star_id(ids)]) == set(ids), ids
        else:
            with pytest.raises(ValueError):
                star_id(ids)
    assert all(gram_is_star(ids) for ids in relabeled)
    assert {gram_is_star(ids) for ids in near_misses} == {True, False}
    assert not any(gram_is_star(ids) for ids in short_or_long)


def packed_key_star_id():
    """The star_id that the edge lookup replaced, with its table check.

    Each row packed base 256 orders like its id tuple; the table's keys are
    its rows' keys, each the least of its 12 relabelings, strictly
    increasing.  Ids are the row whose key is the least of theirs.
    """
    weights = 256 ** np.arange(5, -1, -1)
    relabeled = star_table().ids_array.astype(np.int64)[:, D6] @ weights
    keys = relabeled[:, 0]
    assert np.array_equal(keys, relabeled.min(axis=1))
    assert np.all(np.diff(keys) > 0)

    def star_id(ids):
        if len(ids) != 6 or not all(0 <= c < 240 for c in ids):
            raise ValueError("not six curve ids")
        key = (np.array(ids, dtype=np.int64)[D6] @ weights).min()
        sid = int(np.searchsorted(keys, key))
        if sid == len(keys) or keys[sid] != key:
            raise ValueError("curves do not form a star in this order")
        return sid

    return star_id


def test_edge_lookup_matches_packed_keys():
    oracle = packed_key_star_id()
    relabeled, near_misses, short_or_long = star_candidates()

    def found(lookup, ids):
        try:
            return lookup(ids)
        except ValueError:
            return None

    for sid, ids in enumerate(relabeled):
        assert star_id(ids) == oracle(ids) == sid // 12
    for ids in near_misses + short_or_long:
        assert found(star_id, ids) == found(oracle, ids), ids


def test_star_equality_ignores_labeling():
    s = star_through("E7", "E8")
    rotated = s[2:] + s[:2]
    reflected = tuple(reversed(s))
    assert star_id(s) == star_id(rotated) == star_id(reflected)
    assert set(star_table().stars[star_id(s)]) == set(s)
    swapped = (s[1], s[0]) + s[2:]
    with pytest.raises(ValueError, match="do not form a star in this order"):
        star_id(swapped)


def test_stars_stable_under_isometry():
    g = s8_action("(1 5)(2 6)(3 7)(4 8)")
    t = curve_table()
    perm = t.permutation_of(g)
    table = star_table()
    for s in table.stars[:50]:
        image = tuple(perm[c] for c in s)
        assert set(table.stars[star_id(image)]) == set(image)


def test_star_table_builds_each_star_once_on_request():
    # the id tuples are made on the first read of stars, once, as Python ints
    table = stars_module.StarTable()
    assert "stars" not in vars(table)
    stars = table.stars
    assert table.stars is stars and len(stars) == 1120
    assert [list(s) for s in stars] == table.ids_array.tolist()
    assert {type(c) for s in stars for c in s} == {int}


def test_star_table_checks_every_gram_block(monkeypatch):
    # no star-table row has this Gram block
    gram = np.array(stars_module.STAR_GRAM)
    gram[0, 1] = gram[1, 0] = 1
    monkeypatch.setattr(stars_module, "STAR_GRAM", gram.tolist())
    with pytest.raises(CheckViolation, match="1120 canonical hexagons"):
        stars_module.StarTable()


def test_table_stars_skip_the_repeat_gram_check(monkeypatch):
    # the table checks all Gram blocks once, when built; star_id then reads
    # the row through the ids' first edge and reads no Gram block
    table = star_table()
    gram = np.array(STAR_GRAM)
    gram[0, 1] = gram[1, 0] = 1
    monkeypatch.setattr(stars_module, "STAR_GRAM", gram.tolist())
    for sid, s in enumerate(table.stars):
        assert star_id(s) == sid
        assert star_id(s[3:] + s[:3]) == sid
    with pytest.raises(CheckViolation, match="1120 canonical hexagons"):
        stars_module.StarTable()


def test_bertini_fixes_every_star_antipodally():
    from dpone.curves import bertini_isometry

    b = bertini_isometry()
    t = curve_table()
    perm = t.permutation_of(b)
    for s in star_table().stars:
        for i, c in enumerate(s):
            assert perm[c] == s[(i + 3) % 6]


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
        classify_pair(s, s[1:] + s[:1])


def test_classified_examples():
    a2x2_stars, _ = split_invariant_stars(representative_order3(CarterType3.A2x2))
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


def test_census_refuses_a_corrupted_reflection(monkeypatch):
    # with the simple reflections forged to the identity, the orbit of
    # star 0 is star 0 alone, so no orbit count proves the census
    identity = np.arange(240, dtype=np.int16)
    monkeypatch.setattr(stars_module, "reflection_permutation", lambda r: identity)
    with pytest.raises(TrichotomyViolation, match="every star"):
        trichotomy_census.__wrapped__()


def test_star_orbit_refuses_an_edge_sent_to_meeting_curves():
    table, t = star_table(), curve_table()
    a, b = table.ids_array[0, :2]
    c = int(np.flatnonzero(t.pairing_array[a] == 1)[0])
    swap = np.arange(240, dtype=np.int16)  # b <-> c: not an isometry
    swap[[b, c]] = swap[[c, b]]
    with pytest.raises(TrichotomyViolation, match="meet"):
        star_orbit(swap[None])
    assert star_orbit(np.arange(240, dtype=np.int16)[None]).sum() == 1


def test_census_refuses_a_wrong_row_zero_code(monkeypatch):
    # star 0's first asynchronized pair forged synchronized: the orbit
    # count moves and the count of cross pairings equal to 1 does not
    real = stars_module.pair_codes

    def forged(a, rest):
        codes = real(a, rest)
        codes[np.argmax(codes == 0)] = 1
        return codes

    monkeypatch.setattr(stars_module, "pair_codes", forged)
    with pytest.raises(TrichotomyViolation, match="disagrees"):
        trichotomy_census.__wrapped__()


def test_overlap_count_closed_form():
    # stars through a curve all contain its Bertini partner, so overlaps
    # come one per unordered pair of the 28 stars through a Bertini pair
    t = curve_table()
    for c in range(0, 240, 17):
        assert stars_containing(c) == stars_containing(t.bertini_ids[c])
    n_pairs = 28 * 27 // 2
    assert trichotomy_census()["overlapping"] == 120 * n_pairs


@pytest.mark.parametrize(
    "element",
    [representative_order3(c) for c in CarterType3]
    + [s8_action("(1 2)(3 4)(5 6)(7 8)")],
    ids=[c.display for c in CarterType3] + ["(1 2)(3 4)(5 6)(7 8)"],
)
def test_pair_codes_match_classify_pair(element):
    actions, brute = invariant_pair_codes(element)
    ids = np.array([a.star for a in actions])
    for i in range(len(actions) - 1):
        assert pair_codes(ids[i], ids[i + 1 :]).tolist() == brute[i, i + 1 :].tolist()


def test_sample_pairs_follow_the_combinations_walk():
    stars = star_table().stars
    walk = {p: [] for p in PairType}
    for a, b in combinations(stars, 2):
        if set(a) & set(b):
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
        cross = curve_table().pairing_array[np.ix_(a, b)]
        key = int(cross.ravel() @ 3 ** np.arange(36))
        assert key in keys.tolist()
        corrupted = np.where(keys == key, key + 1, keys)
        order = np.argsort(corrupted)
        monkeypatch.setattr(
            stars_module, "pattern_keys", lambda: (corrupted[order], codes[order])
        )
        with pytest.raises(TrichotomyViolation, match="matched no pattern"):
            pair_codes(np.array(a), np.array([b]))


def test_pair_codes_reject_unpaired_shared_curves():
    # two shared curves that are neighbors on the hexagon, not partners
    a = star_through("E7", "E8")
    b = star_through("L78", "Q123")
    forged = a[:2] + b[2:]
    with pytest.raises(TrichotomyViolation, match="Bertini pair"):
        pair_codes(np.array(a), np.array([forged]))


def test_pair_codes_reject_broken_overlap():
    # a hexagon sharing a curve but not its Bertini partner
    a = star_through("E7", "E8")
    b = star_through("L78", "Q123")
    forged = (a[0],) + b[1:]
    with pytest.raises(TrichotomyViolation, match="Bertini pair"):
        pair_codes(np.array(a), np.array([forged]))


def test_profile_shapes():
    s = star_through("E7", "E8")
    t = curve_table()
    e6, l78, e7 = map(t.id_of_name, ("E6", "L78", "E7"))
    vector = lambda c: t.pairing_array[c, list(s)].tolist()
    anchor = profile(e6, s)
    base = [0, 0, 1, 2, 2, 1]
    assert [vector(e6)[(i + anchor) % 6] for i in range(6)] == base
    assert profile(l78, s) is None
    assert vector(l78) == [1] * 6
    with pytest.raises(ValueError, match="lies on the star"):
        profile(e7, s)


def rotation_loop_profile(cid, star):
    """The scalar loop that profile's shape table replaced."""
    vec = tuple(curve_table().pairing_array[cid, list(star)].tolist())
    if all(v == 1 for v in vec):
        return None
    for k in range(6):
        if all(vec[(i + k) % 6] == (0, 0, 1, 2, 2, 1)[i] for i in range(6)):
            return k
    raise TrichotomyViolation("fits neither shape")


def test_profile_matches_rotation_loop():
    for star in star_table().stars[:50]:
        for c in range(240):
            if c in star:
                with pytest.raises(ValueError, match="lies on the star"):
                    profile(c, star)
            else:
                assert profile(c, star) == rotation_loop_profile(c, star)


def test_profile_rejects_an_unknown_shape(monkeypatch):
    s = star_through("E7", "E8")
    # no profile is all nines
    shapes = stars_module.PROFILE_SHAPES.copy()
    shapes[stars_module.ALL_ONES] = 9
    monkeypatch.setattr(stars_module, "PROFILE_SHAPES", shapes)
    with pytest.raises(TrichotomyViolation, match="fits neither shape"):
        profile(curve_table().id_of_name("L78"), s)
    with pytest.raises(TrichotomyViolation, match="unrecognized profile"):
        stars_module.intersection_profile_census.__wrapped__()


def test_touching_anchor_matches_adjacency():
    # a curve disjoint from two neighbors of a star anchors at that edge
    s = star_through("E7", "E8")
    t = curve_table()
    e6 = t.id_of_name("E6")
    anchor = profile(e6, s)
    i, j = anchor, (anchor + 1) % 6
    assert t.pairing_array[e6, s[i]] == 0
    assert t.pairing_array[e6, s[j]] == 0


def test_invariant_curves_read_the_kept_mask():
    g = GroupSpec((representative_order3(CarterType3.A2x2),))
    mask = g.fixed_curves
    assert mask is g.fixed_curves and not mask.flags.writeable
    assert invariant_curves(g) == tuple(np.flatnonzero(mask).tolist())
    assert invariant_curves(g) == invariant_curves(g.generators[0])
    assert len(invariant_curves(g)) == 12
    assert TRIVIAL_GROUP.fixed_curves.all()


def test_faithful_action_is_two_step_rotation():
    g = representative_order3(CarterType3.A2)
    t = curve_table()
    perm = t.permutation_of(g)
    ids = split_invariant_stars(g)[1][0]
    shift = ids.index(perm[ids[0]])
    assert shift in (2, 4)
    for i in range(6):
        assert perm[ids[i]] == ids[(i + shift) % 6]


def test_faithful_invariant_pairs_never_abnormal():
    # classify_pair on every pair of a representative's invariant stars
    # with one of them faithful: none overlap and none are abnormal
    allowed = {PAIR_TYPES.index(PairType.ASYNCHRONIZED), PAIR_TYPES.index(PairType.SYNCHRONIZED)}
    for ctype in CarterType3:
        actions, brute = invariant_pair_codes(representative_order3(ctype))
        faithful = np.array([a.kind is ActionKind.FAITHFUL for a in actions])
        pairs = np.triu(faithful[:, None] | faithful[None, :], 1)
        assert set(brute[pairs].tolist()) <= allowed, ctype


def backtrack_automorphisms(stars) -> int:
    """The recursive count that star_graph_automorphisms replaced."""
    verts = sorted(set().union(*stars))
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
    stars = star_table().stars
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
    shift = s.index(perm[s[0]])
    assert shift in (2, 4)


def test_star_text_format():
    s = star_through("E7", "E8")
    assert star_text(s) == "{E7, E8, C7-8, bE7, bE8, C8-7}"
