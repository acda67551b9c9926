"""The block scans of the first-hit rules against the loops they replaced.

`check_rational_two_stars` tests doubling blocks of pointwise-fixed star
rows (`criteria._first_asynchronized`), `check_not_rational_even`
counts each even element's Bertini flips before any star test, and
`check_rational_triple` reads its pairing block by outer indexing.  The
references below are the scans they replaced: one `asynchronized` call
per row, `_antipodal` on every even element in closure order, and the
`np.ix_` block read.  The rules report the first hit in a fixed order, so the witnesses must agree
exactly, on the oracle groups, the 400 sweep groups, and hand-built row
sets whose first pair sits at every row.
"""

import math

import numpy as np
import pytest

import dpone.criteria as criteria
from dpone.criteria import (
    EvenWitness,
    TripleWitness,
    TwoStarsWitness,
    _antipodal,
    _first_asynchronized,
    check_not_rational_even,
    check_rational_triple,
    check_rational_two_stars,
)
from dpone.curves import curve_table, s8_action
from dpone.lattice import GroupSpec
from dpone.stars import (
    PairType,
    asynchronized,
    classify_pair,
    invariant_curves,
    star_table,
)
from test_group_oracles import GROUPS
from test_rule_sweep import family


def row_loop_first_pair(rows: np.ndarray) -> tuple[int, int] | None:
    """The first asynchronized pair of rows, one `asynchronized` call per row."""
    for i in range(len(rows) - 1):
        hits = np.flatnonzero(asynchronized(rows[i], rows[i + 1 :]))
        if len(hits):
            return i, i + 1 + int(hits[0])
    return None


def row_loop_two_stars(gamma: GroupSpec) -> TwoStarsWitness | None:
    table = star_table()
    fixed = np.flatnonzero(gamma.fixed_curves[table.ids_array].all(axis=1))
    found = row_loop_first_pair(table.ids_array[fixed])
    if found is None:
        return None
    a, b = fixed[list(found)].tolist()
    return TwoStarsWitness(stars=(table.stars[a], table.stars[b]))


def element_loop_even(gamma: GroupSpec) -> EvenWitness | None:
    """The first even element, in closure order, that flips a star."""
    for i in np.flatnonzero(gamma.orders % 2 == 0):
        hits = np.flatnonzero(_antipodal(gamma.perms[i], star_table().ids_array))
        if len(hits):
            star = star_table().stars[hits[0]]
            return EvenWitness((gamma.element(i),), stars=(star,))
    return None


def ix_triple(gamma: GroupSpec) -> TripleWitness | None:
    """The triple scan over a pairing block read with `np.ix_`."""
    inv = invariant_curves(gamma)
    p = curve_table().pairing_array[np.ix_(inv, inv)].tolist()
    for i, a in enumerate(inv):
        for j, b in enumerate(inv):
            if p[i][j] != 1:
                continue
            for k, c in enumerate(inv):
                if c > a and p[j][k] == 1 and p[i][k] == 0:
                    return TripleWitness(curves=(a, b, c))
    return None


def assert_witnesses_match(groups) -> dict[str, int]:
    """Each rule equals its loop on every group; the hits of each."""
    hits = {"two": 0, "even": 0, "triple": 0}
    for gamma in groups:
        two, even = check_rational_two_stars(gamma), check_not_rational_even(gamma)
        triple = check_rational_triple(gamma)
        assert two == row_loop_two_stars(gamma)
        assert even == element_loop_even(gamma)
        assert triple == ix_triple(gamma)
        hits["two"] += two is not None
        hits["even"] += even is not None
        hits["triple"] += triple is not None
    return hits


def test_witnesses_match_the_loops_on_oracle_groups():
    assert all(assert_witnesses_match(GroupSpec(g) for g in GROUPS.values()).values())


def test_witnesses_match_the_loops_on_sweep_groups():
    assert all(assert_witnesses_match(family()).values())


def pair_free_rows() -> np.ndarray:
    """The 40 pointwise-fixed stars of <(1 2 3 4)>, no two asynchronized."""
    table = star_table()
    gamma = GroupSpec((s8_action("(1 2 3 4)"),))
    rows = table.ids_array[gamma.fixed_curves[table.ids_array].all(axis=1)]
    assert len(rows) == 40 and not asynchronized(rows, rows).any()
    return rows


def first_partner(rows: np.ndarray, p: int) -> np.ndarray:
    """The lowest-id star asynchronized with row p and with no row before it."""
    table = star_table()
    mask = asynchronized(rows, table.ids_array)
    ids = np.flatnonzero(mask[p] & ~mask[:p].any(axis=0))
    return table.ids_array[ids[0]]


@pytest.mark.parametrize("after", [True, False], ids=["partner-next", "partner-last"])
def test_block_scan_finds_the_first_pair_at_every_row(after):
    # rows 0..39 cover blocks 1, 2, 4, 8, 16 and 32 of the scan, so the hit
    # lands at the start, inside and at the end of each
    rows = pair_free_rows()
    for p in range(len(rows)):
        partner = first_partner(rows, p)
        at = p + 1 if after else len(rows)
        built = np.insert(rows, at, partner, axis=0)
        found = _first_asynchronized(built)
        assert found == row_loop_first_pair(built) == (p, at)
        pair = classify_pair(*built[list(found)].tolist())
        assert pair.pair_type is PairType.ASYNCHRONIZED


def test_block_scan_edge_sizes():
    rows = pair_free_rows()
    assert _first_asynchronized(rows[:0]) is None
    assert _first_asynchronized(rows[:1]) is None
    assert _first_asynchronized(rows) is None
    pair = np.stack([rows[0], first_partner(rows, 0)])
    assert _first_asynchronized(pair) == (0, 1)


def test_block_mask_matches_row_masks():
    rows = star_table().ids_array
    block = asynchronized(rows[:100], rows)
    assert block.shape == (100, 1120)
    assert np.array_equal(block, np.array([asynchronized(a, rows) for a in rows[:100]]))
    assert not block[np.arange(100), np.arange(100)].any()  # a star shares its curves
    assert np.array_equal(block, asynchronized(rows, rows[:100]).T)
    assert block.sum() == 100 * 120  # each star has 120 asynchronized partners


def test_two_stars_scan_calls_asynchronized_log_times(monkeypatch):
    calls = []

    def counted(a, rest):
        calls.append(len(a))
        return asynchronized(a, rest)

    monkeypatch.setattr(criteria, "asynchronized", counted)
    assert check_rational_two_stars(GroupSpec((s8_action("(1 2 3 4)"),))) is None
    assert len(calls) <= math.ceil(math.log2(40)) == 6
    assert calls == [1, 2, 4, 8, 16, 9]  # the last block stops at row 39


# per group: even elements, and those the rule runs the star test on
FLIP_TESTS = {"S5": (75, 0), "S4": (15, 0), "S3wrC2": (63, 6), "<S5,b>": (195, 1),
              "<(1 2)(3 4)*b>": (1, 1)}


@pytest.mark.parametrize("name", FLIP_TESTS)
def test_even_rule_tests_stars_only_for_six_flips(monkeypatch, name):
    gamma = GroupSpec(GROUPS[name])
    bertini = curve_table().bertini_ids
    even = np.flatnonzero(gamma.orders % 2 == 0)
    tested = []

    def watched(perm, rows):
        tested.append(perm)
        return _antipodal(perm, rows)

    monkeypatch.setattr(criteria, "_antipodal", watched)
    witness = check_not_rational_even(gamma)
    assert (len(even), len(tested)) == FLIP_TESTS[name]
    # the tested elements are, in closure order, the even ones with six or
    # more flips, up to the hit
    flipping = [p for p in gamma.perms[even] if (p == bertini).sum() >= 6]
    assert np.array_equal(tested, flipping[: len(tested)])
    assert witness == element_loop_even(gamma)
