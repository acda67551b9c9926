"""The first-hit scans of the rules, on hand-built inputs and call counts.

`check_rational_two_stars` looks up doubling blocks of pointwise-fixed
star ids in the star table's partner rows (`criteria._first_asynchronized`),
and `check_not_rational_even` runs the star test only on each even
element's mask of Bertini flips, and only for elements that flip six
curves or more.  The references are in `oracles`: one `asynchronized`
call per row, and the doubling blocks of rows tested with `asynchronized`
against every later row.  Their agreement on the group families is a row
of the differential table; here the first pair sits at every row of the
scan of hand-built star sets, and the scans are counted.
"""

import math

import numpy as np
import pytest

import dpone.criteria as criteria
import dpone.stars as stars
from dpone.criteria import (
    _first_asynchronized,
    _flipped_stars,
    check_not_rational_even,
    check_rational_two_stars,
)
from dpone.curves import curve_table, s8_action
from dpone.groups import GroupSpec
from dpone.stars import (
    PairType,
    asynchronized,
    classify_pair,
    star_table,
)
from families import group
from oracles import block_scan_first_pair, element_loop_even, first_pair_ids, row_loop_first_pair


def mask_of(fixed) -> np.ndarray:
    mask = np.zeros(1120, dtype=bool)
    mask[fixed] = True
    return mask


def pair_free_ids() -> np.ndarray:
    """The ids of the 40 pointwise-fixed stars of <(1 2 3 4)>, no two asynchronized."""
    table = star_table()
    gamma = GroupSpec((s8_action("(1 2 3 4)"),))
    fixed = np.flatnonzero(gamma.fixed_curves[table.ids_array].all(axis=1))
    rows = table.ids_array[fixed]
    assert len(fixed) == 40 and not asynchronized(rows, rows).any()
    return fixed


def ids_with_first_pair_at(r: int, after: bool) -> tuple[np.ndarray, int, int]:
    """41 ascending star ids whose first asynchronized pair (a, b) has a at
    position r, and the pair.

    Stars 0..40 are pairwise not asynchronized, so 0..r-1 come first.  a
    is the least later star with a partner above it, both with no partner
    among 0..r-1, and b is its least such partner (b next after a) or its
    greatest (b last); the filler stars have no partner among 0..r-1 and
    lie past b, or between a and b without being a's partners.
    """
    partners = star_table().partners
    assert not mask_of(np.arange(41))[partners[:41]].any()
    free = np.ones(1120, dtype=bool)
    free[:r] = False
    free[partners[:r]] = False

    def free_above(s):
        return partners[s][free[partners[s]] & (partners[s] > s)]

    a = next(s for s in np.flatnonzero(free) if len(free_above(s)))
    b = int(free_above(a)[0 if after else -1])
    filler = free & ~mask_of(partners[a])
    if after:
        filler[: b + 1] = False
    else:
        filler[: a + 1] = filler[b:] = False
    fill = np.flatnonzero(filler)[: 39 - r]
    fixed = np.sort(np.concatenate([np.arange(r), [a, b], fill]))
    assert len(fixed) == 41 and fixed[r] == a
    return fixed, int(a), b


@pytest.mark.parametrize("after", [True, False], ids=["partner-next", "partner-last"])
def test_block_scan_finds_the_first_pair_at_every_row(after):
    # 41 ids cover blocks 1, 2, 4, 8, 16 and 10 of the scan, so the hit
    # lands at the start, inside and at the end of each; the last id can
    # only be a partner
    for r in range(40):
        fixed, a, b = ids_with_first_pair_at(r, after)
        found = _first_asynchronized(fixed, mask_of(fixed))
        assert found == (a, b)
        assert first_pair_ids(block_scan_first_pair, fixed) == found
        assert first_pair_ids(row_loop_first_pair, fixed) == found
        pair = classify_pair(*star_table().ids_array[list(found)].tolist())
        assert pair.pair_type is PairType.ASYNCHRONIZED


def test_block_scan_edge_sizes():
    ids = pair_free_ids()
    for fixed in (ids[:0], ids[:1], ids):
        assert _first_asynchronized(fixed, mask_of(fixed)) is None
    partner = star_table().partners[ids[0], 0]
    pair = np.array(sorted([ids[0], partner]))
    assert _first_asynchronized(pair, mask_of(pair)) == tuple(pair.tolist())


def test_block_mask_matches_row_masks():
    rows = star_table().ids_array
    block = asynchronized(rows[:100], rows)
    assert block.shape == (100, 1120)
    assert np.array_equal(block, np.array([asynchronized(a, rows) for a in rows[:100]]))
    assert not block[np.arange(100), np.arange(100)].any()  # a star shares its curves
    assert np.array_equal(block, asynchronized(rows, rows[:100]).T)
    assert block.sum() == 100 * 120  # each star has 120 asynchronized partners


def test_two_stars_scan_calls_asynchronized_log_times(monkeypatch):
    # once the partner table is built, the scan makes no asynchronized call
    # and looks up partner rows in doubling blocks
    table = star_table()
    partners = table.partners
    calls, blocks = [], []

    def counted(a, rest):
        calls.append(len(a))
        return asynchronized(a, rest)

    class Watched:
        def __getitem__(self, index):
            blocks.append(len(index))
            return partners[index]

    monkeypatch.setattr(stars, "asynchronized", counted)
    monkeypatch.setattr(criteria, "asynchronized", counted)
    monkeypatch.setitem(table.__dict__, "partners", Watched())
    assert check_rational_two_stars(GroupSpec((s8_action("(1 2 3 4)"),))) is None
    assert calls == []
    assert len(blocks) <= math.ceil(math.log2(40)) == 6
    assert blocks == [1, 2, 4, 8, 16, 9]  # the last block stops at star 39


# per group: even elements, and those the rule runs the star test on
FLIP_TESTS = {"S5": (75, 0), "S4": (15, 0), "S3wrC2": (63, 6), "<S5,b>": (195, 1),
              "<(1 2)(3 4)*b>": (1, 1)}


@pytest.mark.parametrize("name", FLIP_TESTS)
def test_even_rule_tests_stars_only_for_six_flips(monkeypatch, name):
    gamma = group(name)
    bertini = curve_table().bertini_ids
    even = np.flatnonzero(gamma.orders % 2 == 0)
    tested = []

    def watched(flipped, rows):
        tested.append(flipped)
        return _flipped_stars(flipped, rows)

    monkeypatch.setattr(criteria, "_flipped_stars", watched)
    witness = check_not_rational_even(gamma)
    assert (len(even), len(tested)) == FLIP_TESTS[name]
    # the tested flip masks are, in closure order, those of the even
    # elements with six or more flips, up to the hit
    flipping = [p == bertini for p in gamma.perms[even] if (p == bertini).sum() >= 6]
    assert np.array_equal(tested, flipping[: len(tested)])
    assert witness == element_loop_even(gamma)
