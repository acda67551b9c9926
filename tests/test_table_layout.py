"""The shared tables' layout and the per-report kernels that rely on it.

`CurveTable.permutation_of` finds the images of the 240 curves by one
packed-key product, and the star kernels read the star table slot-first,
through the intp, Fortran-ordered ``ids_array``.  The references in
`oracles` are the code they replaced: the coefficient-row
`permutation_of`, which forms every image row and looks it up with
`ids_of`, and the row-major kernels, which gather (m, 6) rows from the old
C-ordered int16 table (`oracles.rows16`) and reduce over the last axis.
Their answers must agree exactly on hypothesis words here, and in the
differential table on every element of the oracle groups' and the sweep
groups' closures, whose generators the one-element images
(`images_of`) are checked on too.  The slot-first pair test, run once
on all 626,640 pairs, agrees with the row-major one and with each row
run alone, and the partner rows the rules read are its true entries;
test_pair_code_rules.py checks it against the `pair_codes` code the
rules tested before.  The shared tables are read-only, so a stray write
raises instead of corrupting every later answer.
"""

import shlex
import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpone.curves import bertini_isometry, curve_table
from dpone.lattice import CheckViolation, LatticeIsometry
from dpone.stars import asynchronized, star_table
from families import fresh_python, group, groups, word_isometry, words
from oracles import coefficient_row_permutation_of, rows16


def row_major_asynchronized(a: np.ndarray, rest: np.ndarray) -> np.ndarray:
    ones = (curve_table().pairing_array[a] == 1).sum(axis=-2, dtype=np.int8)
    return ones[..., rest].sum(axis=-1, dtype=np.int8) == 36


def assert_same_permutation(m: LatticeIsometry) -> None:
    perm = curve_table().permutation_of(m)
    assert perm.dtype == np.int16
    assert np.array_equal(perm, coefficient_row_permutation_of(m))


@settings(max_examples=100, deadline=None)
@given(words, st.booleans())
def test_key_product_matches_coefficient_rows_on_words(word, bertini):
    m = word_isometry(word)
    assert_same_permutation(m @ bertini_isometry() if bertini else m)


@cache
def all_pairs_block() -> np.ndarray:
    """`asynchronized` on every pair of stars, run once for this module."""
    ids = star_table().ids_array
    return asynchronized(ids, ids)


def test_slot_first_asynchronized_matches_row_major_on_all_pairs():
    ids = star_table().ids_array
    block = all_pairs_block()
    assert np.array_equal(block, row_major_asynchronized(rows16(), rows16()))
    assert np.array_equal(asynchronized(rows16(), rows16()), block)  # C-ordered rows too
    assert block.sum() == 2 * 67200  # each asynchronized pair, both ways
    for i in range(len(ids)):
        assert np.array_equal(asynchronized(ids[i], ids), block[i])


def test_partner_table_matches_asynchronized_on_all_pairs():
    partners = star_table().partners
    assert partners.shape == (1120, 120) and partners.dtype == np.int16
    assert (np.diff(partners, axis=1) > 0).all()  # each row ascends
    block = all_pairs_block()
    table = np.zeros_like(block)
    table[np.arange(1120)[:, None], partners] = True
    assert np.array_equal(table, block)
    assert np.array_equal(table, table.T)  # symmetric


def test_partner_table_build_stays_small(monkeypatch):
    # the build works in blocks of rows: one (1120, 6, 1120) gather is 7.5 MB
    table = star_table()
    built = table.partners
    monkeypatch.delitem(table.__dict__, "partners")
    tracemalloc.start()
    try:
        rebuilt = table.partners
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(rebuilt, built)
    assert peak < 2 * 2**20


def test_partner_table_build_checks_every_row(monkeypatch):
    # a pair test that loses one pair must not yield a table
    table = star_table()

    def lossy(a, rest):
        block = asynchronized(a, rest)
        block[0, block[0].argmax()] = False
        return block

    monkeypatch.delitem(table.__dict__, "partners", raising=False)
    monkeypatch.setattr("dpone.stars.asynchronized", lossy)
    with pytest.raises(CheckViolation, match="120 asynchronized partners"):
        table.partners


# counts StarTable.partners builds in a fresh interpreter running one command
BUILD_COUNT = """
import sys
from functools import cached_property
from dpone import cli, stars

build, builds = stars.StarTable.partners.func, []

def counted(self):
    builds.append(1)
    return build(self)

stars.StarTable.partners = cached_property(counted)
stars.StarTable.partners.__set_name__(stars.StarTable, "partners")
code = cli.main(sys.argv[1:])
print(code, len(builds), file=sys.stderr)
"""


# a report builds the table once, unless its Gamma fixes fewer than two
# stars, as (1 2 3 4 5 6 7 8) does
BUILDS = {
    "list-curves": 0,
    'classify-element -e "(1 2 3)"': 0,
    "list-stars": 0,
    "verify-lemma A2A22": 0,
    "report": 1,
    'report -gamma "(1 2 3 4)"': 1,
    'report -gamma "(1 2 3 4 5 6 7 8)"': 0,
}


@pytest.mark.parametrize("command", BUILDS)
def test_partner_table_is_built_only_by_reports(command):
    done = fresh_python("-c", BUILD_COUNT, *shlex.split(command), capture_output=True, text=True)
    # the exit code and the number of builds
    assert done.stderr.split()[-2:] == ["0", str(BUILDS[command])]


def test_star_table_is_slot_first_intp():
    ids = star_table().ids_array
    assert ids.shape == (1120, 6) and ids.dtype == np.intp
    assert ids.T.flags.c_contiguous
    assert np.array_equal(ids, rows16())


def test_closure_rows_stay_int16():
    g = group("S5")
    assert g.generator_perms.dtype == g.perms.dtype == np.int16
    assert g.perms.shape == (120, 240)


def test_trace_array_gives_each_closure_elements_trace():
    t = curve_table()
    for name in groups():
        perms = group(name).perms
        traces = t.trace_array[perms[:, t.basis_ids], np.arange(9)].sum(axis=1)
        matrices = np.array([t.isometry_of(p).matrix for p in perms])
        assert np.array_equal(traces, np.trace(matrices, axis1=1, axis2=2))


SHARED_ARRAYS = {
    "coeff_array": lambda: curve_table().coeff_array,
    "pairing_array": lambda: curve_table().pairing_array,
    "bertini_ids": lambda: curve_table().bertini_ids,
    "basis_ids": lambda: curve_table().basis_ids,
    "trace_array": lambda: curve_table().trace_array,
    "_keys": lambda: curve_table()._keys,
    "ids_array": lambda: star_table().ids_array,
    "edge_star": lambda: star_table().edge_star,
    "partners": lambda: star_table().partners,
}


@pytest.mark.parametrize("name", sorted(SHARED_ARRAYS))
def test_shared_tables_are_read_only(name):
    arr = SHARED_ARRAYS[name]()
    before = arr.copy()
    with pytest.raises(ValueError, match="read-only"):
        arr[0] = arr[-1]
    with pytest.raises(ValueError, match="read-only"):
        arr.T[0] = 0
    assert np.array_equal(arr, before)
