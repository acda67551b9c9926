"""The permutation fast paths against the slow paths they replaced.

`group_closure` works on curve-id permutations and `permutation_of` on one
numpy product; their references in `oracles` are the matrix BFS and the
apply-per-curve loop.  Each of the 52 groups of `families.groups()` also
runs every group row of the differential table (`oracles.GROUP_ROWS`):
the closure keyed on basis images against full 240-id rows, orders
against all 240 columns, the three rank routes, the star kernels.  A
one-generator group reads its orders off its closure length by gcd;
`permutation_orders` is the reference.  Closure order must agree
element by element, since witnesses are the first hit in that order.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from dpone.curves import bertini_isometry, curve_table, s8_action
from dpone.groups import GroupSpec, group_closure, permutation_orders
from dpone.lattice import LatticeIsometry, fixed_rank
from dpone.weyl import element_order
from families import (
    CLOSABLE,
    PARABOLICS,
    cycle_types,
    family,
    group,
    groups,
    parabolic,
    word_isometry,
    words,
)
from oracles import (
    GROUP_ROWS,
    assert_row,
    matrix_fixed_rank,
    slow_group_closure,
    slow_order,
    slow_permutation_of,
)


def test_oracle_group_count():
    assert len(cycle_types()) == 22
    assert len(groups()) == 22 * 2 + 4 + 4


@pytest.mark.parametrize("name", sorted(groups()))
def test_closure_matches_matrix_bfs(name):
    gens = groups()[name]
    t = curve_table()
    slow = slow_group_closure(gens)
    fast = group(name).perms
    assert len(fast) == len(slow)
    for row, m in zip(fast, slow):
        perm = list(slow_permutation_of(m))
        assert t.permutation_of(m).tolist() == perm
        assert row.tolist() == perm
        assert t.isometry_of(row) == m
        assert element_order(m) == slow_order(m)


def test_group_orders():
    orders = {name: len(group(name).perms) for name in groups()}
    assert orders["S3wrC2"] == 72
    assert orders["S4"] == 24
    assert orders["S5"] == 120
    assert orders["<S5,b>"] == 240


def test_s8_closes_at_its_order():
    gens = (s8_action("(1 2)"), s8_action("(1 2 3 4 5 6 7 8)"))
    elements = group_closure(GroupSpec(gens, cap=40320))
    assert elements.shape == (40320, 240)
    assert len({row.tobytes() for row in elements}) == 40320
    with pytest.raises(ValueError, match="exceeds cap 10000"):
        group_closure(GroupSpec(gens))


@pytest.mark.parametrize("name", ["S4", "S3wrC2", "<A2^3 rep>"])
def test_repeated_generators_change_nothing(name):
    """A repeat adds no element to the matrix BFS, which keeps every repeat,
    so the closure rows, their order, the rank and the fixed curves stay.
    The rows of the closure without repeats match the matrix BFS in
    test_closure_matches_matrix_bfs."""
    gens = groups()[name]
    repeated = gens + gens[::-1] + gens[:1]
    g = GroupSpec(repeated)
    assert g.generators == gens
    assert slow_group_closure(repeated) == slow_group_closure(gens)
    assert np.array_equal(g.perms, group(name).perms)
    assert fixed_rank(g) == matrix_fixed_rank(repeated) == fixed_rank(GroupSpec(gens))
    perms = [curve_table().permutation_of(m) for m in repeated]
    assert g.fixed_curves.tolist() == (perms == np.arange(240)).all(axis=0).tolist()


@pytest.mark.parametrize("name", sorted(groups()))
def test_basis_keyed_closure_matches_full_rows(name):
    """Every group row of the differential table on one group: closure,
    orders, rank, permutations, fixed and flipped stars, star masks and
    the partner-row pair scan."""
    for row in GROUP_ROWS:
        assert_row(row, group(name))


@pytest.mark.parametrize("name", CLOSABLE)
def test_weyl_subgroup_closure_matches_full_rows(name):
    g = parabolic(name)
    assert len(g.perms) == PARABOLICS[name][1]
    assert_row("closure", g)
    assert_row("orders", g)


def test_basis_images_key_the_e6_closure():
    """The closure key, a row's images of E1..E8 and L12, is one per element."""
    perms = parabolic("E6").perms
    keys = {row.tobytes() for row in perms[:, curve_table().basis_ids]}
    assert len(keys) == len(perms) == 51840


def test_pairing_three_exactly_at_bertini_partners():
    t = curve_table()
    cells = np.argwhere(t.pairing_array == 3)
    assert cells.tolist() == [[c, b] for c, b in enumerate(t.bertini_ids.tolist())]


def assert_gcd_orders(g: GroupSpec) -> None:
    assert len(g.generators) == 1
    orders = permutation_orders(g.perms)
    assert np.array_equal(g.orders, orders) and g.orders.dtype == orders.dtype


def test_cyclic_orders_match_permutation_orders():
    identity, b = GroupSpec((LatticeIsometry.identity(),)), GroupSpec((bertini_isometry(),))
    cyclic = [identity, b, *(group(n) for n, gens in groups().items() if len(gens) == 1)]
    for g in cyclic + list(family()):
        assert_gcd_orders(g)
    assert identity.orders.tolist() == [1] and b.orders.tolist() == [1, 2]
    assert len(cyclic) == 2 + 22 * 2 + 4


@settings(max_examples=50, deadline=None)
@given(words, st.booleans())
def test_cyclic_orders_of_words(word, with_bertini):
    m = word_isometry(word)
    assert_gcd_orders(GroupSpec((m @ bertini_isometry() if with_bertini else m,)))


def test_cyclic_orders_raise_past_order_cap(monkeypatch):
    import dpone.groups as group_layer

    monkeypatch.setattr(group_layer, "ORDER_CAP", 5)
    five, six = (GroupSpec((s8_action(c),)) for c in ("(1 2 3 4 5)", "(1 2 3 4 5 6)"))
    assert five.orders.tolist() == [1, 5, 5, 5, 5]
    assert len(six.perms) == 6
    with pytest.raises(ValueError, match="exceeds cap 5"):
        six.orders
    with pytest.raises(ValueError, match="exceeds cap 5"):
        permutation_orders(six.perms)
