"""The permutation fast paths against the slow paths they replaced.

`group_closure` works on curve-id permutations and `permutation_of` on one
numpy product; the reference versions below are the matrix BFS and the
apply-per-curve loop.  `group_closure` keys an element on its images of
the nine basis curves and `permutation_orders` powers only those nine;
their references are the BFS keyed on full 240-id rows and the power
loop over all 240 columns.  `criteria._flipped_stars` reads an element's
mask of Bertini flips; its reference gathers pairings equal to 3.  A
one-generator group reads its orders off its closure length by gcd;
`permutation_orders` is the reference.  Closure order must agree
element by element, since witnesses are the first hit in that order.
"""

from collections import deque
from functools import cache

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from dpone.criteria import _flipped_stars
from dpone.curves import bertini_isometry, curve_table, s8_action
from dpone.lattice import (
    ORDER_CAP,
    GroupSpec,
    LatticeIsometry,
    fixed_rank,
    group_closure,
    permutation_orders,
    simple_roots,
)
from dpone.stars import star_table
from dpone.weyl import CarterType3, element_order, reflection, representative_order3
from test_lattice import matrix_fixed_rank
from test_properties import word_isometry, words
from test_rule_sweep import family


def slow_permutation_of(m: LatticeIsometry) -> tuple[int, ...]:
    t = curve_table()
    return tuple(t.id_of(m.apply(c.divisor)) for c in t.curves)


def slow_group_closure(gens, cap: int = 10000) -> list[LatticeIsometry]:
    identity = LatticeIsometry.identity()
    seen = {identity.matrix: identity}
    queue = [identity]
    while queue:
        current = queue.pop(0)
        for gen in gens:
            nxt = current @ gen
            if nxt.matrix not in seen:
                if len(seen) >= cap:
                    raise ValueError(f"group closure exceeds cap {cap}")
                seen[nxt.matrix] = nxt
                queue.append(nxt)
    return list(seen.values())


def row_keyed_closure(g: GroupSpec) -> np.ndarray:
    """The closure BFS keyed on full 240-id rows."""
    gens = g.generator_perms
    identity = np.arange(240, dtype=np.int16)
    seen = {identity.tobytes(): identity}
    queue = deque([identity])
    while queue:
        current = queue.popleft()
        for gen in gens:
            nxt = current[gen]
            key = nxt.tobytes()
            if key not in seen:
                if len(seen) >= g.cap:
                    raise ValueError(f"group closure exceeds cap {g.cap}")
                seen[key] = nxt
                queue.append(nxt)
    return np.stack(list(seen.values()))


def all_column_orders(perms: np.ndarray) -> np.ndarray:
    """Orders as the lcm of the cycle lengths of all 240 curves."""
    ids = np.arange(perms.shape[1])
    lengths = np.zeros(perms.shape, dtype=np.int64)
    power = perms
    for k in range(1, ORDER_CAP + 1):
        lengths[(power == ids) & (lengths == 0)] = k
        if lengths.all():
            orders = np.lcm.reduce(lengths, axis=1)
            if orders.max(initial=1) > ORDER_CAP:
                break
            return orders
        power = np.take_along_axis(perms, power, axis=1)
    raise ValueError(f"element order exceeds cap {ORDER_CAP}")


def pairing_three_antipodal(perm: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Star rows on which every member pairs to 3 with its image."""
    return (curve_table().pairing_array[rows, perm[rows]] == 3).all(axis=1)


def slow_order(m: LatticeIsometry) -> int:
    acc, n = m, 1
    while acc != LatticeIsometry.identity():
        acc, n = acc @ m, n + 1
    return n


def cycle_types() -> list[str]:
    """One element of each of the 22 cycle types of S8, in cycle notation."""

    def partitions(n, largest):
        if n == 0:
            yield ()
            return
        for k in range(min(n, largest), 0, -1):
            for rest in partitions(n - k, k):
                yield (k,) + rest

    out = []
    for parts in partitions(8, 8):
        text, start = "", 1
        for k in parts:
            if k > 1:
                text += "(" + " ".join(str(i) for i in range(start, start + k)) + ")"
            start += k
        out.append(text or "()")
    return out


def oracle_groups() -> dict[str, tuple[LatticeIsometry, ...]]:
    b = bertini_isometry()
    groups = {}
    for ctype in cycle_types():
        groups[f"<{ctype}>"] = (s8_action(ctype),)
        groups[f"<{ctype}*b>"] = (s8_action(ctype) @ b,)
    for ctype in CarterType3:
        groups[f"<{ctype.display} rep>"] = (representative_order3(ctype),)
    s5 = (s8_action("(1 2)"), s8_action("(1 2 3 4 5)"))
    groups["S3wrC2"] = tuple(s8_action(c) for c in ("(1 2)", "(1 2 3)", "(1 4)(2 5)(3 6)"))
    groups["S4"] = (s8_action("(1 2)"), s8_action("(1 2 3 4)"))
    groups["S5"] = s5
    groups["<S5,b>"] = s5 + (b,)
    return groups


GROUPS = oracle_groups()


def test_oracle_group_count():
    assert len(cycle_types()) == 22
    assert len(GROUPS) == 22 * 2 + 4 + 4


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_closure_matches_matrix_bfs(name):
    gens = GROUPS[name]
    t = curve_table()
    slow = slow_group_closure(gens)
    fast = group_closure(GroupSpec(gens))
    assert len(fast) == len(slow)
    for row, m in zip(fast, slow):
        assert t.permutation_of(m).tolist() == list(slow_permutation_of(m))
        assert row.tolist() == list(slow_permutation_of(m))
        assert t.isometry_of(row) == m
        assert element_order(m) == slow_order(m)


def test_group_orders():
    orders = {name: len(group_closure(GroupSpec(g))) for name, g in GROUPS.items()}
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
    so the closure rows, their order, the rank and the fixed curves stay."""
    gens = GROUPS[name]
    repeated = gens + gens[::-1] + gens[:1]
    g = GroupSpec(repeated)
    assert g.generators == gens
    slow = [slow_permutation_of(m) for m in slow_group_closure(repeated)]
    assert [tuple(row) for row in g.perms.tolist()] == slow
    assert fixed_rank(g) == matrix_fixed_rank(repeated) == fixed_rank(GroupSpec(gens))
    perms = [curve_table().permutation_of(m) for m in repeated]
    assert g.fixed_curves.tolist() == (perms == np.arange(240)).all(axis=0).tolist()


def assert_matches_full_rows(g: GroupSpec) -> None:
    assert np.array_equal(g.perms, row_keyed_closure(g))
    orders = all_column_orders(g.perms)
    assert np.array_equal(g.orders, orders) and g.orders.dtype == orders.dtype


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_basis_keyed_closure_matches_full_rows(name):
    assert_matches_full_rows(GroupSpec(GROUPS[name]))


def test_sweep_closures_match_full_rows():
    for gamma in family():
        assert_matches_full_rows(gamma)


# parabolic subgroups of W(E8) by simple_roots() indices, with their orders
WEYL_SUBGROUPS = {"A7": (range(1, 8), 40320), "D6": ((0, 2, 3, 4, 5, 6), 23040),
                  "E6": (range(6), 51840)}


@cache
def weyl_subgroup(name: str) -> GroupSpec:
    roots = simple_roots()
    indices, order = WEYL_SUBGROUPS[name]
    return GroupSpec(tuple(reflection(roots[i]) for i in indices), name, cap=order)


@pytest.mark.parametrize("name", sorted(WEYL_SUBGROUPS))
def test_weyl_subgroup_closure_matches_full_rows(name):
    g = weyl_subgroup(name)
    assert len(g.perms) == WEYL_SUBGROUPS[name][1]
    assert_matches_full_rows(g)


def test_basis_images_key_the_e6_closure():
    """The closure key, a row's images of E1..E8 and L12, is one per element."""
    perms = weyl_subgroup("E6").perms
    keys = {row.tobytes() for row in perms[:, curve_table().basis_ids]}
    assert len(keys) == len(perms) == 51840


def test_pairing_three_exactly_at_bertini_partners():
    t = curve_table()
    cells = np.argwhere(t.pairing_array == 3)
    assert cells.tolist() == [[c, b] for c, b in enumerate(t.bertini_ids.tolist())]


def test_antipodal_matches_pairing_gather():
    rows = star_table().ids_array
    elements = flips = 0
    for gamma in family():
        for i in np.flatnonzero(gamma.orders % 2 == 0):
            flipped = gamma.perms[i] == curve_table().bertini_ids
            antipodal = _flipped_stars(flipped, rows)
            assert np.array_equal(antipodal, pairing_three_antipodal(gamma.perms[i], rows))
            elements, flips = elements + 1, flips + int(antipodal.sum())
    assert elements and flips  # the sweep has even elements that flip stars


def assert_gcd_orders(g: GroupSpec) -> None:
    assert len(g.generators) == 1
    orders = permutation_orders(g.perms)
    assert np.array_equal(g.orders, orders) and g.orders.dtype == orders.dtype


def test_cyclic_orders_match_permutation_orders():
    identity, b = GroupSpec((LatticeIsometry.identity(),)), GroupSpec((bertini_isometry(),))
    groups = [identity, b, *(GroupSpec(g) for g in GROUPS.values() if len(g) == 1)]
    for g in groups + list(family()):
        assert_gcd_orders(g)
    assert identity.orders.tolist() == [1] and b.orders.tolist() == [1, 2]
    assert len(groups) == 2 + 22 * 2 + 4


@settings(max_examples=50, deadline=None)
@given(words, st.booleans())
def test_cyclic_orders_of_words(word, with_bertini):
    m = word_isometry(word)
    assert_gcd_orders(GroupSpec((m @ bertini_isometry() if with_bertini else m,)))


def test_cyclic_orders_raise_past_order_cap(monkeypatch):
    import dpone.lattice as lattice

    monkeypatch.setattr(lattice, "ORDER_CAP", 5)
    five, six = (GroupSpec((s8_action(c),)) for c in ("(1 2 3 4 5)", "(1 2 3 4 5 6)"))
    assert five.orders.tolist() == [1, 5, 5, 5, 5]
    assert len(six.perms) == 6
    with pytest.raises(ValueError, match="exceeds cap 5"):
        six.orders
    with pytest.raises(ValueError, match="exceeds cap 5"):
        permutation_orders(six.perms)
