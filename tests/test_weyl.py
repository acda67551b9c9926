from itertools import combinations

import numpy as np
import pytest

from dpone.curves import curve_table, s8_action
from dpone.groups import permutation_orders
from dpone.lattice import (
    CANONICAL_CLASS,
    LINE,
    ORDER_CAP,
    RANK,
    CheckViolation,
    LatticeIsometry,
    divisor,
    exceptional,
    fixed_rank,
    isometry_to_text,
    pair,
    simple_roots,
    solve_norm,
)
from dpone.weyl import (
    CarterType3,
    carter_type_order3,
    carter_types,
    element_order,
    enumerate_roots,
    is_root,
    parse_element,
    reflection,
    reflection_permutation,
    representative_order3,
)
from oracles import orthogonal_a2_planes


def closed_form_roots():
    """The roots from their closed forms: E_i - E_j, +-(L - E_i - E_j - E_k),
    +-(2L - sum of six E's), +-(3L - 2E_i - sum of the rest)."""
    e = [None] + [exceptional(i) for i in range(1, 9)]
    total = sum((e[i] for i in range(2, 9)), e[1])
    roots = set()
    for i in range(1, 9):
        for j in range(1, 9):
            if i != j:
                roots.add(e[i] - e[j])
    for i, j, k in combinations(range(1, 9), 3):
        v = LINE - e[i] - e[j] - e[k]
        roots.add(v)
        roots.add(-1 * v)
    for pair_out in combinations(range(1, 9), 2):
        # 2L minus six E's == 2L - total + the two left out
        v = 2 * LINE - total + e[pair_out[0]] + e[pair_out[1]]
        roots.add(v)
        roots.add(-1 * v)
    for i in range(1, 9):
        v = 3 * LINE - e[i] - total
        roots.add(v)
        roots.add(-1 * v)
    return sorted(roots)


def dfs_a2_planes(count):
    """Depth-first search for `count` pairwise-orthogonal A2 root pairs."""
    roots = enumerate_roots()
    chosen = []

    def orthogonal_to_chosen(v):
        return all(pair(v, a) == 0 and pair(v, b) == 0 for a, b in chosen)

    def rec():
        if len(chosen) == count:
            return True
        for a in roots:
            if not orthogonal_to_chosen(a):
                continue
            for b in roots:
                if b == a or pair(a, b) != 1:
                    continue
                if not orthogonal_to_chosen(b):
                    continue
                chosen.append((a, b))
                if rec():
                    return True
                chosen.pop()
        return False

    assert rec()
    return tuple(chosen)


def test_root_census():
    roots = enumerate_roots()
    assert len(roots) == 240
    for r in roots:
        assert is_root(r)
    # closed under negation
    root_set = set(roots)
    assert all(-1 * r in root_set for r in roots)


def test_independent_root_solver_agrees():
    # enumerate_roots shifts the curves by K; the closed forms and the
    # solver each find the roots on their own
    assert closed_form_roots() == list(enumerate_roots()) == solve_norm(-2, 0)


def test_is_root_examples():
    assert is_root(exceptional(1) - exceptional(2))
    assert is_root(divisor(1, -1, -1, -1, 0, 0, 0, 0, 0))
    assert not is_root(exceptional(1))
    assert not is_root(CANONICAL_CLASS)


def test_reflection_properties():
    r = exceptional(1) - exceptional(2)
    s = reflection(r)
    assert element_order(s) == 2
    assert s.apply(r) == -1 * r
    assert s.apply(CANONICAL_CLASS) == CANONICAL_CLASS
    assert fixed_rank(s) == 8
    with pytest.raises(ValueError):
        reflection(exceptional(1))
    basis = [divisor(*(int(i == j) for j in range(RANK))) for i in range(RANK)]
    for r in enumerate_roots():
        s = reflection(r)
        for v in basis:
            assert s.apply(v) == v + pair(v, r) * r


def test_reflection_in_simple_roots_matches_permutation():
    # reflecting in E_i - E_{i+1} swaps the two indices
    s = reflection(simple_roots()[1])
    assert s == s8_action("(1 2)")


def test_rotation_order_and_rank():
    a = exceptional(1) - exceptional(2)
    b = exceptional(2) - exceptional(3)
    assert pair(a, b) == 1
    perm = reflection_permutation(a)[reflection_permutation(b)]
    assert permutation_orders(perm[None])[0] == 3
    rot = curve_table().isometry_of(perm)
    assert rot == reflection(a) @ reflection(b)
    assert fixed_rank(rot) == 7
    with pytest.raises(ValueError):
        reflection_permutation(a)[0] = 0  # the cached array is shared


def cycles_on_240(*lengths):
    """A permutation of the 240 curve ids made of consecutive cycles."""
    perm, start = np.arange(240), 0
    for n in lengths:
        perm[start : start + n] = np.roll(perm[start : start + n], 1)
        start += n
    return perm


def test_element_order_cap():
    assert element_order(s8_action("(1 2 3 4 5 6 7)")) == 7
    assert ORDER_CAP == 60
    # the cycles start at ids 0..8, which are the basis curves E8..E1, L12
    # (curve_table().basis_ids), the only curves permutation_orders follows
    assert permutation_orders(cycles_on_240(3, 4, 5)[None]).tolist() == [60]
    # order 77 is the lcm of short cycles; a 61-cycle outruns the power loop
    for perm in (cycles_on_240(7, 11), cycles_on_240(61)):
        with pytest.raises(ValueError, match="exceeds cap 60"):
            permutation_orders(perm[None])


def test_carter_types_of_representatives():
    expected = {
        CarterType3.A2: 7,
        CarterType3.A2x2: 5,
        CarterType3.A2x3: 3,
        CarterType3.A2x4: 1,
    }
    for ctype, rank in expected.items():
        m = representative_order3(ctype)
        assert element_order(m) == 3
        assert fixed_rank(m) == rank
        assert carter_type_order3(m) is ctype
        assert ctype.fixed_rank == rank


def test_carter_display():
    assert CarterType3.A2.display == "A2"
    assert CarterType3.A2x2.display == "A2^2"
    assert CarterType3.A2x4.display == "A2^4"


def test_carter_type_rejects_wrong_order():
    with pytest.raises(ValueError):
        carter_type_order3(s8_action("(1 2)"))


def test_orthogonal_planes():
    planes = orthogonal_a2_planes(4)
    assert len(planes) == 4
    for a, b in planes:
        assert pair(a, b) == 1
    for i in range(4):
        for j in range(i + 1, 4):
            for x in planes[i]:
                for y in planes[j]:
                    assert pair(x, y) == 0
    with pytest.raises(ValueError):
        orthogonal_a2_planes(5)
    for count in range(1, 5):
        assert orthogonal_a2_planes(count) == dfs_a2_planes(count)


def test_parse_element_formats():
    g = s8_action("(1 2 3)")
    assert parse_element("(1 2 3)") == g
    assert parse_element(isometry_to_text(g)) == g
    assert parse_element("id") == LatticeIsometry.identity()
    word = parse_element("s 2 3 2")
    assert element_order(word) == 2
    with pytest.raises(ValueError):
        parse_element("")
    with pytest.raises(ValueError):
        parse_element("s 9")
    with pytest.raises(ValueError):
        parse_element("s")


def test_conjugation_preserves_carter_type():
    w = s8_action("(1 4)(2 5)(3 6)")
    for ctype in CarterType3:
        m = representative_order3(ctype)
        conj = w @ m @ w.inverse()
        assert carter_type_order3(conj) is ctype


def test_carter_types_reject_unknown_counts():
    with pytest.raises(CheckViolation, match="fixing 237 curves"):
        carter_types(cycles_on_240(3)[None])
