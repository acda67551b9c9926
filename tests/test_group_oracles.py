"""The permutation fast paths against the matrix slow paths they replaced.

`group_closure` works on curve-id permutations and `permutation_of` on one
numpy product; the reference versions below are the matrix BFS and the
apply-per-curve loop.  Closure order must agree element by element, since
witnesses are the first hit in that order.
"""

import numpy as np
import pytest

from dpone.curves import bertini_isometry, curve_table, s8_action
from dpone.lattice import GroupSpec, LatticeIsometry, fixed_rank, group_closure
from dpone.weyl import CarterType3, element_order, representative_order3
from test_lattice import matrix_fixed_rank


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
