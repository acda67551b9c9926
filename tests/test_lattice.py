"""Divisor classes, the pairing, isometries, the rank routes and the
norm solver.  The rank routes meet each closable parabolic subgroup and
each element of the three smallest (the differential table's rank row),
seeded words and forged rows.
"""

import random

import numpy as np
import pytest

from dpone.curves import bertini_isometry, curve_table
from dpone.groups import GroupSpec, group_closure, integer_rank
from dpone.lattice import (
    CANONICAL_CLASS,
    FORM_DIAG,
    CheckViolation,
    DivisorClass,
    LatticeIsometry,
    cycles_string,
    divisor,
    exceptional,
    fixed_rank,
    is_isometry,
    isometry_from_text,
    isometry_to_text,
    pair,
    parse_cycles,
    permutation_isometry,
    permutation_of_isometry,
    simple_roots,
    solve_norm,
)
from dpone.weyl import reflection_permutation
from families import (
    CLOSABLE,
    FORGED,
    PARABOLICS,
    SMALL_PARABOLICS,
    identity_plus,
    parabolic,
    parabolic_elements,
    parabolic_generators,
)
from oracles import (
    assert_row,
    loop_is_isometry,
    matrix_fixed_rank,
    meet_in_the_middle_norm_solver,
    numpy_is_isometry,
)


def test_pairing_diagonal_form():
    l = divisor(1, 0, 0, 0, 0, 0, 0, 0, 0)
    e1 = exceptional(1)
    assert pair(l, l) == 1
    assert pair(e1, e1) == -1
    assert pair(l, e1) == 0
    assert pair(exceptional(3), exceptional(7)) == 0


def test_pairing_symmetric_and_bilinear():
    a = divisor(2, 1, -1, 0, 3, 0, 0, -2, 1)
    b = divisor(-1, 0, 2, 2, 0, 1, -1, 0, 0)
    c = divisor(0, 1, 1, 1, 0, 0, 0, 0, -3)
    assert pair(a, b) == pair(b, a)
    assert pair(a + b, c) == pair(a, c) + pair(b, c)
    assert pair(3 * a, b) == 3 * pair(a, b)


def test_canonical_class():
    k = CANONICAL_CLASS
    assert k.coeffs == (-3, 1, 1, 1, 1, 1, 1, 1, 1)
    assert pair(k, k) == 1


def test_divisor_validation():
    with pytest.raises(ValueError):
        DivisorClass((1, 2, 3))
    with pytest.raises(ValueError):
        divisor(1, 0, 0, 0, 0, 0, 0, 0, 0.5)


def test_divisor_arithmetic_and_repr():
    a = divisor(1, 2, 0, 0, 0, 0, 0, 0, 0)
    b = divisor(0, 1, 1, 0, 0, 0, 0, 0, 0)
    assert (a - b).coeffs == (1, 1, -1, 0, 0, 0, 0, 0, 0)
    assert (-1 * a).coeffs == (-1, -2, 0, 0, 0, 0, 0, 0, 0)
    assert repr(b) == "(0; 1, 1, 0, 0, 0, 0, 0, 0)"


def test_simple_roots_gram_matrix():
    roots = simple_roots()
    assert len(roots) == 8
    for r in roots:
        assert pair(r, r) == -2
        assert pair(r, CANONICAL_CLASS) == 0
    # the first root joins the E-chain at its third node
    gram = [[pair(a, b) for b in roots] for a in roots]
    edges = {(0, 3), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)}
    for i in range(8):
        for j in range(8):
            if i == j:
                assert gram[i][j] == -2
            elif (min(i, j), max(i, j)) in edges:
                assert gram[i][j] == 1
            else:
                assert gram[i][j] == 0


def recursive_norm_solver(square, dot_k, c_l_range):
    """Oracle for solve_norm: a pruned recursion over c_1..c_8 per c_L."""
    found = []
    for c_l in c_l_range:
        target_sum = -dot_k - 3 * c_l
        target_sq = c_l * c_l - square
        if target_sq < 0:
            continue
        bound = int(target_sq**0.5)

        def rec(pos, acc, s, sq):
            if pos == 8:
                if s == target_sum and sq == target_sq:
                    found.append(DivisorClass((c_l, *acc)))
                return
            remaining = 8 - pos - 1
            for c in range(-bound, bound + 1):
                s2, sq2 = s + c, sq + c * c
                if sq2 > target_sq:
                    continue
                # the remaining coordinates move the sum by at most
                # remaining * bound either way
                if abs(target_sum - s2) > remaining * bound:
                    continue
                acc.append(c)
                rec(pos + 1, acc, s2, sq2)
                acc.pop()

        rec(0, [], 0, 0)
    return sorted(found)


# the Cauchy-Schwarz ranges of c_L: -1..7 for curves, -4..4 for roots
@pytest.mark.parametrize(
    "square, dot_k, c_l_range",
    [(-1, -1, range(-1, 8)), (-2, 0, range(-4, 5))],
    ids=["curves", "roots"],
)
def test_solve_norm_matches_recursive_oracle(square, dot_k, c_l_range):
    solved = solve_norm(square, dot_k)
    assert len(solved) == 240
    assert solved == recursive_norm_solver(square, dot_k, c_l_range)
    assert solved == meet_in_the_middle_norm_solver(square, dot_k)


def test_solve_norm_counts_the_e8_theta_series():
    # K-orthogonal classes with v*v = -2k are the E8 vectors of norm 2k,
    # and there are 240 sigma_3(k) of them
    for k in range(1, 5):
        sigma_3 = sum(d**3 for d in range(1, k + 1) if k % d == 0)
        solved = solve_norm(-2 * k, 0)
        assert len(solved) == 240 * sigma_3
        assert solved == meet_in_the_middle_norm_solver(-2 * k, 0)
    # at k = 4 both ends of the range, c_L = -8 and 8, are reached by
    # +-(8; -3, ..., -3), so every c_L from -8 to 8 has a solution
    c_ls = {v.coeffs[0] for v in solve_norm(-8, 0)}
    assert c_ls == set(range(-8, 9))


def test_solve_norm_at_and_past_the_edge():
    # v*K = d and v*v = d^2 only for v = dK, by Cauchy-Schwarz equality;
    # v*v > (v*K)^2 has no solution since K-orthogonal classes are negative
    assert solve_norm(1, 1) == [CANONICAL_CLASS]
    assert solve_norm(4, -2) == [-2 * CANONICAL_CLASS]
    assert solve_norm(0, 0) == [divisor(0, 0, 0, 0, 0, 0, 0, 0, 0)]
    assert solve_norm(2, 0) == []
    for square, dot_k in ((1, 1), (4, -2), (0, 0), (2, 0)):
        assert solve_norm(square, dot_k) == meet_in_the_middle_norm_solver(square, dot_k)


def test_is_isometry_rejects_form_breakers():
    ident = tuple(tuple(int(i == j) for j in range(9)) for i in range(9))
    assert is_isometry(ident)
    # swapping L with E1 does not preserve the form
    swap = [[int(i == j) for j in range(9)] for i in range(9)]
    swap[0][0] = swap[1][1] = 0
    swap[0][1] = swap[1][0] = 1
    assert not is_isometry(tuple(tuple(r) for r in swap))
    # negation preserves the form but moves K
    neg = tuple(tuple(-int(i == j) for j in range(9)) for i in range(9))
    assert not is_isometry(neg)
    assert not is_isometry(((1, 2), (3, 4)))
    for name, m in FORGED.items():
        assert not is_isometry(m), name
        with pytest.raises(ValueError):
            LatticeIsometry(m)


def test_forged_matrix_would_wrap_an_int64_product():
    # so the numpy oracle needs ENTRY_BOUND for exactness; is_isometry,
    # on Python integers, keeps the bound only as a guard on input
    m = np.array(FORGED["wrapping"], dtype=np.int64)
    form = np.diag(FORM_DIAG)
    k = np.array(CANONICAL_CLASS.coeffs)
    assert (m.T @ form @ m == form).all() and (m @ k == k).all()


def test_is_isometry_matches_loop_on_forged_matrices():
    candidates = [
        *FORGED.values(),
        bertini_isometry().matrix,  # an entry of 17, the bound
        identity_plus({(0, 0): 16}),
        identity_plus({(1, 2): 1 << 31, (2, 1): -(1 << 31)}),
        ((1, 2), (3, 4)),
        [["1"] * 9] * 9,
        [[0.5] * 9] * 9,
    ]
    for m in candidates:
        assert is_isometry(m) == loop_is_isometry(m) == numpy_is_isometry(m), m


def test_isometry_constructor_validates():
    with pytest.raises(ValueError):
        LatticeIsometry(tuple(tuple(0 for _ in range(9)) for _ in range(9)))


def test_isometry_inverse_and_composition():
    g = permutation_isometry(parse_cycles("(1 2 3)(4 5)"))
    assert g @ g.inverse() == LatticeIsometry.identity()
    h = permutation_isometry(parse_cycles("(6 7 8)"))
    v = divisor(2, 1, -1, 3, 0, 0, 1, 1, -2)
    assert (g @ h).apply(v) == g.apply(h.apply(v))


def test_fixed_rank_values():
    assert fixed_rank(LatticeIsometry.identity()) == 9
    g = permutation_isometry(parse_cycles("(1 2)"))
    assert fixed_rank(g) == 8
    assert fixed_rank(GroupSpec(())) == 9


def test_empty_group_rank_reads_no_permutations():
    # the rank of a group with no generators is 9 without an empty
    # permutation array; a report with a trivial G asks for it every time
    g = GroupSpec(())
    assert fixed_rank(g) == 9
    assert "generator_perms" not in vars(g)


@pytest.mark.parametrize("name", PARABOLICS, ids=lambda name: f"W({name})")
def test_fixed_rank_matches_matrix_rows_on_parabolics(name):
    gens = parabolic_generators(name)
    assert fixed_rank(GroupSpec(gens)) == matrix_fixed_rank(gens) == PARABOLICS[name][2]


@pytest.mark.parametrize("name", CLOSABLE, ids=lambda name: f"W({name})")
def test_trace_rank_matches_elimination_on_closed_parabolics(name):
    # the closed group's rank against every route; PARABOLICS pins it above
    assert_row("fixed_rank", parabolic(name))


def test_trace_rank_rejects_rows_that_are_not_a_group():
    g = GroupSpec((permutation_isometry(parse_cycles("(1 2 3)")),))
    # the identity and (1 2 3) have traces 9 and 6, and 15 is odd
    vars(g)["perms"] = np.stack([np.arange(240, dtype=np.int16), g.generator_perms[0]])
    with pytest.raises(CheckViolation, match="not a group"):
        fixed_rank(g)


@pytest.mark.parametrize("name", SMALL_PARABOLICS, ids=lambda name: f"W({name})")
def test_cycle_rank_matches_every_route_on_parabolic_elements(name):
    # each element generating a group of its own
    for g in parabolic_elements(name):
        assert_row("fixed_rank", g)


def test_cycle_rank_matches_every_route_on_random_words():
    # 300 seeded words in the simple reflections, every other one times
    # the Bertini involution, of lengths 1..60
    t = curve_table()
    simple = [reflection_permutation(r) for r in simple_roots()]
    b = t.permutation_of(bertini_isometry())
    rng = random.Random(28)
    ranks = set()
    for k in range(300):
        perm = np.arange(240, dtype=np.int16)
        for _ in range(rng.randint(1, 60)):
            perm = perm[rng.choice(simple)]
        g = GroupSpec((t.isometry_of(perm[b] if k % 2 else perm),))
        assert_row("fixed_rank", g)
        ranks.add(fixed_rank(g))
    assert ranks == set(range(1, 10))  # every rank occurs


def test_cycle_rank_rejects_forged_rows():
    t = curve_table()
    e1, e2, q123 = (t.id_of_name(n) for n in ("E1", "E2", "Q123"))
    g = GroupSpec((permutation_isometry(parse_cycles("(1 2 3)")),))
    # E1 -> E2 -> E2: not a permutation, so the walk from E1 never returns
    row = np.arange(240, dtype=np.int16)
    row[e1] = e2
    vars(g)["generator_perms"] = row[None]
    with pytest.raises(ValueError, match="exceeds cap"):
        fixed_rank(g)
    # swapping E1 and Q123 is a permutation but no isometry: its basis
    # cycles give 2 * 7 (E2..E8) + 2 * 1 (L12) + (1 + 2) = 19, which is odd
    g = GroupSpec((permutation_isometry(parse_cycles("(1 2 3)")),))
    row = np.arange(240, dtype=np.int16)
    row[[e1, q123]] = q123, e1
    vars(g)["generator_perms"] = row[None]
    with pytest.raises(CheckViolation, match="not a multiple of the order 2"):
        fixed_rank(g)


def test_integer_rank():
    assert integer_rank([]) == 0
    assert integer_rank([(0, 0, 0)]) == 0
    assert integer_rank([(2, 4), (1, 2)]) == 1
    assert integer_rank([(1, 0, 0), (0, 3, 0), (0, 0, -5)]) == 3


def test_group_closure_cyclic():
    g = permutation_isometry(parse_cycles("(1 2 3)"))
    elements = group_closure(GroupSpec((g,)))
    assert len(elements) == 3
    assert elements[0].tolist() == list(range(240))


def test_group_closure_cap():
    gens = GroupSpec(
        (
            permutation_isometry(parse_cycles("(1 2)")),
            permutation_isometry(parse_cycles("(1 2 3 4 5 6 7 8)")),
        ),
        cap=100,
    )
    with pytest.raises(ValueError, match="cap"):
        group_closure(gens)


def test_parse_cycles_round_trip():
    mapping = parse_cycles("(1 2 3)(5 6)")
    assert mapping[1] == 2 and mapping[3] == 1 and mapping[5] == 6
    assert cycles_string(mapping) == "(1 2 3)(5 6)"
    assert parse_cycles("()") == {}
    assert parse_cycles("id") == {}
    assert cycles_string({}) == "()"
    with pytest.raises(ValueError):
        parse_cycles("(1 2")
    with pytest.raises(ValueError):
        parse_cycles("(1 2 2)")
    with pytest.raises(ValueError):
        parse_cycles("(0 1)")
    # whitespace, newlines included, may stand between and around cycles
    assert parse_cycles("(1 2) (3 4)") == parse_cycles("(1 2)(3 4)")
    assert parse_cycles(" (1 2 3)\n(4 5 6) ") == parse_cycles("(1 2 3)(4 5 6)")
    with pytest.raises(ValueError, match="malformed cycle string"):
        parse_cycles("(1 2) x (3 4)")


def test_permutation_isometry_round_trip():
    mapping = parse_cycles("(2 4 6 8)")
    g = permutation_isometry(mapping)
    assert permutation_of_isometry(g) == mapping
    assert g.apply(exceptional(2)) == exceptional(4)
    assert g.apply(CANONICAL_CLASS) == CANONICAL_CLASS


def test_isometry_text_round_trip():
    g = permutation_isometry(parse_cycles("(1 8)(2 7)"))
    text = isometry_to_text(g)
    assert isometry_from_text(text) == g
    with pytest.raises(ValueError):
        isometry_from_text("1 2 3")
