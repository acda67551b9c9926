import random
from functools import reduce
from operator import matmul

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from dpone.cli import element_text
from dpone.curves import bertini_isometry, curve_table
from dpone.lattice import (
    CANONICAL_CLASS,
    DivisorClass,
    cycles_string,
    is_isometry,
    isometry_from_text,
    isometry_to_text,
    pair,
    parse_cycles,
    permutation_isometry,
    permutation_of_isometry,
)
from dpone.stars import is_star, profile, star_id, star_table, star_through
from dpone.weyl import (
    CarterType3,
    carter_type_order3,
    element_order,
    parse_element,
    reflection,
    representative_order3,
)
from families import cycle_types, word_isometry, words
from oracles import (
    loop_is_isometry,
    loop_permutation_of_isometry,
    numpy_is_isometry,
    orthogonal_a2_planes,
    permutation_word_isometry,
)

coeffs9 = st.tuples(*[st.integers(-9, 9)] * 9)
divisors = coeffs9.map(DivisorClass)
perms = st.permutations(list(range(1, 9)))
curve_ids = st.integers(0, 239)
star_ids = st.integers(0, 1119)
# a curve and one of the 56 curves disjoint from it
disjoint_curve_pairs = curve_ids.flatmap(
    lambda a: st.tuples(
        st.just(a),
        st.sampled_from(np.flatnonzero(curve_table().pairing_array[a] == 0).tolist()),
    )
)

def word_text(word):
    return "s " + " ".join(str(i + 1) for i in word)


# parse_element composes a word on the matrix's columns; the matrix products
# and the curve-permutation composition it replaced are its oracles
@settings(max_examples=50, deadline=None)
@given(words)
def test_parsed_word_matches_matrix_product(word):
    assume(word)
    m = parse_element(word_text(word))
    assert m == word_isometry(word) == permutation_word_isometry(word)


def test_long_parsed_words_match_matrix_products():
    rng = random.Random(2)
    for k in range(50):
        word = [rng.randrange(8) for _ in range(60 + k % 2)]
        m = parse_element(word_text(word))
        assert m == word_isometry(word) == permutation_word_isometry(word)


# words and cycles are wrapped unchecked, as isometries by construction
@given(words)
def test_parsed_words_are_isometries(word):
    assume(word)
    assert is_isometry(parse_element(word_text(word)).matrix)


def test_cycle_types_are_isometries():
    assert len(cycle_types()) == 22
    for text in cycle_types():
        assert is_isometry(parse_element(text).matrix), text


# the A2^3 and A2^4 reflection words of weyl.ORDER3_TEXT are exactly the
# products of the rotations s_a s_b of the greedy planes
def test_representatives_match_plane_rotation_products():
    for ctype in (CarterType3.A2x3, CarterType3.A2x4):
        rotations = (
            reflection(a) @ reflection(b) for a, b in orthogonal_a2_planes(ctype.value)
        )
        assert representative_order3(ctype) == reduce(matmul, rotations)


@given(divisors, divisors)
def test_pairing_symmetric(a, b):
    assert pair(a, b) == pair(b, a)


@given(divisors, divisors, divisors, st.integers(-5, 5), st.integers(-5, 5))
def test_pairing_bilinear(a, b, c, m, n):
    assert pair(a * m + b * n, c) == m * pair(a, c) + n * pair(b, c)


# is_isometry and permutation_of_isometry against the loops they replaced
@given(words)
def test_word_isometry_matches_loop_oracles(word):
    m = word_isometry(word)
    assert is_isometry(m.matrix) and loop_is_isometry(m.matrix) and numpy_is_isometry(m.matrix)
    assert permutation_of_isometry(m) == loop_permutation_of_isometry(m)


@given(words)
def test_word_isometry_fixes_k(word):
    m = word_isometry(word)
    assert m.apply(CANONICAL_CLASS) == CANONICAL_CLASS


@given(words, divisors, divisors)
def test_word_isometry_preserves_pairing(word, a, b):
    m = word_isometry(word)
    assert pair(m.apply(a), m.apply(b)) == pair(a, b)


@settings(max_examples=30, deadline=None)
@given(words)
def test_word_isometry_permutes_curves(word):
    m = word_isometry(word)
    perm = curve_table().permutation_of(m)
    assert sorted(perm) == list(range(240))


@settings(max_examples=20, deadline=None)
@given(words, star_ids)
def test_word_isometry_maps_stars_to_stars(word, sid):
    m = word_isometry(word)
    t = curve_table()
    perm = t.permutation_of(m)
    s = star_table().stars[sid]
    image = [t.curve(perm[c]).divisor for c in s]
    assert is_star(image)


@settings(max_examples=20, deadline=None)
@given(words, st.sampled_from(list(CarterType3)))
def test_carter_type_conjugation_invariant(word, ctype):
    g = representative_order3(ctype)
    w = word_isometry(word)
    conj = w @ g @ w.inverse()
    assert element_order(conj) == 3
    assert carter_type_order3(conj) is ctype


@given(curve_ids)
def test_bertini_involution(c):
    b = curve_table().bertini_ids
    assert b[c] != c and b[b[c]] == c


@given(curve_ids, curve_ids)
def test_bertini_preserves_pairing(a, b):
    t = curve_table()
    ba, bb = t.bertini_ids[a], t.bertini_ids[b]
    assert t.pairing_array[a, b] == t.pairing_array[ba, bb]


@given(disjoint_curve_pairs)
def test_star_through_shape(ab):
    a, b = ab
    t = curve_table()
    assert a != b and t.pairing_array[a, b] == 0
    ca, cb = t.curve(a), t.curve(b)
    s = star_through(ca, cb)
    assert star_id(s) == star_id(star_through(cb, ca))
    ids = s
    assert ids[0] == a and ids[1] == b
    assert t.bertini_ids[ids[0]] == ids[3]
    for i in range(6):
        for d in (1, 2, 3):
            assert t.pairing_array[ids[i], ids[(i + d) % 6]] == (0, 0, 2, 3)[d]


@given(curve_ids, star_ids)
def test_profile_vector_sums_to_six(c, sid):
    s = star_table().stars[sid]
    assume(c not in s)
    vector = tuple(curve_table().pairing_array[c, list(s)].tolist())
    assert sum(vector) == 6
    k = profile(c, s) or 0
    assert vector[k:] + vector[:k] in (
        (1, 1, 1, 1, 1, 1),
        (0, 0, 1, 2, 2, 1),
    )


@given(star_ids, st.integers(0, 5), st.booleans())
def test_star_canonical_key_relabelling(sid, shift, flip):
    ids = star_table().stars[sid]
    if flip:
        ids = tuple(reversed(ids))
    ids = ids[shift:] + ids[:shift]
    assert star_id(ids) == sid
    # swapping two neighbors is no hexagon relabeling
    with pytest.raises(ValueError, match="do not form a star"):
        star_id((ids[1], ids[0]) + ids[2:])


@given(perms)
def test_cycles_round_trip(p):
    mapping = {i + 1: v for i, v in enumerate(p)}
    text = cycles_string(mapping)
    parsed = parse_cycles(text)
    assert {i: parsed.get(i, i) for i in range(1, 9)} == mapping


@given(perms)
def test_isometry_text_round_trip(p):
    m = permutation_isometry({i + 1: v for i, v in enumerate(p)})
    assert isometry_from_text(isometry_to_text(m)) == m


@given(words)
def test_word_isometry_text_round_trip(word):
    m = word_isometry(word)
    assert isometry_from_text(isometry_to_text(m)) == m


@given(words)
def test_printed_element_parses_back(word):
    # the command line prints a matrix on one line, rows joined by " / "
    m = word_isometry(word)
    assert parse_element(element_text(m)) == m


def test_printed_named_elements_parse_back():
    named = [representative_order3(c) for c in CarterType3] + [bertini_isometry()]
    for m in named:
        assert parse_element(element_text(m)) == m
