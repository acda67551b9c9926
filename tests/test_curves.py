import numpy as np
import pytest

from dpone.curves import bertini_class, bertini_isometry, curve_table, s8_action
from dpone.lattice import (
    CANONICAL_CLASS,
    CheckViolation,
    LatticeIsometry,
    divisor,
    exceptional,
    pair,
)
from dpone.stars import is_star
from oracles import divisor_family_classes


def named(name):
    """The class of a curve name, read back through the table."""
    t = curve_table()
    return t.curve(t.id_of_name(name)).divisor


def test_table_matches_divisor_family_generator():
    # the integer closed forms give every id, name, family and coefficient
    # row that DivisorClass arithmetic gives
    t = curve_table()
    families = divisor_family_classes()
    assert [(c.id, c.divisor, c.family, c.name) for c in t.curves] == [
        (cid, d, *families[d]) for cid, d in enumerate(sorted(families))
    ]
    assert t.coeff_array.tolist() == [list(d.coeffs) for d in sorted(families)]
    assert all(type(x) is int for c in t.curves for x in c.divisor.coeffs)


def test_ids_are_dense_and_sorted():
    curves = curve_table().curves
    assert [c.id for c in curves] == list(range(240))
    assert [c.divisor for c in curves] == sorted(c.divisor for c in curves)


def test_named_classes():
    assert named("E1") == exceptional(1)
    assert named("L12") == divisor(1, -1, -1, 0, 0, 0, 0, 0, 0)
    assert named("Q123") == divisor(2, 0, 0, 0, -1, -1, -1, -1, -1)
    assert named("C1-2") == divisor(3, -2, 0, -1, -1, -1, -1, -1, -1)
    assert named("bQ123") == divisor(4, -2, -2, -2, -1, -1, -1, -1, -1)
    assert named("bL12") == divisor(5, -1, -1, -2, -2, -2, -2, -2, -2)
    assert named("bE1") == divisor(6, -3, -2, -2, -2, -2, -2, -2, -2)


def name_from_class(d, family):
    """A curve's name read off its E-coefficients."""
    e_coeffs = d.coeffs[1:]
    if family == "E":
        return f"E{e_coeffs.index(1) + 1}"
    if family == "L2":
        ij = [i + 1 for i, c in enumerate(e_coeffs) if c == -1]
        return "L{}{}".format(*ij)
    if family == "Q":
        ijk = [i + 1 for i, c in enumerate(e_coeffs) if c == 0]
        return "Q{}{}{}".format(*ijk)
    if family == "C":
        i = e_coeffs.index(-2) + 1
        j = e_coeffs.index(0) + 1
        return f"C{i}-{j}"
    # b-families: name through the Bertini partner.
    partner = bertini_class(d)
    base = {"BE": "E", "BL": "L2", "BQ": "Q"}[family]
    return "b" + name_from_class(partner, base)


def test_name_round_trip():
    t = curve_table()
    for c in curve_table().curves:
        assert c.name == name_from_class(c.divisor, c.family)
        assert t.id_of_name(c.name) == c.id


def test_name_rejects_malformed():
    for bad in ("E9", "L11", "Q122", "C1-1", "bC1-2", "X12", "L1", "L21", "Q213"):
        with pytest.raises(ValueError, match="not a curve name"):
            curve_table().id_of_name(bad)


def test_pairing_examples():
    t = curve_table()
    p = lambda x, y: t.pairing_array[t.id_of_name(x), t.id_of_name(y)]
    assert p("E1", "L12") == 1
    assert p("E1", "E2") == 0
    assert p("E1", "bE1") == 3
    assert p("L12", "L13") == 0
    assert p("L12", "L34") == 1
    assert p("C1-2", "C2-1") == 3


def test_bertini_involution():
    t = curve_table()
    for c in t.curves:
        image = t.curve(t.bertini_ids[c.id])
        assert image.id != c.id
        assert t.bertini_ids[image.id] == c.id
        assert image.divisor == -2 * CANONICAL_CLASS - c.divisor
        assert t.pairing_array[c.id, image.id] == 3


def test_bertini_family_swap():
    swap = {"E": "BE", "BE": "E", "L2": "BL", "BL": "L2", "Q": "BQ", "BQ": "Q", "C": "C"}
    t = curve_table()
    for c in t.curves:
        assert t.curve(t.bertini_ids[c.id]).family == swap[c.family]


def test_bertini_names():
    t = curve_table()
    assert t.curve(t.bertini_ids[t.id_of_name("E1")]).name == "bE1"
    assert t.curve(t.bertini_ids[t.id_of_name("C1-2")]).name == "C2-1"


def test_bertini_isometry_realizes_class_map():
    b = bertini_isometry()
    t = curve_table()
    assert b @ b == LatticeIsometry.identity()
    assert b.apply(CANONICAL_CLASS) == CANONICAL_CLASS
    assert t.permutation_of(b).tolist() == t.bertini_ids.tolist()
    v = divisor(2, 1, -1, 0, 0, 3, 0, 0, 0)
    assert b.apply(v) == -1 * v + 2 * pair(v, CANONICAL_CLASS) * CANONICAL_CLASS


def test_disjoint_partners_count():
    t = curve_table()
    for c in t.curves:
        partners = np.flatnonzero(t.pairing_array[c.id] == 0)
        assert len(partners) == 56
        assert c.id not in partners


def test_s8_action_on_names():
    t = curve_table()
    g = s8_action("(1 2 3)")
    perm = t.permutation_of(g)
    move = lambda n: t.curve(perm[t.id_of_name(n)]).name
    assert move("E1") == "E2"
    assert move("L12") == "L23"
    assert move("Q123") == "Q123"
    assert move("C1-2") == "C2-3"
    assert move("bE3") == "bE1"
    assert move("E8") == "E8"


def test_id_of_rejects_non_curve_class():
    t = curve_table()
    others = [t.curve(c).divisor for c in range(5)]
    for coeffs in [
        (1, 0, 0, 0, 0, 0, 0, 0, 0),
        (0, -1, 0, 0, 0, 0, 0, 0, 0),  # -E1
        (2 ** 62, 0, 0, 0, 0, 0, 0, 0, -1),  # its packed key wraps around
        (10 ** 30, 0, 0, 0, 0, 0, 0, 0, 0),  # beyond int64
        (0, 0, 0, 0, 0, 0, 0, 0, -(10 ** 30)),
    ]:
        with pytest.raises(ValueError, match="not an exceptional class"):
            t.id_of(divisor(*coeffs))
        assert not is_star([divisor(*coeffs)] + others)


def forged_isometry(rows) -> LatticeIsometry:
    """A LatticeIsometry that skipped validation."""
    m = object.__new__(LatticeIsometry)
    object.__setattr__(m, "matrix", tuple(tuple(r) for r in rows))
    return m


def test_permutation_of_rejects_forged_matrix():
    t = curve_table()
    ident = [[int(i == j) for j in range(9)] for i in range(9)]
    swap_l_e1 = [row[:] for row in ident]
    swap_l_e1[0][0] = swap_l_e1[1][1] = 0
    swap_l_e1[0][1] = swap_l_e1[1][0] = 1
    doubled = [[2 * x for x in row] for row in ident]
    huge = [[x * 10**6 for x in row] for row in ident]
    for rows in (swap_l_e1, doubled, huge):
        with pytest.raises(CheckViolation, match="outside the curve set"):
            t.permutation_of(forged_isometry(rows))


def test_bertini_class_of_cubic():
    # the cubic family is closed under the involution with indices swapped
    assert bertini_class(named("C1-2")) == named("C2-1")
