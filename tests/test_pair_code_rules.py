"""The star rules against the pair-code scans they replaced.

`check_rational_two_stars` takes its pointwise-fixed stars from the fixed
curves, and both star rules test pairs with `stars.asynchronized`, which
counts cross pairings equal to 1.  The scans below are the earlier rules:
pointwise-fixed stars from `star_masks`, and pairs tested by their
`pair_codes` code.  Witnesses and certificates are the first hit in a
fixed order, so the two must agree exactly.
"""

import importlib
import random
from pathlib import Path

import numpy as np
import pytest

from dpone.criteria import (
    ActionSetup,
    CertificateViolation,
    MinimalityCertificate,
    TwoStarsWitness,
    _faithful,
    _first_four_clique,
    check_minimal_four_stars,
    check_rational_two_stars,
)
from dpone.lattice import GroupSpec, TRIVIAL_GROUP, fixed_rank
from dpone.stars import (
    PAIR_TYPES,
    PairType,
    asynchronized,
    generator_permutations,
    pair_codes,
    star_masks,
    star_table,
)
from test_rule_sweep import family

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ASYNCHRONIZED = PAIR_TYPES.index(PairType.ASYNCHRONIZED)  # its pair code


def pair_code_two_stars(gamma):
    table = star_table()
    _, pointwise = star_masks(generator_permutations(gamma), table.ids_array)
    fixed = np.flatnonzero(pointwise.all(axis=0))
    rows = table.ids_array[fixed]
    for i in range(len(rows) - 1):
        hits = np.flatnonzero(pair_codes(rows[i], rows[i + 1 :]) == ASYNCHRONIZED)
        if len(hits):
            a, b = fixed[[i, i + 1 + hits[0]]].tolist()
            return TwoStarsWitness(stars=(table.stars[a], table.stars[b]))
    return None


def pair_code_four_stars(setup):
    g = setup.g_group
    combined = GroupSpec(g.generators + setup.gamma_group.generators, label="combined")
    order3 = g.of_order(3)
    if not len(order3):
        return None
    table = star_table()
    setwise, _ = star_masks(generator_permutations(combined), table.ids_array)
    invariant = np.flatnonzero(setwise.all(axis=0))
    faithful = _faithful(g.perms[order3], table.ids_array[invariant])
    rotated = faithful.any(axis=0)
    candidates = invariant[rotated]
    rotator = order3[faithful[:, rotated].argmax(axis=0)]
    rows = table.ids_array[candidates]
    n = len(rows)
    pairs = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        pairs[i, i + 1 :] = pair_codes(rows[i], rows[i + 1 :]) == ASYNCHRONIZED
    chosen = _first_four_clique(pairs)
    if chosen is None:
        return None
    stars = tuple(table.stars[candidates[i]] for i in chosen)
    elements = tuple(g.element(int(rotator[i])) for i in chosen)
    rank = fixed_rank(combined)
    if rank != 1:
        raise CertificateViolation(f"combined fixed rank is {rank}")
    return MinimalityCertificate(stars, elements, rank)


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def assert_rules_match(setups) -> tuple[int, int]:
    """Both rules equal their pair-code scans on each setup; the hit counts."""
    hits = [0, 0]
    for setup in setups:
        got = check_rational_two_stars(setup.gamma_group)
        assert got == pair_code_two_stars(setup.gamma_group), setup
        got_cert = check_minimal_four_stars(setup)
        assert got_cert == pair_code_four_stars(setup), setup
        hits[0] += got is not None
        hits[1] += got_cert is not None
    return tuple(hits)


def test_rules_match_pair_code_scans_on_verdict_pool(workloads):
    rng = random.Random(0)
    setups = []
    for _, _, g, gamma in workloads.verdict_pool():
        _, p, p_inv = workloads._relabelling(rng)
        relabelled = [workloads._conjugate(x, p, p_inv) for x in (g, gamma)]
        for gens in ((g, gamma), relabelled):
            g_spec, gamma_spec = GroupSpec(gens[0], "G"), GroupSpec(gens[1], "Gamma")
            setups.append(ActionSetup(g_spec, gamma_spec))
    assert len(setups) == 114
    two_stars, four_stars = assert_rules_match(setups)
    assert (two_stars, four_stars) == (26, 4)


def test_rules_match_pair_code_scans_on_sweep_family():
    # each group as Gamma, then as G with Gamma trivial, where the two-stars
    # rule always hits; no cyclic G of the family has a certificate
    as_gamma = [ActionSetup(TRIVIAL_GROUP, gamma) for gamma in family()]
    assert assert_rules_match(as_gamma) == (8, 0)
    as_g = [ActionSetup(g, TRIVIAL_GROUP) for g in family()]
    assert assert_rules_match(as_g) == (400, 0)


def test_unit_count_matches_pair_codes_on_every_pair():
    ids = star_table().ids_array
    found = 0
    for a in range(len(ids) - 1):  # rows as pair_counts loops them
        codes = pair_codes(ids[a], ids[a + 1 :])
        units = asynchronized(ids[a], ids[a + 1 :])
        assert np.array_equal(units, codes == ASYNCHRONIZED), a
        found += int(units.sum())
    assert found == 67200
