"""Every fast kernel against the slow routes it replaced, on whole families.

Each row of `oracles.DIFFERENTIAL` names a kernel, its oracles and the
families of `families.py` it walks.  The 52 groups of
`families.groups()` run one group at a time, the rule rows in
test_criteria.py and the group rows in test_group_oracles.py; this
module walks each other family once per row.  It also pins how many
inputs of each family every kernel hits on (a witness, or an answer
with a true or nonzero entry), so that no row compares only misses, and
how many order-3 elements of each Carter class the typing row meets.
"""

from collections import Counter

import pytest

from dpone.weyl import CarterType3
from families import family, group, groups, pool
from oracles import DIFFERENTIAL, assert_row, hit

FAMILIES = {"family": family, "pool": pool}

HITS = {
    "rational_two_stars": {"groups": 8, "family": 8, "pool": 17},
    "rational_triple": {"groups": 16, "family": 32, "pool": 39},
    "not_rational_carter": {"groups": 2, "family": 60, "pool": 8},
    "not_rational_stars": {"groups": 2, "family": 60, "pool": 8},
    "not_rational_even": {"groups": 18, "family": 227, "pool": 36},
    "minimal_four_stars": {"groups": 1, "family": 0, "pool": 6},
    "closure": {"groups": 52, "family": 400},
    "orders": {"groups": 52, "family": 400},
    "fixed_rank": {"groups": 52, "family": 400, "pool": 115},
    "permutation_of": {"groups": 52, "family": 400},
    "images_of": {"groups": 52, "family": 400},
    "fixed_stars": {"groups": 52, "family": 400},
    "partners": {"groups": 8, "family": 8},
    "star_masks": {"groups": 52, "family": 400},
    "order3_types": {"groups": 26, "family": 206},
    "flipped_stars": {"groups": 18, "family": 227},
}

# the order-3 elements of each family by class, A2 to A2^4: each class occurs
ORDER3_CLASSES = {"groups": [74, 22, 2, 2], "family": [168, 124, 88, 32]}

CASES = [
    (name, fam) for name, row in DIFFERENTIAL.items() for fam in row.families if fam in FAMILIES
]


def test_every_row_pins_its_hits_on_each_family():
    assert {name: set(row.families) for name, row in DIFFERENTIAL.items()} == {
        name: set(hits) for name, hits in HITS.items()
    }


@pytest.mark.parametrize("name, fam", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_kernel_matches_its_oracles(name, fam):
    assert sum(assert_row(name, g) for g in FAMILIES[fam]()) == HITS[name][fam]


def test_order3_types_reach_every_class():
    walks = {"groups": [group(g) for g in groups()], "family": family()}
    for fam, walk in walks.items():
        counts = Counter(t for g in walk for t in g.order3_types)
        assert [counts[t] for t in CarterType3] == ORDER3_CLASSES[fam], fam


def test_kernels_hit_on_the_groups():
    # the groups' comparisons run one group at a time elsewhere
    for name, row in DIFFERENTIAL.items():
        found = sum(hit(row.kernel(group(g))) for g in groups())
        assert found == HITS[name]["groups"], name
