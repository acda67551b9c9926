"""The unit-pairing pair test against the pair codes it replaced.

Both star rules test pairs with `stars.asynchronized`, which counts cross
pairings equal to 1; the earlier rules tested each pair by its
`pair_codes` code.  The two must agree on every pair of stars.  The
rules that read the codes, `oracles.pair_code_two_stars` and
`oracles.pair_code_four_stars`, are rows of the differential table.
"""

import numpy as np

from dpone.stars import asynchronized, pair_codes, star_table
from oracles import ASYNCHRONIZED


def test_unit_count_matches_pair_codes_on_every_pair():
    ids = star_table().ids_array
    found = 0
    for a in range(len(ids) - 1):  # rows as pair_counts loops them
        codes = pair_codes(ids[a], ids[a + 1 :])
        units = asynchronized(ids[a], ids[a + 1 :])
        assert np.array_equal(units, codes == ASYNCHRONIZED), a
        found += int(units.sum())
    assert found == 67200
