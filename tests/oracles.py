"""Slow routes that the library replaced, kept as test oracles.

Each gives the answer of a fast path by the construction it replaced:
the tests compare the two.
"""

from itertools import combinations, permutations

from dpone.curves import bertini_class
from dpone.lattice import LINE, DivisorClass, exceptional
from dpone.stars import pair_counts, star_table


def divisor_family_classes() -> dict[DivisorClass, tuple[str, str]]:
    """The seven curve families by DivisorClass arithmetic: class -> (family, name)."""
    out: dict[DivisorClass, tuple[str, str]] = {}
    e = [None] + [exceptional(i) for i in range(1, 9)]
    total = sum((e[i] for i in range(2, 9)), e[1])
    for i in range(1, 9):
        out[e[i]] = ("E", f"E{i}")
    for i, j in combinations(range(1, 9), 2):
        out[LINE - e[i] - e[j]] = ("L2", f"L{i}{j}")
    for i, j, k in combinations(range(1, 9), 3):
        out[2 * LINE + e[i] + e[j] + e[k] - total] = ("Q", f"Q{i}{j}{k}")
    for i, j in permutations(range(1, 9), 2):
        out[3 * LINE - e[i] + e[j] - total] = ("C", f"C{i}-{j}")
    for d, (fam, name) in list(out.items()):
        if fam != "C":
            out[bertini_class(d)] = ("B" + fam[0], "b" + name)
    return out


def all_pairs_census() -> dict[str, int]:
    """`pair_counts` of all 1120 stars: `pair_codes` on each of the 626,640 pairs."""
    return pair_counts(star_table().ids_array)
