"""Ten acceptance checks, one per criterion, each printing a PASS/FAIL line.

Time budgets are enforced where stated; the heavy censuses are invoked
here first in the session, so the measured times are cold-cache times.
"""

import time
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import numpy as np

from dpone.criteria import (
    RATIONAL_CAVEAT,
    ActionSetup,
    Verdict,
    check_minimal_four_stars,
    check_rational_triple,
    gamma_report,
    replay_carter,
    replay_even,
    replay_stars,
    replay_triple,
    replay_two_stars,
    search_commuting_order3,
)
from dpone.curves import curve_table, enumerate_curves
from dpone.lattice import (
    GroupSpec,
    TRIVIAL_GROUP,
    cycles_string,
    fixed_rank,
    permutation_of_isometry,
    solve_norm,
)
from dpone.stars import (
    ActionKind,
    PairType,
    ProfileKind,
    classify_pair,
    intersection_profile_census,
    invariant_curves,
    invariant_stars,
    is_star,
    profile,
    sample_pairs_by_type,
    star_graph_automorphisms,
    star_table,
    star_through,
    trichotomy_census,
)
from dpone.weyl import CarterType3, representative_order3

REPS = {c: representative_order3(c) for c in CarterType3}


@contextmanager
def criterion(capsys, n, budget=None):
    info = {"detail": "ok"}
    t0 = time.monotonic()
    try:
        yield info
    except BaseException as exc:
        with capsys.disabled():
            print(f"criterion {n}: FAIL - {str(exc)[:120]}")
        raise
    dt = time.monotonic() - t0
    if budget is not None and dt >= budget:
        with capsys.disabled():
            print(f"criterion {n}: FAIL - over {budget:.0f}s budget ({dt:.2f}s)")
        raise AssertionError(f"criterion {n} took {dt:.2f}s, budget {budget}s")
    line = info["detail"]
    if budget is not None:
        line += f" [{dt:.2f}s < {budget:.0f}s]"
    with capsys.disabled():
        print(f"criterion {n}: PASS - {line}")


def test_criterion_01_curve_census(capsys):
    with criterion(capsys, 1, budget=1.0) as info:
        curves = enumerate_curves()
        assert len(curves) == 240
        sizes = [
            sum(1 for c in curves if c.family == fam)
            for fam in ("E", "L2", "Q", "C", "BQ", "BL", "BE")
        ]
        assert sizes == [8, 28, 56, 56, 56, 28, 8]
        solved = solve_norm(-1, -1)
        assert sorted(solved) == sorted(c.divisor for c in curves)
        info["detail"] = (
            "240 classes, families 8/28/56/56/56/28/8, "
            "closed forms match solve_norm(-1, -1)"
        )


def test_criterion_02_rank_dictionary(capsys):
    with criterion(capsys, 2) as info:
        ranks = {c: fixed_rank(REPS[c]) for c in CarterType3}
        assert ranks == {
            CarterType3.A2: 7,
            CarterType3.A2x2: 5,
            CarterType3.A2x3: 3,
            CarterType3.A2x4: 1,
        }
        assert cycles_string(permutation_of_isometry(REPS[CarterType3.A2])) == "(1 2 3)"
        assert (
            cycles_string(permutation_of_isometry(REPS[CarterType3.A2x2]))
            == "(1 2 3)(4 5 6)"
        )
        info["detail"] = (
            "fixed ranks 7/5/3/1; A2 and A2^2 are the literal index 3-cycles"
        )


def test_criterion_03_invariant_census(capsys):
    with criterion(capsys, 3) as info:
        t = curve_table()

        def census(ctype):
            m = REPS[ctype]
            inv = invariant_curves(m)
            acts = invariant_stars(m)
            triv = [a.star for a in acts if a.kind is ActionKind.TRIVIAL]
            faith = [a.star for a in acts if a.kind is ActionKind.FAITHFUL]
            return inv, triv, faith

        inv, triv, faith = census(CarterType3.A2)
        assert len(inv) == 72 and len(faith) == 1
        assert {t.curve(c).name for c in faith[0].curve_ids} == {
            "C1-2", "C3-2", "C3-1", "C2-1", "C2-3", "C1-3",
        }
        assert all(
            profile(c, faith[0]).kind is ProfileKind.ALL_ONES for c in inv
        )

        inv, triv, faith = census(CarterType3.A2x2)
        assert len(inv) == 12 and len(triv) == 2 and len(faith) == 2
        assert set().union(*(s.support for s in triv)) == set(inv)
        for a, b in combinations(triv + faith, 2):
            assert classify_pair(a, b).pair_type is PairType.ASYNCHRONIZED

        inv, triv, faith = census(CarterType3.A2x3)
        assert len(inv) == 6 and len(triv) == 1 and len(faith) == 12
        assert triv[0].support == set(inv)
        for s in faith:
            assert classify_pair(triv[0], s).pair_type is PairType.ASYNCHRONIZED

        inv, triv, faith = census(CarterType3.A2x4)
        assert len(inv) == 0 and len(triv) == 0 and len(faith) == 40

        info["detail"] = (
            "A2 72/1 with all-ones profiles, A2^2 12 curves + 2+2 stars "
            "pairwise asynchronized, A2^3 6/1+12 asynchronized, A2^4 0/40"
        )


def test_criterion_04_star_totals(capsys):
    with criterion(capsys, 4, budget=5.0) as info:
        t = curve_table()
        keys = set()
        membership = [0] * 240
        pairs = 0
        for a in range(240):
            for b in np.flatnonzero(t.pairing_array[a] == 0).tolist():
                if b <= a:
                    continue
                pairs += 1
                s = star_through(t.curve(a), t.curve(b))
                assert is_star([t.curve(c).divisor for c in s.curve_ids])
                keys.add(s.canonical_key)
        assert pairs == 6720
        assert len(keys) == 1120 == pairs // 6
        # the array-built table agrees with star_through, the slow builder
        slow = sorted(keys)
        table = star_table()
        assert [s.curve_ids for s in table.stars] == slow
        assert table.ids_array.tolist() == [list(k) for k in slow]
        for s in table.stars:
            for c in s.curve_ids:
                membership[c] += 1
        assert set(membership) == {28}
        info["detail"] = (
            "6720 disjoint pairs all span stars, 1120 distinct and equal "
            "to the star table, each curve on exactly 28"
        )


def test_criterion_05_profile_dichotomy(capsys):
    with criterion(capsys, 5, budget=10.0) as info:
        census = intersection_profile_census()
        assert sum(census.values()) == 1120 * (240 - 6)
        assert census["all-ones"] == 80640
        assert census["touching"] == 181440
        info["detail"] = (
            "262080 outside (curve, star) incidences: 80640 all-ones + "
            "181440 touching, zero violations"
        )


def test_criterion_06_trichotomy(capsys):
    # Deviation from the stated criterion: star pairs sharing curves
    # (always exactly one Bertini pair {X, bX}) provably match no
    # pattern, so the trichotomy is asserted over disjoint-support pairs
    # and the overlapping pairs are characterized exactly instead.
    with criterion(capsys, 6, budget=30.0) as info:
        census = trichotomy_census()
        assert sum(census.values()) == 1120 * 1119 // 2 == 626640
        classified = census["asynchronized"] + census["synchronized"] + census["abnormal"]
        assert classified == 581280
        # every overlap happens inside the 28-star pencil through some
        # Bertini pair: 120 pairs {X, bX}, C(28, 2) pencil pairs each
        assert census["overlapping"] == 45360 == 120 * 28 * 27 // 2
        assert (census["asynchronized"], census["synchronized"], census["abnormal"]) == (
            67200, 151200, 362880,
        )
        a = star_through("E7", "E8")
        b = star_through("L78", "Q123")
        assert classify_pair(a, b).pair_type is PairType.ASYNCHRONIZED
        info["detail"] = (
            "626640 pairs: 581280 with disjoint supports classify uniquely "
            "(67200 async / 151200 sync / 362880 abnormal, zero multi- or "
            "non-matches); the other 45360 share exactly one Bertini pair "
            "and fall outside the pattern trichotomy (documented deviation)"
        )


def test_criterion_07_automorphism_orders(capsys):
    with criterion(capsys, 7) as info:
        for s in star_table().stars[:10]:
            assert star_graph_automorphisms([s]) == 12
        expected = {
            PairType.ASYNCHRONIZED: 288,
            PairType.SYNCHRONIZED: 24,
            PairType.ABNORMAL: 16,
        }
        samples = sample_pairs_by_type(10)
        for ptype, pairs in samples.items():
            assert len(pairs) >= 10
            for a, b in pairs:
                assert star_graph_automorphisms([a, b]) == expected[ptype]
        info["detail"] = (
            "single star 12; pair orders 288/24/16 over 10 sampled pairs "
            "of each type"
        )


def test_criterion_08_minimality_cross_validation(capsys):
    with criterion(capsys, 8) as info:
        ranks = []
        for ctype in (CarterType3.A2x3, CarterType3.A2x2):
            g = REPS[ctype]
            pointwise = [
                a.star
                for a in invariant_stars(g)
                if a.kind is ActionKind.TRIVIAL
            ]
            h = search_commuting_order3(g, pointwise)
            setup = ActionSetup(GroupSpec((g, h), "G"), TRIVIAL_GROUP)
            cert = check_minimal_four_stars(setup)
            assert cert is not None
            assert cert.combined_rank == 1
            direct = fixed_rank(setup.combined)
            assert direct == 1
            ranks.append(direct)
        assert ranks == [1, 1]
        info["detail"] = (
            "A2^3 and A2^2 constructions with searched commuting order-3 "
            "elements: four-star certificate exists and direct rank is 1"
        )


def test_criterion_09_verdict_soundness(capsys):
    with criterion(capsys, 9) as info:
        canned = [
            ("trivial", TRIVIAL_GROUP, Verdict.RATIONAL),
            ("A2", GroupSpec((REPS[CarterType3.A2],)), Verdict.RATIONAL),
            ("A2^2", GroupSpec((REPS[CarterType3.A2x2],)), Verdict.RATIONAL),
            ("A2^3", GroupSpec((REPS[CarterType3.A2x3],)), Verdict.NOT_RATIONAL),
            ("A2^4", GroupSpec((REPS[CarterType3.A2x4],)), Verdict.NOT_RATIONAL),
        ]
        replays = {
            "rational_two_stars": replay_two_stars,
            "rational_triple": replay_triple,
            "not_rational_carter": replay_carter,
            "not_rational_stars": replay_stars,
            "not_rational_even": replay_even,
        }
        triple_record = []
        for name, gamma, want in canned:
            report = gamma_report(gamma)
            assert report.verdict is want, name
            assert replays[report.rule](gamma, report.witness), name
            has_triple = check_rational_triple(gamma) is not None
            triple_record.append(f"{name}:{'yes' if has_triple else 'no'}")
            assert has_triple == (want is Verdict.RATIONAL)
        info["detail"] = (
            "verdicts Rational x3 then NotRational x2, all witnesses "
            "replay; fixed triples by exhaustive search: "
            + ", ".join(triple_record)
        )


def test_criterion_10_scope_and_caveats(capsys):
    with criterion(capsys, 10) as info:
        assert "lattice" in RATIONAL_CAVEAT
        assert "rational point" in RATIONAL_CAVEAT
        rational = gamma_report(TRIVIAL_GROUP)
        assert rational.caveat == RATIONAL_CAVEAT
        not_rational = gamma_report(GroupSpec((REPS[CarterType3.A2x4],)))
        assert not_rational.caveat is None
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        assert "Scope" in text
        assert "lattice" in text
        assert "rational point" in text
        info["detail"] = (
            "field-level statements are out of scope: Rational verdicts "
            "carry the lattice-level caveat and the README scope section "
            "states the limits"
        )
