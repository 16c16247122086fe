"""Acceptance suite: ten criteria, one test (and one printed verdict line)
per criterion.  Run with `pytest -v` for the per-criterion pass/fail lines."""

import itertools
import random

from helpers import (assemble, brute_force_kromatic,
                     check_canonical_invariance, partition_of_multiplicities)

from kromatic import bundled_graph
from kromatic.core import (chromatic_p_expansion_oracles, exponent,
                           independence_multiset, kromatic,
                           kromatic_from_multiset,
                           recover_signed_exponent_multiset,
                           signed_exponent_family, theorem_coefficient,
                           theorem_coefficient_subsets, verify_factorization)
from kromatic.heaps import (enumerate_pyramids, heap_from_word, is_lyndon,
                            lyndon_count, rotation_class, word_str)
from kromatic.numbers import divisors, mobius, mu_hat, partitions_up_to
from kromatic.quasisym import (kromatic_q, kromatic_q_vectors,
                               kromatic_q_via_clans, power_sum_coefficient_q,
                               pyramid_p_expansion_q, specialize_q)
from kromatic.symfunc import Expansion, SymPoly, extract, omega

ALL_GRAPHS = [(n, bundled_graph(n)) for n in
              ("k1", "k2", "k3", "p3", "p4", "c4", "paw")]
K2 = bundled_graph("k2")
P3 = bundled_graph("p3")


def verdict(number, text):
    print(f"ACCEPTANCE {number:2d} PASS — {text}")


def test_criterion_01_k2_golden_table():
    golden = {
        (2,): -1, (1, 1): 1,
        (3,): 2, (2, 1): -2,
        (4,): -4, (3, 1): 4, (2, 2): 1, (2, 1, 1): -1,
        (5,): 6, (4, 1): -8, (3, 2): -2, (3, 1, 1): 2, (2, 2, 1): 2,
    }
    exp = extract(kromatic(K2, 5), "pbar")
    assert exp.coeffs == golden
    verdict(1, "K2 table through degree 5 reproduced exactly")


def test_criterion_02_lyndon_counts_two_routes():
    direct = [lyndon_count(K2, n) for n in range(1, 6)]
    assert direct == [2, 1, 2, 3, 6]
    for n in range(1, 6):
        pyramid_side = sum(mobius(n // d) * len(enumerate_pyramids(K2, d))
                           for d in divisors(n))
        assert n * direct[n - 1] == pyramid_side
    verdict(2, "Lyndon counts (2,1,2,3,6) by enumeration and by inversion")


def test_criterion_03_rotation_worked_example():
    h = heap_from_word(P3, (2, 3, 1, 1))
    cls = rotation_class(P3, h)
    assert sorted(word_str(x) for x in cls) == \
        ["1123", "1231", "2311", "3211"]
    assert [word_str(x) for x in cls if is_lyndon(P3, x)] == ["1123"]
    verdict(3, "rotation class of 2311 and its distinguished word 1123")


def test_criterion_04_oracle_equivalence():
    for name, g in ALL_GRAPHS:
        if name == "paw":
            continue
        assert kromatic(g, 4) == brute_force_kromatic(g, 4), name
        assert kromatic_q_via_clans(g, 4, 4) == \
            kromatic_q_vectors(g, 4, 4), name
    verdict(4, "subset formula and clan assembly match brute enumeration")


def test_criterion_05_theorem_suite():
    for name, g in ALL_GRAPHS:
        X = kromatic(g, 5)
        W = kromatic(g, 5, "omega")
        by_rule = {"1.2": extract(X, "pbar"), "1.3": extract(W, "pbar"),
                   "1.4": extract(X, "pbarprime"),
                   "1.5": extract(W, "pbarprime")}
        for lam in partitions_up_to(5):
            if not lam:
                continue
            sign = -1 if (sum(lam) - len(lam)) % 2 else 1
            for rule in ("1.2", "1.3", "1.4", "1.5"):
                count = theorem_coefficient(g, lam, rule)
                assert count >= 0, (name, lam, rule)
                assert count == theorem_coefficient_subsets(g, lam, rule)
                got = by_rule[rule].coeff(lam)
                if rule in ("1.2", "1.4"):
                    got = sign * got
                assert count == got, (name, lam, rule)
    verdict(5, "all four counting rules equal extraction, every graph, "
               "|lambda| <= 5")


def test_criterion_06_factorization_claims():
    for name, g in ALL_GRAPHS:
        for variant in "abcd":
            assert verify_factorization(g, variant, 5), (name, variant)
    assert [exponent(K2, k, "1.5") for k in range(1, 6)] == [2, 1, 2, 3, 6]
    assert [exponent(K2, k, "1.3") for k in range(1, 6)] == [2, 3, 2, 6, 6]
    assert exponent(K2, 2, "1.4") == -3
    assert [exponent(K2, k, "1.2") for k in range(1, 6)] == [2, -1, 2, -4, 6]
    for k in range(1, 5):
        assert exponent(P3, k, "1.5") == lyndon_count(P3, k)
    verdict(6, "all four product factorizations hold at degree 5 with "
               "Lyndon-count exponents")


def test_criterion_07_classical_reduction():
    for name, g in ALL_GRAPHS:
        n = g.n
        by_edges, by_orientations = chromatic_p_expansion_oracles(g)
        assert by_edges.coeffs == by_orientations.coeffs, name
        E = extract(kromatic(g, n), "pbar")
        for lam in partitions_up_to(n):
            if sum(lam) == n:
                assert E.coeff(lam) == by_edges.coeff(lam), (name, lam)
    verdict(7, "bottom slice agrees with both classical expansions")


def test_criterion_08_recovery_round_trip():
    for name, g in ALL_GRAPHS:
        ms = independence_multiset(g)
        F = brute_force_kromatic(g, 4)
        assert kromatic_from_multiset(ms, 4) == F, name
        assert kromatic_from_multiset(ms, 4, image="omega") == omega(F), name
    # sizes up to 2, fully honest truncations
    assert recover_signed_exponent_multiset(
        extract(kromatic(K2, 8, "omega"), "pbar"), (2, 3)) == \
        signed_exponent_family(K2, "1.3", (1, 2))
    assert recover_signed_exponent_multiset(
        extract(kromatic(P3, 13, "omega"), "pbar"), (3, 5)) == \
        signed_exponent_family(P3, "1.3", (1, 2))
    # the same from the extractions restricted to the parts <= 2 they read
    assert recover_signed_exponent_multiset(
        extract(kromatic(K2, 8, "omega"), "pbar", max_part=2), (2, 3)) == \
        signed_exponent_family(K2, "1.3", (1, 2))
    assert recover_signed_exponent_multiset(
        extract(kromatic(P3, 13, "omega"), "pbar", max_part=2), (3, 5)) == \
        signed_exponent_family(P3, "1.3", (1, 2))
    # sizes up to 4, expansion generated by the subset formula (validated
    # against extraction degreewise in criterion 5's machinery)
    for g in (K2, P3):
        caps = tuple(exponent(g, k, "1.3") for k in range(1, 5))
        lams = [partition_of_multiplicities(u)
                for u in itertools.product(*(range(c + 1) for c in caps))]
        exp = Expansion("pbar", max(map(sum, lams)),
                        {lam: theorem_coefficient_subsets(g, lam, "1.3")
                         for lam in lams})
        assert recover_signed_exponent_multiset(exp, caps) == \
            signed_exponent_family(g, "1.3", (1, 2, 3, 4))
    verdict(8, "independence multiset rebuilds the series and is recovered "
               "back from it, sizes <= 4")


def test_criterion_09_q_suite():
    # pyramid expansion (as the omega image; see the decisions ledger)
    for g in (K2, P3):
        assert pyramid_p_expansion_q(g, 4) == omega(kromatic_q(g, 4))
    # closed coefficient formulas vs exact q-ring extraction
    for g in (K2, P3):
        X = kromatic_q(g, 4)
        W = omega(X)
        tgt = {"5.1": extract(W, "pbarprime"), "5.2": extract(X, "pbarprime"),
               "5.3": extract(W, "pbar"), "5.4": extract(X, "pbar")}
        for lam in partitions_up_to(4):
            if not lam:
                continue
            for rule in ("5.1", "5.2", "5.3", "5.4"):
                assert power_sum_coefficient_q(g, lam, rule) == \
                    tgt[rule].coeff(lam), (lam, rule)
    # q = 1 collapses
    for g in (K2, P3):
        assert specialize_q(kromatic_q(g, 4), 1) == kromatic(g, 4)
        for lam in partitions_up_to(4):
            if not lam:
                continue
            sign = -1 if (sum(lam) - len(lam)) % 2 else 1
            assert power_sum_coefficient_q(g, lam, "5.1")(1) == \
                theorem_coefficient(g, lam, "1.5")
            assert power_sum_coefficient_q(g, lam, "5.2")(1) == \
                sign * theorem_coefficient(g, lam, "1.4")
            assert power_sum_coefficient_q(g, lam, "5.3")(1) == \
                theorem_coefficient(g, lam, "1.3")
            assert power_sum_coefficient_q(g, lam, "5.4")(1) == \
                sign * theorem_coefficient(g, lam, "1.2")
    verdict(9, "q-refined expansions, closed formulas, and q=1 collapses")


def test_criterion_10_property_suites():
    check_canonical_invariance(trials=200, seed=20260822)
    rng = random.Random(8)
    for _ in range(10):
        N = 4
        F = SymPoly(N, {lam: rng.randint(-3, 3)
                        for lam in partitions_up_to(N) if lam})
        assert omega(omega(F)) == F
        for basis in ("p", "pbar", "pbarprime"):
            exp = extract(F, basis)
            assert assemble(exp, N) == F
    for n in range(1, 65):
        total = sum(mu_hat(d) * (-1) ** (n // d + 1) for d in divisors(n))
        assert total == (1 if n == 1 else 0)
    verdict(10, "canonicalization invariance, omega involution, extraction "
                "round trips, arithmetic inversion")
