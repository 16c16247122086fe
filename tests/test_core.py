import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kromatic import bundled_graph
from kromatic.cli import binomial_box_sums
import kromatic.core as core
from kromatic.core import (
    chromatic_p_expansion_oracles, exponent, exponent_column,
    independence_multiset, kromatic, kromatic_expansion,
    kromatic_from_multiset, peel_signed_family, pick_table,
    proper_set_colorings, recover_signed_exponent_multiset, rule_sign,
    series_exponents, signed_exponent_family, theorem_coefficient,
    theorem_coefficient_subsets, verify_factorization,
)
from kromatic.graphs import Graph, popcount
from kromatic.heaps import lyndon_support_counts
from kromatic.numbers import partitions_up_to
from kromatic.symfunc import Expansion, SymPoly, extract, omega

from helpers import (binomial_sum_coefficients, brute_force_chromatic,
                     brute_force_kromatic, clear_caches, induced_subgraph,
                     partition_of_multiplicities, small_graphs,
                     theorem_coefficient_by_products)

K1 = bundled_graph("k1")
K2 = bundled_graph("k2")
K3 = bundled_graph("k3")
P3 = bundled_graph("p3")
P4 = bundled_graph("p4")
C4 = bundled_graph("c4")
PAW = bundled_graph("paw")
E2 = Graph(2, [])  # two isolated vertices

# Signed pbar expansion of the set-coloring generating function of K2 through
# degree 5 (checked by hand against the counting rules before freezing).
K2_GOLDEN_PBAR = {
    (2,): -1, (1, 1): 1,
    (3,): 2, (2, 1): -2,
    (4,): -4, (3, 1): 4, (2, 2): 1, (2, 1, 1): -1,
    (5,): 6, (4, 1): -8, (3, 2): -2, (3, 1, 1): 2, (2, 2, 1): 2,
}


def test_k2_golden_pbar_table():
    exp = extract(kromatic(K2, 5), "pbar")
    assert exp.coeffs == K2_GOLDEN_PBAR


def test_proper_set_colorings_smallest():
    # K1 with budget 2 over 2 colors: {1}, {2}, {1,2}
    assert sorted(proper_set_colorings(K1, 2, 2)) == [(0b01,), (0b10,), (0b11,)]
    # K2: adjacent sets must be disjoint
    for coloring in proper_set_colorings(K2, 4, 3):
        assert coloring[0] & coloring[1] == 0


def test_kromatic_matches_brute_force():
    for g in (K1, K2, K3, P3, E2, P4, C4, PAW):
        assert kromatic(g, 4) == brute_force_kromatic(g, 4)


def test_omega_kromatic_consistent():
    for g in (K1, K2, P3, E2, C4):
        assert kromatic(g, 4, "omega") == omega(kromatic(g, 4))


def test_kromatic_lowest_degree_is_chromatic():
    # the minimum-degree slice (degree n) is the classical proper-coloring
    # generating function
    for g in (K2, P3, K3):
        n = g.n
        F, X = kromatic(g, n), brute_force_chromatic(g)
        assert ({lam: c for lam, c in F.terms().items() if sum(lam) == n}
                == {lam: c for lam, c in X.terms().items() if sum(lam) == n})


def test_exponent_families_k2():
    assert [exponent(K2, k, "1.5") for k in range(1, 6)] == [2, 1, 2, 3, 6]
    assert exponent(K2, 4, "1.5") == 3
    assert [exponent(K2, k, "1.3") for k in range(1, 6)] == [2, 3, 2, 6, 6]
    assert exponent(K2, 2, "1.4") == -3
    assert [exponent(K2, k, "1.2") for k in range(1, 6)] == [2, -1, 2, -4, 6]
    # subset supports restrict the Lyndon counts
    assert exponent(K2, 1, "1.5", support=0b01) == 1
    # sizes 2, 1 on one vertex
    assert exponent(K2, 2, "1.3", support=0b01) == 1


def test_verify_factorization_full_support():
    for g in (K2, P3):
        for variant in "abcd":
            assert verify_factorization(g, variant, 5)
    for variant in "abcd":
        assert verify_factorization(PAW, variant, 4)


def test_verify_factorization_subsets():
    for mask in range(1 << P3.n):
        sub = induced_subgraph(P3, mask)[0]
        for variant in ("a", "d"):
            assert verify_factorization(sub, variant, 4)


def test_verify_factorization_rejects_wrong_exponent(monkeypatch):
    # one exponent off by one, at any k <= N, must break every claim
    import kromatic.core as core
    for bad_k in range(1, 5):
        monkeypatch.setattr(
            core, "exponent", lambda g, k, rule, support=None, bad_k=bad_k:
            exponent(g, k, rule, support) + (k == bad_k))
        for variant in "abcd":
            with pytest.raises(AssertionError, match=rf"at t\^{bad_k}, "):
                verify_factorization(P3, variant, 4)


def test_theorem_coefficient_examples():
    assert theorem_coefficient(K2, (4,), "1.2") == 4
    assert theorem_coefficient(K2, (2, 2), "1.2") == 1
    assert theorem_coefficient(K2, (4, 1), "1.2") == 8
    assert theorem_coefficient(K2, (1,), "1.2") == 0  # coverage fails
    assert theorem_coefficient(K2, (2,), "1.3") == 1
    assert theorem_coefficient(K2, (1, 1), "1.5") == 1


RULES = ("1.2", "1.3", "1.4", "1.5")


def run_theorem_suite(g, N=5):
    """All four coefficient rules against basis extraction, degrees <= N.
    Returns the number of (rule, partition) pairs checked."""
    X = kromatic(g, N)
    W = kromatic(g, N, "omega")
    by_rule = {
        "1.2": extract(X, "pbar"),
        "1.3": extract(W, "pbar"),
        "1.4": extract(X, "pbarprime"),
        "1.5": extract(W, "pbarprime"),
    }
    checked = 0
    for lam in partitions_up_to(N):
        if not lam:
            continue
        sign = -1 if (sum(lam) - len(lam)) % 2 else 1
        for which in RULES:
            direct = theorem_coefficient(g, lam, which)
            assert direct >= 0
            assert direct == theorem_coefficient_subsets(g, lam, which), \
                (g, lam, which)
            expected = by_rule[which].coeff(lam)
            if which in ("1.2", "1.4"):
                expected = sign * expected
            assert direct == expected, (g, lam, which, direct, expected)
            checked += 1
    return checked


def test_theorem_suite_small_graphs():
    for g in (K2, P3, PAW):
        assert run_theorem_suite(g, N=5) == 4 * 18


# differential tests on random graphs with at most 5 vertices (the empty
# graph, isolated vertices and disconnected graphs included)
DIFFERENTIAL = settings(derandomize=True, database=None, max_examples=30,
                        deadline=None)


@DIFFERENTIAL
@given(small_graphs(max_n=3))
def test_proper_set_colorings_match_a_filter_over_every_tuple(g):
    # the docstring's contract: one nonempty color mask per vertex, disjoint
    # on every edge, total size at most the budget, each coloring once
    for M in range(4):
        masks = range(1, 1 << M)
        for budget in range(6):
            want = sorted(
                c for c in itertools.product(masks, repeat=g.n)
                if sum(map(popcount, c)) <= budget
                and all(c[u - 1] & c[v - 1] == 0 for u, v in g.edges))
            assert sorted(proper_set_colorings(g, budget, M)) == want, \
                (M, budget)


@DIFFERENTIAL
@given(small_graphs())
def test_kromatic_random_graphs(g):
    F = kromatic(g, 5)
    assert F == brute_force_kromatic(g, 5)
    assert kromatic(g, 5, "omega") == omega(F)


@DIFFERENTIAL
@given(small_graphs())
def test_theorem_suite_random_graphs(g):
    assert run_theorem_suite(g, N=5) == 4 * 18


def _check_count_against_products(g, N):
    for lam in partitions_up_to(N):
        for which in RULES:
            assert theorem_coefficient(g, lam, which) == \
                theorem_coefficient_by_products(g, lam, which), (g, lam, which)


@DIFFERENTIAL
@given(small_graphs())
def test_theorem_coefficient_matches_products(g):
    _check_count_against_products(g, 5)


def test_theorem_coefficient_matches_products_seven_vertices():
    # a triangle with two pendant paths and an isolated vertex; heaps of
    # total size below 7 cannot cover 7 vertices, so the sizes go up to 8
    g = Graph(7, [(1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (5, 6)])
    assert theorem_coefficient(g, (4, 2, 1), "1.3") > 0
    _check_count_against_products(g, 8)


def test_theorem_coefficient_picks_several_heaps_of_one_support():
    # every support of a size-4 Lyndon heap of K2 and C4 holds 3 or 4 heaps,
    # and lambda = (4, 4) picks two of them: C(c + 1, 2) multisets of one
    # support under rule 1.2 at the even part 4, C(c, 2) sets under 1.5
    assert rule_sign("1.2", (4,)) < 0 < rule_sign("1.5", (4,))
    for g in (K2, C4):
        assert min(lyndon_support_counts(g, 4).values()) >= 3
        for which in ("1.2", "1.5"):
            assert theorem_coefficient(g, (4, 4), which) == \
                theorem_coefficient_by_products(g, (4, 4), which), (g, which)


def test_theorem_coefficient_counts_without_subset_formula(monkeypatch):
    # the count is checked against the subset formula, so it must not be
    # built from the subset formula's parts
    def refuse(*args):
        raise AssertionError("subset formula called")

    clear_caches()  # no pick table built before the patch may hide a call
    for name in ("signed_subset_sum", "exponent", "exponent_column",
                 "_binomial_sum"):
        monkeypatch.setattr(core, name, refuse)
    for g in (K2, P3, PAW):
        for lam in partitions_up_to(5):
            for which in RULES:
                theorem_coefficient(g, lam, which)


def test_clear_caches_recomputes():
    first = signed_exponent_family(PAW, "1.2", (1, 2, 3))
    assert signed_exponent_family(PAW, "1.2", (1, 2, 3)) is first
    clear_caches()
    again = signed_exponent_family(PAW, "1.2", (1, 2, 3))
    assert again == first and again is not first
    # every cached function of the module is emptied
    cached = [f for f in vars(core).values() if hasattr(f, "cache_info")
              and f.__module__ == core.__name__]
    theorem_coefficient_subsets(PAW, (2, 1), "1.4")
    clear_caches()
    assert all(f.cache_info().currsize == 0 for f in cached)


def test_signed_exponent_family_is_read_only():
    with pytest.raises(TypeError):
        signed_exponent_family(K2, "1.3", (1, 2))[(0, 0)] = 0


def test_cached_columns_and_tables_are_read_only():
    # callers share each cached value, so none of them may write to it
    with pytest.raises(TypeError):
        exponent_column(PAW, 2, "1.4")[0] = 1
    with pytest.raises(TypeError):
        pick_table(PAW, 1, "1.2", 2)[PAW.full_mask] = 0
    with pytest.raises(TypeError):
        lyndon_support_counts(PAW, 2)[PAW.full_mask] = 0


@DIFFERENTIAL
@given(small_graphs())
def test_signed_exponent_family_matches_subset_loop(g):
    # every ascending tuple of distinct sizes with sum <= 6
    part_tuples = [parts for r in range(4)
                   for parts in itertools.combinations(range(1, 7), r)
                   if sum(parts) <= 6]
    for rule in RULES:
        for parts in part_tuples:
            want = {}
            for mask in range(g.full_mask + 1):
                key = tuple(exponent(g, k, rule, mask) for k in parts)
                want[key] = want.get(key, 0) + (-1) ** (g.n - popcount(mask))
            assert signed_exponent_family(g, rule, parts) == {
                key: w for key, w in want.items() if w}, (g, rule, parts)


def _check_classical_p_oracles(g):
    edges_exp, ao_exp = chromatic_p_expansion_oracles(g)
    assert edges_exp.coeffs == ao_exp.coeffs
    direct = extract(brute_force_chromatic(g), "p")
    assert direct.coeffs == edges_exp.coeffs


def test_classical_p_oracles():
    for g in (K1, K2, K3, P3, P4, C4, PAW):
        _check_classical_p_oracles(g)
    # frozen spec example
    assert chromatic_p_expansion_oracles(K2)[0].coeffs == {(1, 1): 1, (2,): -1}


@DIFFERENTIAL
@given(small_graphs(max_n=5))
@example(Graph(0, []))
@example(Graph(3, []))  # isolated vertices
@example(Graph(5, [(1, 2), (3, 4), (3, 5)]))  # disconnected
def test_classical_p_oracles_random_graphs(g):
    _check_classical_p_oracles(g)


def _check_kromatic_expansion(g, N):
    ms = independence_multiset(g)
    for image in ("direct", "omega"):
        F = kromatic_from_multiset(ms, N, image)
        for basis in ("pbar", "pbarprime"):
            assert kromatic_expansion(ms, N, image, basis) == \
                extract(F, basis)


@DIFFERENTIAL
@given(small_graphs(), st.integers(0, 8))
def test_kromatic_expansion_matches_extraction(g, N):
    _check_kromatic_expansion(g, N)


@DIFFERENTIAL
@given(small_graphs(), st.integers(0, 9), st.sampled_from((1, 2, 3)))
def test_restricted_extraction_keeps_the_small_parts(g, N, a):
    # pi (p_k = 0 for k > a) kills every basis element with a larger part,
    # so peeling the projection finds the full coefficients at parts <= a
    for F in (kromatic(g, N), kromatic(g, N, "omega")):
        for basis in ("pbar", "pbarprime"):
            got = extract(F, basis, max_part=a)
            assert got.coeffs == {
                lam: c for lam, c in extract(F, basis).coeffs.items()
                if max(lam, default=0) <= a}
            assert got.max_part == (a if a < N else None)


def test_kromatic_expansion_eight_vertices_and_empty_graph():
    rng = random.Random(20261019)
    pairs = list(itertools.combinations(range(1, 9), 2))
    _check_kromatic_expansion(
        Graph(8, [e for e in pairs if rng.random() < 0.35]), 12)
    _check_kromatic_expansion(Graph(0, []), 5)


def test_kromatic_expansion_refuses_inexact_division():
    ms = (((1,), 0), ((1, Fraction(1, 2)), 1))
    with pytest.raises(ValueError, match="not a multiple of 1"):
        kromatic_expansion(ms, 3, "direct", "pbar")
    # t f'/f = t^2 has no integral exponents: e(2) would be 1/2
    with pytest.raises(ValueError, match="not a multiple of 2"):
        series_exponents((0, 0, 1), 2, "pbar")


def test_independence_multiset():
    ms = independence_multiset(K2)
    assert ms == (((1,), 0), ((1, 1), 1), ((1, 1), 1), ((1, 2), 2))
    for g in (K2, P3, C4):
        ms = independence_multiset(g)
        F = brute_force_kromatic(g, 4)
        assert kromatic_from_multiset(ms, 4) == F
        assert kromatic_from_multiset(ms, 4, image="omega") == omega(F)


def test_recover_signed_family_tiny():
    # one-vertex graph, sizes up to 1: subsets contribute -1 at (0,) and
    # +1 at (1,)
    F = kromatic(K1, 1, "omega")
    got = recover_signed_exponent_multiset(extract(F, "pbar"), (1,))
    assert got == {(0,): -1, (1,): 1}


def test_recover_signed_family_k2_from_extraction():
    # fully honest: expansion comes from the truncated function itself
    F = kromatic(K2, 8, "omega")
    fam = signed_exponent_family(K2, "1.3", (1, 2))
    assert fam == {(0, 0): 1, (1, 1): -2, (2, 3): 1}
    got = recover_signed_exponent_multiset(extract(F, "pbar"), (2, 3))
    assert got == fam


def test_recover_signed_family_p3_from_extraction():
    # degree bound 1*3 + 2*5 = 13
    F = kromatic(P3, 13, "omega")
    fam = signed_exponent_family(P3, "1.3", (1, 2))
    assert fam == {(0, 0): -1, (1, 1): 3, (2, 2): -1, (2, 3): -2, (3, 5): 1}
    assert recover_signed_exponent_multiset(extract(F, "pbar"), (3, 5)) == fam


def test_recover_signed_family_p3_from_restricted_extraction():
    # the box (3, 5) reads only parts 1 and 2
    F = kromatic(P3, 13, "omega")
    exp = extract(F, "pbar", max_part=2)
    assert set(exp.coeffs) <= {lam for lam in partitions_up_to(13)
                               if max(lam, default=0) <= 2}
    assert recover_signed_exponent_multiset(exp, (3, 5)) == \
        signed_exponent_family(P3, "1.3", (1, 2))


def test_recover_refuses_caps_longer_than_max_part():
    exp = extract(kromatic(P3, 13, "omega"), "pbar", max_part=1)
    with pytest.raises(ValueError, match="max_part=1"):
        recover_signed_exponent_multiset(exp, (3, 5))
    # caps of one size read parts of size 1 only
    assert recover_signed_exponent_multiset(exp, (3,)) == \
        signed_exponent_family(P3, "1.3", (1,))


def test_recover_requires_enough_degree():
    F = kromatic(K2, 6, "omega")
    with pytest.raises(ValueError):
        # needs degree 8
        recover_signed_exponent_multiset(extract(F, "pbar"), (2, 3))


def test_recover_requires_pbar():
    with pytest.raises(ValueError, match="needs a pbar expansion"):
        recover_signed_exponent_multiset(
            extract(kromatic(K2, 8, "omega"), "pbarprime"), (2, 3))


@pytest.mark.parametrize("caps", [(-1,), (2, -1)])
def test_recover_refuses_a_negative_cap(caps):
    # an empty box would drop the whole residual and return {}
    exp = extract(kromatic(K2, 8, "omega"), "pbar")
    with pytest.raises(ValueError, match="negative cap"):
        recover_signed_exponent_multiset(exp, caps)
    with pytest.raises(ValueError, match="negative cap"):
        peel_signed_family({(0,) * len(caps): 1}, caps)


def test_recover_signed_family_k4_forward():
    # at sizes up to 4 the honest truncation is out of reach (degree ~38+),
    # so the expansion is generated by the subset formula, whose agreement
    # with extraction is covered degree-by-degree elsewhere; this validates
    # that the coefficients determine the signed family
    for g in (K2, P3):
        caps = tuple(exponent(g, k, "1.3") for k in range(1, 5))
        fam = signed_exponent_family(g, "1.3", (1, 2, 3, 4))
        box = list(itertools.product(*(range(c + 1) for c in caps)))
        assert set(fam) <= set(box)
        lams = [partition_of_multiplicities(u) for u in box]
        exp = Expansion("pbar", max(map(sum, lams)),
                        {lam: theorem_coefficient_subsets(g, lam, "1.3")
                         for lam in lams})
        got = recover_signed_exponent_multiset(exp, caps)
        assert got == fam


@st.composite
def signed_families_in_boxes(draw):
    """(caps, pairs): one to four caps up to 3, and (vector, weight) pairs
    inside their box with weights in -3..3, some of them repeated with the
    opposite weight so that they cancel."""
    caps = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)))
    vectors = st.tuples(*(st.integers(0, c) for c in caps))
    pairs = draw(st.lists(st.tuples(vectors, st.integers(-3, 3)),
                          max_size=8))
    undo = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    return caps, pairs + [(v, -w) for v, w in undo]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(signed_families_in_boxes(), st.data())
def test_recovery_round_trips_a_signed_family(box, data):
    # the push peel inverts the per-vector binomial sums exactly, and the
    # terms the box does not read change nothing
    caps, pairs = box
    family = {}
    for v, w in pairs:
        family[v] = family.get(v, 0) + w
    family = {v: w for v, w in family.items() if w}
    N = sum(k * c for k, c in enumerate(caps, 1)) + len(caps) + 1
    coeffs = binomial_sum_coefficients(pairs, caps)
    assert recover_signed_exponent_multiset(
        Expansion("pbar", N, coeffs), caps) == family
    # one multiplicity past its cap, and a part past len(caps)
    over = list(caps)
    over[data.draw(st.integers(0, len(caps) - 1))] += 1
    weights = st.sampled_from((-3, -2, -1, 1, 2, 3))
    outside = {partition_of_multiplicities(over): data.draw(weights),
               (len(caps) + 1, *partition_of_multiplicities(caps)):
               data.draw(weights)}
    assert recover_signed_exponent_multiset(
        Expansion("pbar", N, {**coeffs, **outside}), caps) == family


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(signed_families_in_boxes())
def test_box_binomial_sums_match_the_per_vector_oracle(box):
    # the recover-*-k4 forward map, one outer product of binomial rows per
    # family vector, against the sums taken one box vector at a time
    caps, pairs = box
    family = {}
    for v, w in pairs:
        family[v] = family.get(v, 0) + w
    got = {partition_of_multiplicities(u): c
           for u, c in binomial_box_sums(family, caps).items() if c}
    assert got == binomial_sum_coefficients(pairs, caps)


@DIFFERENTIAL
@given(small_graphs(), st.integers(0, 7), st.sampled_from((1, 2, 3)))
def test_projected_series_drops_the_large_parts(g, N, a):
    # with max_part = a the series is the full one without every term that
    # has a part > a, and extraction at the parts <= a reads the same
    ms = independence_multiset(g)
    for image in ("direct", "omega"):
        full = kromatic_from_multiset(ms, N, image)
        got = kromatic_from_multiset(ms, N, image, max_part=a)
        assert got == SymPoly(N, {lam: c for lam, c in full.terms().items()
                                  if max(lam, default=0) <= a})
        assert extract(got, "pbar", max_part=a) == \
            extract(full, "pbar", max_part=a)
    assert kromatic(g, N, "omega", max_part=a) == got


def test_forward_coefficients_match_extraction_low_degree():
    # the subset-formula coefficients of rule 1.3 agree with honest
    # extraction wherever both are defined
    for g in (K2, P3):
        W = extract(kromatic(g, 5, "omega"), "pbar")
        for lam in partitions_up_to(5):
            if lam and all(p <= 4 for p in lam):
                assert theorem_coefficient_subsets(g, lam, "1.3") == \
                    W.coeff(lam), (g, lam)


def test_menu_sizes_refuses_an_unknown_rule():
    # the q rules 5.x have no heap menu
    with pytest.raises(ValueError, match="unknown coefficient rule"):
        core._menu_sizes(2, "5.1")
