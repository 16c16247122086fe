import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import kromatic.core as core
import kromatic.heaps as heaps
import kromatic.quasisym as quasisym
import kromatic.symfunc as symfunc
from helpers import (ascent_polynomial_by_lists, assemble, clear_caches,
                     small_graphs, unit_interval_models)
from kromatic import BUNDLED_MODELS, bundled_graph, bundled_model
from kromatic.core import kromatic, theorem_coefficient
from kromatic.graphs import Graph
from kromatic.heaps import enumerate_pyramids
from kromatic.numbers import QPoly, partitions_of, partitions_up_to, z_lambda
from kromatic.quasisym import (
    RULES_Q, _p_over_basis, coloring_ascents, kromatic_q, kromatic_q_vectors,
    kromatic_q_via_clans, partition_coefficients, power_sum_coefficient_q,
    pyramid_p_expansion_q, specialize_q,
)
from kromatic.symfunc import (Expansion, SymPoly, extract, omega,
                              sympoly_from_vector_counts)

K1 = bundled_graph("k1")
K2 = bundled_graph("k2")
K3 = bundled_graph("k3")
P3 = bundled_graph("p3")
P4 = bundled_graph("p4")
C4 = bundled_graph("c4")
PAW = bundled_graph("paw")
E2 = Graph(2, [])
CLAW = Graph(4, [(1, 2), (1, 3), (1, 4)])  # centre 1
P3_CENTRE_1 = Graph(3, [(1, 2), (1, 3)])


def test_coloring_ascents():
    # K2, kappa(1)={1}, kappa(2)={2}: one ascending color pair
    assert coloring_ascents(K2, (0b01, 0b10)) == 1
    assert coloring_ascents(K2, (0b10, 0b01)) == 0
    # kappa(1)={1,2}, kappa(2)={3}: pairs (1,3) and (2,3)
    assert coloring_ascents(K2, (0b011, 0b100)) == 2
    # no edges, no ascents
    assert coloring_ascents(E2, (0b011, 0b100)) == 0


def test_k2_x1x2_coefficient():
    v = kromatic_q_vectors(K2, 2, 2)
    assert v[(1, 1)] == QPoly((1, 1))  # 1 + q
    # (1 + q) m_11 = (1 + q) (p_11 - p_2) / 2, and nothing else in degree 2
    F = kromatic_q(K2, 2)
    assert {lam: c for lam, c in F.terms().items() if sum(lam) == 2} == {
        (1, 1): QPoly((Fraction(1, 2),) * 2),
        (2,): QPoly((Fraction(-1, 2),) * 2)}


def test_q_at_one_counts_colorings():
    from kromatic.core import proper_set_colorings
    for g in (K2, P3, PAW, E2):
        counts = kromatic_q_vectors(g, 4, 4)
        total = sum(p(1) for p in counts.values())
        assert total == sum(1 for _ in proper_set_colorings(g, 4, 4))


def test_specialize_q_collapse():
    for g in (K2, P3, PAW):
        assert specialize_q(kromatic_q(g, 4), 1) == kromatic(g, 4)


def test_via_clans_matches_direct_enumeration():
    # vertex counts 0, N - 1, N, N + 1 and N + 2 included, where the
    # compositions run out
    cases = [(K1, 4, 3), (K2, 5, 3), (K3, 5, 3), (P3, 4, 3), (E2, 4, 3),
             (P4, 5, 3), (C4, 5, 3), (PAW, 5, 3), (Graph(0, []), 3, 3),
             (P4, 4, 3), (Graph(5, [(1, 2)]), 4, 3), (Graph(6, []), 4, 3)]
    for g, N, M in cases:
        assert kromatic_q_via_clans(g, N, M) == kromatic_q_vectors(g, N, M)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(small_graphs(), st.integers(0, 5))
@example(CLAW, 4)
@example(P3_CENTRE_1, 4)
def test_transfer_matrix_matches_set_colorings(g, N):
    # graphs with no unit interval model and N < n included; ascents and
    # descents give different vectors on the claw and on P3 with centre 1,
    # so the walk's cross term over the lower neighbours fails there
    vectors = kromatic_q_vectors(g, N, N)
    table = partition_coefficients(g, N)
    for vec, poly in vectors.items():
        if list(vec) == sorted(vec, reverse=True):
            assert table.get(tuple(a for a in vec if a)) == poly, vec
    for lam, poly in table.items():
        assert vectors.get(lam + (0,) * (N - len(lam))) == poly, lam


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(small_graphs(max_n=4))
@example(P3)
@example(PAW)
def test_set_coloring_vectors_cover_every_placement(g):
    # relabelling the colors in order keeps every ascent, so a composition
    # has one coefficient at each of its C(M, len) placements among zeros
    for N, M in itertools.product(range(5), range(1, 5)):
        vectors = kromatic_q_vectors(g, N, M)
        for vec, poly in vectors.items():
            alpha = [a for a in vec if a]
            for cols in itertools.combinations(range(M), len(alpha)):
                placed = [0] * M
                for c, a in zip(cols, alpha):
                    placed[c] = a
                assert vectors.get(tuple(placed)) == poly, (N, M, vec, placed)


MODELS = [bundled_model(name) for name in BUNDLED_MODELS]


def test_kromatic_q_enumerates_no_set_colorings(monkeypatch):
    def refuse(*args):
        raise AssertionError("kromatic_q enumerated set colorings")

    monkeypatch.setattr(core, "proper_set_colorings", refuse)
    monkeypatch.setattr(quasisym, "proper_set_colorings", refuse)
    monkeypatch.setattr(quasisym, "kromatic_q_vectors", refuse)
    for g in MODELS:
        kromatic_q(g, 6)


def test_kromatic_q_matches_set_colorings_on_models():
    for g in MODELS:
        assert kromatic_q(g, 6) == sympoly_from_vector_counts(
            kromatic_q_vectors(g, 6, 6), 6), g


def test_edgeless_graph_has_constant_coefficients():
    for poly in kromatic_q_vectors(E2, 4, 3).values():
        assert len(poly.c) <= 1  # no ascents anywhere


def test_c4_vectors_are_not_symmetric():
    v = kromatic_q_vectors(C4, 5, 3)
    assert v[(2, 1, 2)] != v[(2, 2, 1)]
    with pytest.raises(ValueError, match="not symmetric"):
        sympoly_from_vector_counts(kromatic_q_vectors(C4, 5, 5), 5)
    with pytest.raises(ValueError, match="not symmetric"):
        kromatic_q(C4, 5)


def test_kromatic_q_refuses_before_any_walk(monkeypatch):
    # C4 has no natural unit interval labels, so kromatic_q raises on the
    # labels alone
    def refuse(*args):
        raise AssertionError("kromatic_q walked a graph it refuses")

    monkeypatch.setattr(quasisym, "_covering_walk", refuse)
    with pytest.raises(ValueError, match="not symmetric"):
        kromatic_q(C4, 5)


def test_kromatic_q_does_not_read_orbits(monkeypatch):
    # the models' series are symmetric, so kromatic_q converts the
    # partition table directly, with no orbit reader
    def refuse(*args):
        raise AssertionError("kromatic_q called the orbit reader")

    monkeypatch.setattr(symfunc, "sympoly_from_vector_counts", refuse)
    monkeypatch.setattr(quasisym, "sympoly_from_vector_counts", refuse,
                        raising=False)
    for g in MODELS:
        kromatic_q(g, 6)


def covering_polynomial(g, lam):
    """A_lam(q), the sum of q^ascents over the lists of pyramids of sizes
    lam that cover every vertex: z_lam times the coefficient of p_lam in
    the pyramid expansion."""
    return z_lambda(lam) * pyramid_p_expansion_q(g, sum(lam)).coeff(lam)


def test_unit_interval_vectors_are_symmetric():
    for g in (K2, K3, P3, P4, PAW):
        kromatic_q(g, 5)  # no ValueError


ASCENT_TABLES = {
    # path on three vertices
    (P3, (3,)): (1, 1, 1),
    (P3, (2, 1)): (1, 2, 1),
    (P3, (1, 1, 1)): (1, 4, 1),
    (P3, (4,)): (3, 4, 4, 4, 1),          # not palindromic
    (P3, (2, 1, 1)): (3, 8, 10, 4, 1),
    # triangle plus a pendant
    (PAW, (5,)): (4, 9, 13, 14, 14, 10, 5, 1),
    # single edge
    (K2, (2,)): (1, 1),
}


def test_ascent_polynomial_frozen_values():
    for (g, lam), coeffs in ASCENT_TABLES.items():
        assert covering_polynomial(g, lam) == QPoly(coeffs), (g, lam)


def test_ascent_polynomial_empty_sizes():
    assert covering_polynomial(K2, ()) == QPoly()  # cannot cover
    # the empty list covers the empty graph
    assert covering_polynomial(Graph(0, []), ()) == QPoly(1)


def test_pyramid_expansion_is_omega_image():
    # one degree beyond the vertex count, so heaps with repeated vertices
    # (whose ascent polynomials are not palindromic) are exercised
    for g in (K1, K2, K3, P3, P4, PAW):
        N = g.n + 1
        assert pyramid_p_expansion_q(g, N) == omega(kromatic_q(g, N))


def test_unrestricted_pair_statistic_fails(monkeypatch):
    # counting all vertex-order ascents, not just adjacent ones, breaks the
    # expansion on any graph with a non-edge
    def all_pairs(g, w):
        return sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
                   if w[i] < w[j])

    g = P3
    want = omega(kromatic_q(g, 3))
    monkeypatch.setattr(heaps, "ascent_count", all_pairs)
    clear_caches()  # the cached pyramid classes hold the true count
    try:
        assert pyramid_p_expansion_q(g, 3) != want
    finally:
        clear_caches()


def q_extraction_targets(g, N):
    X = kromatic_q(g, N)
    W = omega(X)
    return {"5.1": extract(W, "pbarprime"), "5.2": extract(X, "pbarprime"),
            "5.3": extract(W, "pbar"), "5.4": extract(X, "pbar")}


def test_rule_coefficients_match_extraction():
    for g, N in ((K2, 5), (P3, 4), (PAW, 4)):
        tgt = q_extraction_targets(g, N)
        for lam in partitions_up_to(N):
            if not lam:
                continue
            for rule in ("5.1", "5.2", "5.3", "5.4"):
                got = power_sum_coefficient_q(g, lam, rule)
                assert got == tgt[rule].coeff(lam), (g, lam, rule)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(unit_interval_models(),
       st.integers(1, 5).flatmap(lambda n: st.sampled_from(
           list(partitions_of(n)))))
def test_rule_coefficients_match_extraction_on_random_models(g, lam):
    tgt = q_extraction_targets(g, sum(lam))
    for rule in RULES_Q:
        got = power_sum_coefficient_q(g, lam, rule)
        assert got == tgt[rule].coeff(lam), (g, lam, rule)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(st.one_of(unit_interval_models(max_n=4), small_graphs(max_n=4)))
@example(C4)
def test_ascent_polynomial_matches_pyramid_lists(g):
    # every partition up to two past the vertex count, so that pyramids
    # repeat vertices and some lists overlap.  On a unit interval graph,
    # counting the pairs across pyramids with the lower vertex later gives
    # the same polynomials, so only the other graphs tell the two apart:
    # C4, which has no unit interval model, on every run.
    for lam in partitions_up_to(g.n + 2):
        assert covering_polynomial(g, lam) == \
            ascent_polynomial_by_lists(g, lam), (g, lam)


def test_p_over_basis_inverts_the_basis_change():
    # reading each symbol p_lam of the series as the basis element b_lam
    # gives back p_mu: products included, since b is multiplicative
    N = 6
    for basis in ("pbar", "pbarprime"):
        for mu in partitions_up_to(N):
            series = _p_over_basis(basis, mu, N).terms()
            assert assemble(Expansion(basis, N, series), N) == \
                SymPoly(N, {mu: 1}), (basis, mu)


def test_rule_coefficients_do_not_extract(monkeypatch):
    # prop-5.x-* holds the closed formula to extraction, so the formula
    # must build no basis element and peel nothing
    def refuse(*args):
        raise AssertionError("extraction route called")

    clear_caches()
    for name in ("extract", "basis_element"):
        monkeypatch.setattr(symfunc, name, refuse)
    for g in (K2, P3, PAW):
        for lam in partitions_up_to(4):
            for rule in RULES_Q:
                power_sum_coefficient_q(g, lam, rule)


def test_rule_coefficients_collapse_at_q_one():
    for lam in partitions_up_to(5):
        if not lam:
            continue
        sign = -1 if (sum(lam) - len(lam)) % 2 else 1
        assert power_sum_coefficient_q(K2, lam, "5.1")(1) == \
            theorem_coefficient(K2, lam, "1.5")
        assert power_sum_coefficient_q(K2, lam, "5.2")(1) == \
            sign * theorem_coefficient(K2, lam, "1.4")
        assert power_sum_coefficient_q(K2, lam, "5.3")(1) == \
            theorem_coefficient(K2, lam, "1.3")
        assert power_sum_coefficient_q(K2, lam, "5.4")(1) == \
            sign * theorem_coefficient(K2, lam, "1.2")


def test_cover_filter_matters():
    # K2 has two one-vertex pyramids, but a single vertex cannot cover K2,
    # so the covering polynomial and every coefficient at (1,) are zero
    assert len(enumerate_pyramids(K2, 1)) == 2
    assert covering_polynomial(K2, (1,)) == QPoly()
    for rule in ("5.1", "5.2", "5.3", "5.4"):
        assert power_sum_coefficient_q(K2, (1,), rule) == QPoly()


def test_rule_validation():
    with pytest.raises(ValueError):
        power_sum_coefficient_q(K2, (1,), "9.9")
