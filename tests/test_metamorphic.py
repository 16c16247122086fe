"""Metamorphic relations on random pairs of small graphs: what a disjoint
union and a relabelling of the vertices must do to F, its omega image, its
expansions over the multiplicative bases, the Lyndon counts and the
factorization exponents."""
from hypothesis import given, settings, strategies as st

from kromatic.core import exponent, kromatic, omega_kromatic
from kromatic.graphs import Graph
from kromatic.heaps import lyndon_count
from kromatic.symfunc import SymPoly, extract

from helpers import small_graphs

N = 6
METAMORPHIC = settings(derandomize=True, database=None, max_examples=30,
                       deadline=None)
PAIRS = (small_graphs(max_n=4), small_graphs(max_n=3))


def disjoint_union(g, h):
    """g beside h, with h's vertices numbered after g's."""
    return Graph(g.n + h.n, list(g.edges)
                 + [(u + g.n, v + g.n) for u, v in h.edges])


@METAMORPHIC
@given(*PAIRS)
def test_disjoint_union_multiplies_series_and_adds_lyndon_counts(g, h):
    gh = disjoint_union(g, h)
    for series in (kromatic, omega_kromatic):
        assert series(gh, N) == series(g, N) * series(h, N)
        # every basis is multiplicative and SymPoly's product is the union
        # of partitions, so the coefficients, read as a SymPoly, multiply
        for basis in ("p", "pbar", "pbarprime"):
            def coeffs(x):
                return SymPoly(N, extract(series(x, N), basis).coeffs)
            assert coeffs(gh) == coeffs(g) * coeffs(h), basis
    for k in range(1, N + 1):
        assert lyndon_count(gh, k) == lyndon_count(g, k) + lyndon_count(h, k)


@METAMORPHIC
@given(*PAIRS, st.data())
def test_relabelling_keeps_series_and_exponents(g, h, data):
    gh = disjoint_union(g, h)
    perm = data.draw(st.permutations(range(1, gh.n + 1)), label="perm")
    moved = Graph(gh.n, [(perm[u - 1], perm[v - 1]) for u, v in gh.edges])
    assert kromatic(moved, N) == kromatic(gh, N)
    assert omega_kromatic(moved, N) == omega_kromatic(gh, N)
    for rule in ("1.2", "1.3", "1.4", "1.5"):
        for k in range(1, N + 1):
            assert exponent(moved, k, rule) == exponent(gh, k, rule)
