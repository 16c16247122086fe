"""Metamorphic relations on random small graphs: what a disjoint union and
a relabelling of the vertices must do to F, its omega image, its
expansions over the multiplicative bases, the Lyndon counts, the
factorization exponents and the theorem coefficients, and what reversing
the vertex labels does to the q-refined composition coefficients, and
what a disjoint union and an added isolated vertex do to the pyramid
classes."""
from hypothesis import given, settings, strategies as st

from kromatic.core import exponent, kromatic, omega_kromatic, \
    theorem_coefficient
from kromatic.graphs import Graph, mask_of, mask_vertices
from kromatic.heaps import lyndon_count, lyndon_support_counts, \
    pyramid_classes
from kromatic.numbers import partitions_up_to
from kromatic.quasisym import composition_coefficients
from kromatic.symfunc import SymPoly, extract

from helpers import small_graphs

N = 6
METAMORPHIC = settings(derandomize=True, database=None, max_examples=30,
                       deadline=None)
PAIRS = (small_graphs(max_n=4), small_graphs(max_n=3))


def relabel(g, perm):
    """g with each vertex v renamed perm[v - 1]."""
    return Graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])


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
    moved = relabel(gh, perm)
    assert kromatic(moved, N) == kromatic(gh, N)
    assert omega_kromatic(moved, N) == omega_kromatic(gh, N)
    for rule in ("1.2", "1.3", "1.4", "1.5"):
        for k in range(1, N + 1):
            assert exponent(moved, k, rule) == exponent(gh, k, rule)


@METAMORPHIC
@given(small_graphs(), st.data())
def test_relabelling_keeps_theorem_coefficients_and_lyndon_supports(g, data):
    perm = data.draw(st.permutations(range(1, g.n + 1)), label="perm")
    moved = relabel(g, perm)
    for rule in ("1.2", "1.3", "1.4", "1.5"):
        for lam in partitions_up_to(5):
            assert theorem_coefficient(moved, lam, rule) == \
                theorem_coefficient(g, lam, rule), (rule, lam)
    for k in range(1, 6):
        assert lyndon_support_counts(moved, k) == {
            mask_of(perm[v - 1] for v in mask_vertices(s)): c
            for s, c in lyndon_support_counts(g, k).items()}


@METAMORPHIC
@given(small_graphs())
def test_reversing_the_labels_reverses_the_compositions(g):
    # an edge u < v with color(u) < color(v) is an ascent; renaming each
    # vertex v to n + 1 - v and each color j to l + 1 - j keeps it one
    reversed_g = relabel(g, range(g.n, 0, -1))
    assert composition_coefficients(reversed_g, N) == {
        alpha[::-1]: c for alpha, c in composition_coefficients(g, N).items()}


@METAMORPHIC
@given(*PAIRS)
def test_disjoint_union_keeps_each_sides_pyramid_classes(g, h):
    # a pyramid's support is connected, so it lies on one side, and the
    # other side's vertices hold none of its pieces and add no ascents
    gh = disjoint_union(g, h)
    for n in range(1, 6):
        want = {(pieces + (0,) * h.n, asc): c
                for (pieces, asc), c in pyramid_classes(g, n).items()}
        want.update({((0,) * g.n + pieces, asc): c
                     for (pieces, asc), c in pyramid_classes(h, n).items()})
        assert pyramid_classes(gh, n) == want, n


@METAMORPHIC
@given(small_graphs())
def test_an_isolated_vertex_adds_one_lyndon_heap_and_its_own_pyramids(g):
    # the new vertex commutes with every old one, so it joins no heap of g;
    # alone, each size k has one pyramid, k copies of it, with no ascent,
    # and only the single piece is aperiodic
    plus = Graph(g.n + 1, g.edges)
    for k in range(1, 6):
        want = dict(lyndon_support_counts(g, k))
        if k == 1:
            want[1 << g.n] = 1
        assert lyndon_support_counts(plus, k) == want, k
        want = {(pieces + (0,), asc): c
                for (pieces, asc), c in pyramid_classes(g, k).items()}
        want[((0,) * g.n + (k,), 0)] = 1
        assert pyramid_classes(plus, k) == want, k
