"""Metamorphic relations on random small graphs: what a disjoint union and
a relabelling of the vertices must do to F, its omega image, its
expansions over the multiplicative bases, the Lyndon counts, the
factorization exponents and the theorem coefficients, what reversing
the vertex labels does to the q-refined exponent-vector coefficients,
what a disjoint union and an added isolated vertex do to the pyramid
classes, and how a join composes the independence multiset."""
from itertools import zip_longest

from hypothesis import given, settings, strategies as st

from kromatic.core import RULES, exponent, image_log, \
    independence_multiset, kromatic, kromatic_from_multiset, \
    series_exponents, theorem_coefficient
from kromatic.graphs import Graph, independence_polynomial, mask_of, \
    mask_vertices
from kromatic.heaps import lyndon_count, lyndon_support_counts, \
    pyramid_classes
from kromatic.numbers import partitions_up_to
from kromatic.quasisym import kromatic_q_vectors
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


def join(g, h):
    """g beside h, as in disjoint_union, with every vertex of g adjacent to
    every vertex of h."""
    return Graph(g.n + h.n, list(disjoint_union(g, h).edges)
                 + [(u, v + g.n) for u in g.vertices() for v in h.vertices()])


def join_polynomial(a, b):
    """I_(W1 u W2) = I_W1 + I_W2 - 1 in a join: an independent set of the
    join lies on one side."""
    out = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
    out[0] -= 1
    return tuple(out)


@METAMORPHIC
@given(*PAIRS)
def test_disjoint_union_multiplies_series_and_adds_lyndon_counts(g, h):
    gh = disjoint_union(g, h)
    for image in ("direct", "omega"):
        assert kromatic(gh, N, image) == \
            kromatic(g, N, image) * kromatic(h, N, image)
        # every basis is multiplicative and SymPoly's product is the union
        # of partitions, so the coefficients, read as a SymPoly, multiply
        for basis in ("p", "pbar", "pbarprime"):
            def coeffs(x):
                return SymPoly(N, extract(kromatic(x, N, image),
                                          basis).coeffs)
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
    assert kromatic(moved, N, "omega") == kromatic(gh, N, "omega")
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
    # vertex v to n + 1 - v and each color j to M + 1 - j keeps it one
    reversed_g = relabel(g, range(g.n, 0, -1))
    assert kromatic_q_vectors(reversed_g, 5, 4) == {
        vec[::-1]: c for vec, c in kromatic_q_vectors(g, 5, 4).items()}


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


@METAMORPHIC
@given(*PAIRS)
def test_a_join_composes_the_independence_multiset(g, h):
    # the join's multiset, composed from the two sides' multisets, gives
    # its series, and its whole polynomial gives the Lyndon heap exponents
    gh = join(g, h)
    composed = tuple((join_polynomial(a, b), s + t)
                     for a, s in independence_multiset(g)
                     for b, t in independence_multiset(h))
    assert kromatic_from_multiset(composed, 5) == kromatic(gh, 5)
    assert kromatic_from_multiset(composed, 5, image="omega") == \
        kromatic(gh, 5, "omega")
    whole = join_polynomial(independence_polynomial(g),
                            independence_polynomial(h))
    for rule in ("1.2", "1.3", "1.4", "1.5"):
        image, basis = RULES[rule]
        assert [exponent(gh, k, rule) for k in range(1, 6)] == \
            series_exponents(image_log(whole, 5, image), 5, basis), rule
