"""Shared randomized-property drivers, reused by the acceptance suite, the
random-graph and unit-interval-model strategies of the differential tests,
the hook that empties the package's caches, the oracles that only tests
call, and the Fraction oracle of the power-sum arithmetic."""
import itertools
import random
import sys
from fractions import Fraction
from functools import cache
from math import comb, prod

from hypothesis import strategies as st

from kromatic import bundled_graph
from kromatic.core import _menu_sizes, rule_sign
from kromatic.graphs import (Graph, independence_polynomial, mask_of,
                             mask_vertices, popcount, unit_interval_bounds,
                             unit_interval_graph)
from kromatic.heaps import (_deps, _extends_canonically, ascent_count,
                            canonical_word, enumerate_lyndon,
                            enumerate_pyramids, heap_from_word)
from kromatic.numbers import (QPoly, divisors, multiplicities, norm_scalar,
                              partition_sort_key, partitions_of,
                              partitions_up_to)
from kromatic.quasisym import kromatic_q_vectors
from kromatic.symfunc import (SymPoly, basis_element, generator_series,
                              series_truncate, sympoly_from_vector_counts)


@st.composite
def small_graphs(draw, max_n=5):
    """Random graphs on at most max_n vertices: the empty graph, isolated
    vertices and disconnected graphs included."""
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


@st.composite
def unit_interval_models(draw, max_n=5):
    """Random natural unit interval graphs on at most max_n vertices, drawn
    as their bounds."""
    n = draw(st.integers(0, max_n))
    h = []
    for i in range(1, n + 1):
        h.append(draw(st.integers(max([i] + h[-1:]), n)))
    g = unit_interval_graph(n, h)
    assert unit_interval_bounds(g) == tuple(h)
    return g


def random_word_and_swaps(g, rng, max_len=8, swaps=30):
    """A random word plus an equivalent word reached by legal swaps."""
    word = [rng.randint(1, g.n) for _ in range(rng.randint(0, max_len))]
    other = list(word)
    for _ in range(swaps):
        if len(other) < 2:
            break
        i = rng.randrange(len(other) - 1)
        a, b = other[i], other[i + 1]
        if a != b and not g.adjacent(a, b):
            other[i], other[i + 1] = b, a
    return tuple(word), tuple(other)


def check_canonical_invariance(trials=200, seed=20260822):
    """Canonical form is constant across each commutation class."""
    rng = random.Random(seed)
    graphs = [bundled_graph(n) for n in ("k2", "k3", "p3", "p4", "c4", "paw")]
    for _ in range(trials):
        g = rng.choice(graphs)
        word, other = random_word_and_swaps(g, rng)
        cw = canonical_word(g, word)
        assert canonical_word(g, other) == cw
        # canonicalization is idempotent and produces a member of the class
        assert canonical_word(g, cw) == cw
        assert sorted(cw) == sorted(word)
        assert heap_from_word(g, word) == heap_from_word(g, other)
    return trials


def clear_caches():
    """Empty every module-level functools cache of the loaded kromatic
    modules and of the oracles here, so that the next call recomputes from
    scratch."""
    namespaces = [vars(m) for name, m in list(sys.modules.items())
                  if name.partition(".")[0] == "kromatic"]
    for namespace in namespaces + [globals()]:
        for f in namespace.values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()


# ---------------------------------------------------------------------------
# oracles only tests call

def brute_force_chromatic(g):
    """The classical proper-coloring generating function with n colors
    (homogeneous of degree n)."""
    counts = {}
    for assignment in itertools.product(range(g.n), repeat=g.n):
        ok = all(assignment[u - 1] != assignment[v - 1] for u, v in g.edges)
        if not ok:
            continue
        vec = [0] * g.n
        for c in assignment:
            vec[c] += 1
        vec = tuple(vec)
        counts[vec] = counts.get(vec, 0) + 1
    return sympoly_from_vector_counts(counts, g.n)


def brute_force_kromatic(g, N):
    """The set-coloring series from every proper set coloring with N
    colors: the brute-force q-refined vectors at q = 1, as the
    multiset-roundtrip-* checks build it."""
    return sympoly_from_vector_counts(
        {v: p(1) for v, p in kromatic_q_vectors(g, N, N).items()}, N)


def oracle_family_sums(family, N, factor):
    """numbers.family_sums one partition at a time, with no shared
    prefix, merge or pruning: for each lam with |lam| <= N, the sum of
    w * prod_k factor(v[k], m_k(lam)) over the (v, w) pairs, with the zero
    sums left out."""
    out = {}
    for lam in partitions_up_to(N):
        total = 0
        for v, w in family:
            for k in range(1, N + 1):
                w *= factor(v[k], lam.count(k))
            total += w
        if total:
            out[lam] = total
    return out


def partition_of_multiplicities(u):
    """The partition with u[k - 1] parts equal to k: the inverse of
    multiplicities, read as a vector over the part sizes 1..len(u)."""
    return tuple(k for k in range(len(u), 0, -1) for _ in range(u[k - 1]))


def binomial_sum_coefficients(pairs, caps):
    """{partition_of_multiplicities(u): sum of w * prod_k C(v_k, u_k)} over
    the (v, w) pairs, one vector u of the cap box at a time, with the zero
    sums left out: the forward map that
    core.recover_signed_exponent_multiset inverts."""
    out = {}
    for u in itertools.product(*(range(c + 1) for c in caps)):
        total = sum(w * prod(map(comb, v, u)) for v, w in pairs)
        if total:
            out[partition_of_multiplicities(u)] = total
    return out


def assemble(expansion, N):
    """Rebuild the SymPoly from an Expansion (inverse of extract): the
    stored values of every c b_lam, summed in one dict."""
    out = {}
    for lam, c in expansion.coeffs.items():
        for mu, v in basis_element(expansion.basis, lam, N).scaled.items():
            out[mu] = out.get(mu, 0) + c * v
    return SymPoly._of(N, {mu: norm_scalar(v) for mu, v in out.items() if v})


def twice(F):
    """2 F, from its stored values: a wrong value that a mutant test can
    hand to a check in place of F."""
    return SymPoly._of(F.N, {lam: 2 * v for lam, v in F.scaled.items()})


def compose_all(g, words):
    """Stack the heaps with these words in order, each above the ones
    before it."""
    return canonical_word(g, sum(words, ()))


def sources(g, w):
    """Piece indices with no dependent piece before them.

    Oracle: kromatic.heaps.is_pyramid reads the upward closure of the first
    piece instead, and the rotation tests read the sources of each step."""
    dep = _deps(g)
    below = 0  # vertices that do not commute with some earlier piece
    out = []
    for i, v in enumerate(w):
        if not below >> (v - 1) & 1:
            out.append(i)
        below |= dep[v]
    return out


def is_aperiodic(g, w):
    """True iff w is not a d-fold power of a smaller heap for any d >= 2."""
    return not any(canonical_word(g, k * d) == w
                   for d in divisors(len(w))[1:]
                   for k in enumerate_heaps(g, len(w) // d))


def lyndon_factorize(w):
    """The unique factorization of the heap with canonical word w into
    Lyndon heaps with nonincreasing canonical words (Lalonde), by Duval's
    algorithm on w; no graph is needed.

    Oracle: no code of the package factors heaps; the tests check it
    against the rotation oracle is_lyndon and recomposition.

    Duval splits w into Lyndon words u1 >= ... >= uk (Chen-Fox-Lyndon).  A
    factor of a canonical word is canonical.  A canonical Lyndon word is a
    pyramid: a second source would commute with every earlier letter and so
    be smaller than the first, least, letter.  So each ui is the word of a
    Lyndon heap (see kromatic.heaps.enumerate_lyndon), and they stack to w."""
    n = len(w)
    out = []
    i = 0
    while i < n:
        j, k = i + 1, i
        while j < n and w[k] <= w[j]:
            k = i if w[k] < w[j] else k + 1
            j += 1
        while i <= k:
            out.append(w[i:i + j - k])
            i += j - k
    return out


def induced_subgraph(g, mask):
    """Induced subgraph on a vertex bitmask.

    Returns (subgraph, mapping) where mapping[old_vertex] = new_vertex and the
    new labels 1..k preserve the old vertex order.
    """
    verts = mask_vertices(mask)
    mapping = {v: i + 1 for i, v in enumerate(verts)}
    edges = [(mapping[u], mapping[v]) for u, v in g.edges
             if u in mapping and v in mapping]
    return Graph(len(verts), edges), mapping


def has_induced_c4_or_claw(g):
    """True if some 4 vertices induce a 4-cycle or a claw."""
    for quad in itertools.combinations(g.vertices(), 4):
        sub, _ = induced_subgraph(g, mask_of(quad))
        deg = sorted(popcount(sub.adj[v]) for v in sub.vertices())
        if len(sub.edges) == 4 and deg == [2, 2, 2, 2]:
            return True  # induced C4
        if len(sub.edges) == 3 and deg == [1, 1, 1, 3]:
            return True  # induced claw
    return False


@cache
def enumerate_heaps(g, n):
    """All heaps of size n on g, sorted by canonical word: every canonical
    word grown by kromatic.heaps._extends_canonically.

    Oracle: no code of the package enumerates every heap; the tests hold
    the pyramid and prenecklace growths to filters over it, and
    heap_count_identity_defect and is_aperiodic read it."""
    if n == 0:
        return ((),)
    dep = _deps(g)
    return tuple(w + (v,) for w in enumerate_heaps(g, n - 1)
                 for v in g.vertices() if _extends_canonically(dep, w, v))


def heap_count_identity_defect(g, max_n):
    """Coefficients of (sum_n #Heaps(n) t^n) * I_G(-t) - 1 up to degree
    max_n; all zero when the counting identity holds (Cartier-Foata,
    Viennot)."""
    ind = independence_polynomial(g)
    counts = [len(enumerate_heaps(g, n)) for n in range(max_n + 1)]
    out = []
    for n in range(max_n + 1):
        acc = 0
        for k, c in enumerate(ind):
            if k <= n:
                acc += counts[n - k] * c * (-1) ** k
        out.append(acc - (1 if n == 0 else 0))
    return out


def ascent_polynomial_by_lists(g, sizes):
    """Oracle for A_sizes(q), z_sizes times the coefficient of p_sizes in
    kromatic.quasisym.pyramid_p_expansion_q: sum q^ascents over every
    ordered list of pyramids with these sizes whose supports jointly cover
    every vertex, counted by ascent_count on the concatenation of the
    list's words.

    The package walks the lists as a transfer matrix over the pyramid
    classes instead: a pair of pieces of the concatenation lies in one
    pyramid, and is counted among that pyramid's own ascents, or in two,
    and then only the pieces per vertex of the earlier pyramids matter.
    This enumeration shares none of that and checks it."""
    counts = []
    lists = [[(w, mask_of(w)) for w in enumerate_pyramids(g, s)]
             for s in sizes]
    for combo in itertools.product(*lists):
        union = 0
        for _, m in combo:
            union |= m
        if union == g.full_mask:
            k = ascent_count(g, sum((w for w, _ in combo), ()))
            counts.extend([0] * (k + 1 - len(counts)))
            counts[k] += 1
    return QPoly(counts)


def theorem_coefficient_by_products(g, lam, which):
    """Oracle for core.theorem_coefficient: enumerate every product of heap
    selections, for each part value k with multiplicity i_k a choice of
    i_k Lyndon heaps from the allowed sizes (with or without repetition per
    the rule), and count those whose heaps jointly cover every vertex.  The
    menus list one support mask per Lyndon word, with none of the package's
    grouping by support."""
    per_value = []
    for k, i_k in sorted(multiplicities(lam).items()):
        menu = [mask_of(w) for s in _menu_sizes(k, which)
                for w in enumerate_lyndon(g, s)]
        chooser = itertools.combinations_with_replacement \
            if rule_sign(which, (k,)) < 0 else itertools.combinations
        per_value.append([[menu[idx] for idx in sel]
                          for sel in chooser(range(len(menu)), i_k)])
    total = 0
    for combo in itertools.product(*per_value):
        mask = 0
        for chosen in combo:
            for m in chosen:
                mask |= m
        total += mask == g.full_mask
    return total


# ---------------------------------------------------------------------------
# Fraction oracle of the power-sum arithmetic
#
# The algorithms of kromatic.symfunc on plain coefficients {partition:
# coefficient of p_partition} in Fraction arithmetic, with none of the
# |lambda|! scaling that SymPoly stores: the tests hold SymPoly.terms() and
# the extractions to these.

def series_neg_sub(f):
    """f(-t).  Oracle: with series_reciprocal it builds the omega image
    series 1 / I(-t), which kromatic.core carries only as its log
    derivative (core.image_log)."""
    return tuple(c if i % 2 == 0 else -c for i, c in enumerate(f))


def series_reciprocal(f, n):
    """1/f mod t^(n+1); constant term must be 1.  Oracle, as
    series_neg_sub."""
    f = series_truncate(f, n)
    if f[0] != 1:
        raise ValueError("series_reciprocal needs constant term 1")
    out = [1] + [0] * n
    for m in range(1, n + 1):
        acc = 0
        for k in range(1, m + 1):
            acc += f[k] * out[m - k]
        out[m] = -acc
    return tuple(out)


def series_log(f, n):
    """log f mod t^(n+1) over Fraction; constant term must be 1."""
    f = series_truncate(f, n)
    if f[0] != 1:
        raise ValueError("series_log needs constant term 1")
    out = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        acc = Fraction(m) * f[m]
        for k in range(1, m):
            acc -= k * out[k] * f[m - k]
        out[m] = acc / m
    return tuple(out)


def _add_term(out, lam, v):
    w = out.get(lam, 0) + v
    if w:
        out[lam] = w
    else:
        out.pop(lam, None)


def oracle_add(a, b):
    out = dict(a)
    for lam, v in b.items():
        _add_term(out, lam, v)
    return out


def oracle_scale(a, scalar):
    return {lam: scalar * v for lam, v in a.items()} if scalar else {}


def oracle_mul(a, b, N):
    """p_lam * p_mu = p_(lam union mu), dropping degrees above N."""
    out = {}
    for lam, x in a.items():
        for mu, y in b.items():
            if sum(lam) + sum(mu) <= N:
                _add_term(out, tuple(sorted(lam + mu, reverse=True)), x * y)
    return out


def oracle_omega(a):
    return {lam: -v if (sum(lam) - len(lam)) % 2 else v
            for lam, v in a.items()}


def oracle_product_over_variables(f, N):
    """exp(sum_k c_k p_k) for c = log f: the p_lambda coefficient is
    prod_i c_(lambda_i) / prod_k m_k(lambda)!."""
    c = series_log(f, N)
    parts = [k for k in range(N, 0, -1) if c[k]]
    out = {}

    def rec(i, lam, room, coeff):
        if i == len(parts):
            out[lam] = coeff
            return
        k = parts[i]
        m = 0
        while True:
            rec(i + 1, lam, room, coeff)
            if k > room:
                return
            m += 1
            lam, room, coeff = lam + (k,), room - k, coeff * c[k] / m

    rec(0, (), N, Fraction(1))
    return out


@cache
def _oracle_basis_element(basis, lam, N):
    if basis == "p":
        return {lam: 1} if sum(lam) <= N else {}
    if not lam:
        return {(): 1}
    if len(lam) == 1:
        return oracle_add(oracle_product_over_variables(
            generator_series(basis, lam[0], N), N), {(): -1})
    return oracle_mul(_oracle_basis_element(basis, lam[:1], N),
                      _oracle_basis_element(basis, lam[1:], N), N)


def oracle_extract(a, basis, N):
    """Peel degrees in ascending order: the degree-n residual is the
    degree-n coefficients."""
    residual = dict(a)
    coeffs = {}
    for n in range(N + 1):
        for lam in [l for l in residual if sum(l) == n]:
            c = residual[lam]
            coeffs[lam] = c
            for mu, m in _oracle_basis_element(basis, lam, N).items():
                _add_term(residual, mu, -(c * m))
    assert not residual
    return coeffs


@cache
def oracle_p_to_m(lam):
    """p_lam in the monomial basis as {mu: count}: the number of ways to put
    the parts of lam (told apart by position) into len(mu) boxes whose sums
    are the parts of mu.  Only coarsenings of lam occur."""

    @cache
    def fill(i, boxes):  # boxes: sorted remaining capacities
        if i == len(lam):
            return 1
        total = 0
        for b in set(boxes):
            if b >= lam[i]:
                rest = list(boxes)
                rest.remove(b)
                rest.append(b - lam[i])
                total += boxes.count(b) * fill(i + 1, tuple(sorted(rest)))
        return total

    out = {}
    for mu in partitions_of(sum(lam)):
        if len(mu) <= len(lam):
            count = fill(0, tuple(sorted(mu)))
            if count:
                out[mu] = count
    return out


def oracle_p_decompose_homogeneous(slice_coeffs, n):
    """{lam: coefficient of p_lam} of a homogeneous degree-n monomial-basis
    dict, peeling partitions longest first."""
    residual = dict(slice_coeffs)
    out = {}
    order = sorted(partitions_of(n),
                   key=lambda l: (-len(l), partition_sort_key(l)))
    for lam in order:
        v = residual.get(lam)
        if not v:
            continue
        row = oracle_p_to_m(lam)
        c = v * Fraction(1, row[lam])
        out[lam] = c
        for mu, m in row.items():
            _add_term(residual, mu, -(c * m))
    assert not residual
    return out
