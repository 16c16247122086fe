"""q-refined set-coloring series.

The q-weight of a proper set coloring counts ascents: quadruples
(u, v, i, j) with {u,v} an edge, u < v in the vertex order, i a color on u,
j a color on v, and i < j.  The resulting series is quasisymmetric in
general and symmetric when the graph comes from a unit interval model.

Routes implemented here:
  * one transfer matrix, walked over lists of nonincreasing sizes: over
    colors (the partition table behind kromatic_q, which takes only graphs
    whose own labels are those of a natural unit interval order) and over
    pyramid lists;
  * direct enumeration over set colorings (exponent-vector level), kept as
    the oracle, also of the set-coloring series itself at q = 1;
  * the clan-graph route: blow vertices into cliques, give each piece one
    color, divide out the q-factorial of the clique sizes;
  * pyramid expansions: coefficients of p_lambda / z_lambda are ascent
    generating functions over those lists, cached per (graph, degree);
  * closed coefficient formulas for the four K-power-sum expansions, each
    p_mu written over the basis by inverting log(1 + b_k), not extracted.
"""

from fractions import Fraction
from functools import cache
from itertools import product
from operator import add, mul

from .core import RULES, proper_set_colorings, rule_sign
from .graphs import (clan_graph, independent_sets, mask_vertices, popcount,
                     unit_interval_bounds)
from .heaps import pyramid_classes
from .numbers import QPoly, mobius, mu_hat, q_factorial, z_lambda
from .symfunc import SymPoly, sympoly_from_monomials


def _pairs_below(a, b):
    """Color pairs (i, j) with i in mask a, j in mask b, i < j."""
    return sum(popcount(a & ((1 << j - 1) - 1)) for j in mask_vertices(b))


def coloring_ascents(g, coloring):
    """Ascents of a set coloring given as per-vertex color bitmasks."""
    total = 0
    for u, v in g.edges:
        total += _pairs_below(coloring[u - 1], coloring[v - 1])
    return total


def _q_shift_add(acc, coeffs, shift, mult=1):
    """acc += mult * q^shift * coeffs, on coefficient lists."""
    if len(acc) < shift + len(coeffs):
        acc.extend([0] * (shift + len(coeffs) - len(acc)))
    for i, c in enumerate(coeffs, shift):
        acc[i] += mult * c


def kromatic_q_vectors(g, N, M):
    """Exponent-vector coefficients of the q-refined series: a dict mapping
    each length-M exponent vector to a polynomial in q, by enumerating every
    proper set coloring.

    Oracle: its cost grows with M, and no production route goes through it.
    The clans-vs-brute-* checks call it on both sides, directly and through
    kromatic_q_via_clans on each clan graph; at q = 1 it is the brute-force
    side of multiset-roundtrip-*.  The tests hold partition_coefficients
    (at the nonincreasing vectors) and kromatic_q to it."""
    acc = {}
    for coloring in proper_set_colorings(g, N, M):
        vec = tuple(sum(m >> c & 1 for m in coloring) for c in range(M))
        _q_shift_add(acc.setdefault(vec, []), (1,),
                     coloring_ascents(g, coloring))
    return {vec: QPoly(lst) for vec, lst in acc.items() if any(lst)}


def _covering_walk(g, steps, N):
    """{alpha: sum of q^ascents} over the lists of steps of nonincreasing
    sizes alpha, |alpha| <= N, that cover every vertex: the
    transfer-matrix method (Stanley, EC1 4.7).  steps maps a size
    to {(c, own): multiplicity}, c the step's pieces per vertex and own its
    own ascents.  After steps with C pieces per vertex, a step adds own +
    sum_u C[u] weight[u], weight[u] its pieces on the neighbours above u.
    The states C carry q-polynomials; alpha sums those with no zero.  A
    depth-first walk extends each prefix's states and drops a state once
    its uncovered vertices outnumber the size left to place."""
    ups = [mask_vertices(g.adj[u] >> u) for u in g.vertices()]  # v - u, v > u
    moves = {a: [(c, own, tuple(sum(c[i + d] for d in gaps)
                                for i, gaps in enumerate(ups)), mult)
                 for (c, own), mult in classes.items()]
             for a, classes in steps.items()}
    out = {}

    def walk(alpha, states, room):
        total = []
        for cnt, coeffs in states.items():
            if 0 not in cnt:
                _q_shift_add(total, coeffs, 0)
        if total:
            out[alpha] = QPoly(total)
        top = min(room, alpha[-1]) if alpha else room
        for a in range(1, top + 1):
            nxt = {}
            for cnt, coeffs in states.items():
                for inc, own, weight, mult in moves.get(a, ()):
                    new = tuple(map(add, cnt, inc))
                    if new.count(0) <= room - a:
                        _q_shift_add(nxt.setdefault(new, []), coeffs,
                                     own + sum(map(mul, cnt, weight)), mult)
            if nxt:
                walk(alpha + (a,), nxt, room - a)

    walk((), {(0,) * g.n: [1]}, N)
    return out


def partition_coefficients(g, N):
    """{lam: coefficient of x_1^lam_1 ... x_l^lam_l} in the q-refined
    series over the partitions with |lam| <= N, on any graph, by
    _covering_walk: color j is a step on an independent set S of size
    lam_j, and as every earlier color is smaller, it adds one per color of
    u for each neighbour v > u in S."""
    steps = {}
    for s in independent_sets(g)[1:]:
        steps.setdefault(popcount(s), {})[
            tuple(s >> u & 1 for u in range(g.n)), 0] = 1
    return _covering_walk(g, steps, N)


def kromatic_q(g, N):
    """The q-refined series as a SymPoly with QPoly coefficients, to degree
    N: sympoly_from_monomials of partition_coefficients.  The series is
    symmetric when g's own labels are those of a natural unit interval
    order, so its m_lam coefficient is its coefficient at x^lam, and the
    partitions alone carry it.  Raises ValueError (not symmetric) before
    any walk if unit_interval_bounds finds no such labels."""
    if unit_interval_bounds(g) is None:
        raise ValueError(f"not symmetric: {g!r} has no natural unit "
                         "interval labels")
    return sympoly_from_monomials(partition_coefficients(g, N), N)


def kromatic_q_via_clans(g, N, M):
    """Exponent-vector coefficients assembled from clique blowups: for each
    positive composition alpha (one part per vertex, total at most N), take
    the vector coefficients of the alpha-clan graph with a budget equal to
    its number of pieces, and divide them by the q-factorial of alpha.

    With that budget every piece gets exactly one color, so these set
    colorings are the ordinary proper colorings of the clan graph and their
    ascents are the edges that increase in color.  The division must be
    exact; divexact raises otherwise."""
    acc = {}
    # the other g.n - 1 parts are at least 1, so no part exceeds N - g.n + 1
    for alpha in product(range(1, N - g.n + 2), repeat=g.n):
        if sum(alpha) > N:
            continue
        cg = clan_graph(g, alpha)
        fac = q_factorial(alpha)
        for vec, poly in kromatic_q_vectors(cg, cg.n, M).items():
            acc[vec] = acc.get(vec, QPoly()) + poly.divexact(fac)
    return {vec: p for vec, p in acc.items() if p}


# ---------------------------------------------------------------------------
# pyramid expansions

@cache
def pyramid_p_expansion_q(g, N):
    """Sum over partitions lam, |lam| <= N, of A_lam(q) p_lam / z_lam:
    A_lam(q) sums q^ascents over the lists of pyramids of sizes lam that
    cover every vertex, by _covering_walk over pyramid_classes (a list's
    ascents are its pyramids' own plus each adjacent a, b with a in an
    earlier pyramid and vertex(a) < vertex(b)).  For unit-interval graphs
    this equals omega of kromatic_q."""
    table = _covering_walk(g, {a: pyramid_classes(g, a)
                               for a in range(1, N + 1)}, N)
    return SymPoly(N, {lam: poly * Fraction(1, z_lambda(lam))
                       for lam, poly in table.items()})


# ---------------------------------------------------------------------------
# closed coefficient formulas

RULES_Q = tuple(rule for rule in RULES if rule.startswith("5."))


@cache
def _p_over_basis(basis, mu, N):
    """p_mu over the basis ('pbar' or 'pbarprime'), to degree N, as a SymPoly
    whose symbol p_lam stands for the basis element b_lam: SymPoly's product
    is the union of partitions, which is the product b_lam b_nu = b_(lam
    union nu) of a multiplicative basis.

    Each basis has log(1 + b_k) = sum_r c_r p_(kr), with c_r = 1/r for
    pbarprime and (-1)^(r+1)/r for pbar, and f (mobius, or mu_hat for pbar)
    is the Dirichlet inverse that makes sum_(dr=m) f(d) c_r r = [m = 1].  So
    p_a = sum_d f(d)/d log(1 + b_(ad))
        = sum_(d,n) f(d) (-1)^(n+1)/(d n) b_(ad)^n,
    and p_mu is the product of these series over the parts a of mu."""
    if not mu:
        return SymPoly(N, {(): 1})
    if len(mu) > 1:
        return (_p_over_basis(basis, mu[:1], N)
                * _p_over_basis(basis, mu[1:], N))
    a = mu[0]
    f = mobius if basis == "pbarprime" else mu_hat
    return SymPoly(N, {(a * d,) * n: Fraction(f(d) * (-1) ** (n + 1), d * n)
                       for d in range(1, N // a + 1)
                       for n in range(1, N // (a * d) + 1)})


def power_sum_coefficient_q(g, lam, rule):
    """Closed-formula coefficient of one K-power-sum basis element in the
    q-refined series or its omega image, as a polynomial in q (entries may
    be fractions).

    The rule's entry in core.RULES names the image and the basis.  The
    omega image is pyramid_p_expansion_q, sum_mu A_mu(q) p_mu / z_mu, and
    rule_sign carries it to the series itself; p_mu is written over the
    basis by _p_over_basis.
    """
    if rule not in RULES_Q:
        raise ValueError(f"unknown rule {rule!r}")
    basis, N = RULES[rule][1], sum(lam)
    total = QPoly()
    for mu, a in pyramid_p_expansion_q(g, N).terms().items():
        c = _p_over_basis(basis, mu, N).coeff(lam)
        if c:
            total = total + a * (rule_sign(rule, mu) * c)
    return total


def specialize_q(F, value):
    """Evaluate every QPoly coefficient of a SymPoly at a fixed q."""
    return SymPoly(F.N, {lam: c(value) if isinstance(c, QPoly) else c
                         for lam, c in F.terms().items()})
