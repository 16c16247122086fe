"""The set-coloring generating function and its K-power-sum structure.

For a graph G on vertices 1..n, a proper set coloring assigns each vertex a
nonempty finite set of positive-integer colors so that adjacent vertices get
disjoint sets.  The generating function weights a coloring by the product of
x_i over all assigned colors (with multiplicity across vertices).  It equals
the alternating sum over vertex subsets W of prod_i I_W(x_i), where I_W is
the independence polynomial of the induced subgraph on W; its omega image
swaps I_W for H_W(t) = 1 / I_W(-t).  Each product over variables is
carried as its log derivative t f'/f (see image_log), on which omega is a
sign at every even power of t.

Everything here is exact and truncated to total degree N; only the
coloring enumeration proper_set_colorings takes a number M of colors.
"""
import itertools
from functools import cache
from math import comb
from types import MappingProxyType

from .graphs import (acyclic_orientations, independence_polynomial,
                     mask_vertices, popcount, source_components)
from .heaps import lyndon_count, lyndon_support_counts
from .numbers import binomial, family_sums, multiplicities
from .symfunc import (Expansion, generator_logs, product_over_variables,
                      series_log_derivative)


# Every coefficient rule reads the coefficients of one basis in F(G) or in
# its omega image: rule -> (image, basis).  Rules 1.x count them for F(G),
# rules 5.x give them for the q-refined series.
RULES = {
    "1.2": ("direct", "pbar"),
    "1.3": ("omega", "pbar"),
    "1.4": ("direct", "pbarprime"),
    "1.5": ("omega", "pbarprime"),
    "5.1": ("omega", "pbarprime"),
    "5.2": ("direct", "pbarprime"),
    "5.3": ("omega", "pbar"),
    "5.4": ("direct", "pbar"),
}

# claim letter -> the rule whose image, basis and exponents its product
# factorization uses
CLAIMS = {"a": "1.2", "b": "1.3", "c": "1.4", "d": "1.5"}


def rule_sign(rule, lam):
    """The sign that turns the coefficient of basis_lam into the rule's
    count: (-1)^(|lam| - len(lam)) for the direct image, else 1."""
    direct = RULES[rule][0] == "direct"
    return -1 if direct and (sum(lam) - len(lam)) % 2 else 1


def image_log(poly, N, image):
    """t f'/f mod t^(N+1) for the series f with prod_i f(x_i) the image of
    the independence polynomial poly of an induced subgraph: f = poly
    (direct) or 1 / poly(-t) (omega).  With h = poly(-t),
    t (1/h)'/(1/h) = -t h'/h, and t h'/h is t poly'/poly evaluated at -t,
    so omega puts the sign (-1)^(k+1) on entry k."""
    d = series_log_derivative(poly, N)
    if image == "direct":
        return d
    return tuple(-c if k % 2 == 0 else c for k, c in enumerate(d))


def signed_subset_sum(pairs, n):
    """{key: sum of (-1)^(n - |W|)} over the (key, |W|) pairs of the vertex
    subsets W of an n-vertex graph, without the keys whose signs cancel."""
    acc = {}
    for k, size in pairs:
        acc[k] = acc.get(k, 0) + (-1 if (n - size) % 2 else 1)
    return {k: w for k, w in acc.items() if w}


def series_exponents(d, N, basis):
    """[e(1), ..., e(N)] with f = prod_k g_k^e(k) mod t^(N+1), from
    d = t f'/f and the basis' generator series g_k: it solves
    d = sum_k e(k) t g_k'/g_k, which is triangular as t g_k'/g_k starts
    with k t^k.  A division by k that is not exact raises ValueError."""
    d, e = list(d), []
    for k, log in generator_logs(basis, N).items():
        ek, rest = divmod(d[k], k)
        if rest:
            raise ValueError(f"t^{k} coefficient {d[k]} of t f'/f is not a "
                             f"multiple of {k}")
        for i, c in enumerate(log):
            d[i] -= ek * c
        e.append(ek)
    return e


def kromatic(g, N, image="direct", max_part=None):
    """The (direct or omega) set-coloring generating function, truncated
    to degree N and projected by max_part as in kromatic_from_multiset,
    from the independence multiset of g."""
    return kromatic_from_multiset(independence_multiset(g), N, image, max_part)


# ---------------------------------------------------------------------------
# brute-force enumeration

def proper_set_colorings(g, budget, M):
    """Yield proper set colorings as tuples of color bitmasks (bit c-1 for
    color c), one per vertex, with total size <= budget.

    Oracle: callers reach it through quasisym.kromatic_q_vectors, whose
    value at q = 1 is the brute-force series of the multiset-roundtrip-*
    checks and which is itself both sides of the clans-vs-brute-* checks."""
    nonempty = sorted(range(1, 1 << M), key=popcount)

    def rec(v, remaining, acc):
        if v > g.n:
            yield tuple(acc)
            return
        forbidden = 0
        for u in mask_vertices(g.adj[v]):
            if u < v:
                forbidden |= acc[u - 1]
        room = remaining - (g.n - v)  # later vertices need one color each
        for m in nonempty:
            sz = popcount(m)
            if sz > room:
                break
            if m & forbidden:
                continue
            acc.append(m)
            yield from rec(v + 1, remaining - sz, acc)
            acc.pop()

    if g.n == 0:
        yield ()
        return
    yield from rec(1, budget, [])


# ---------------------------------------------------------------------------
# classical power-sum oracles

def chromatic_p_expansion_oracles(g):
    """Two independent power-sum expansions of the chromatic symmetric
    function: the signed edge-subset sum, and the acyclic-orientation count
    by source-component sizes.  Returns (edge_expansion, orientation_expansion),
    both over basis 'p'.  Both read component sizes from
    graphs.source_components: an edge subset's components are the floods
    of its edges taken both ways."""
    def sizes(oriented):
        return tuple(sorted(map(len, source_components(g, oriented)),
                            reverse=True))

    edge_coeffs = {}
    for r in range(len(g.edges) + 1):
        for sub in itertools.combinations(g.edges, r):
            lam = sizes(sub + tuple((v, u) for u, v in sub))
            edge_coeffs[lam] = edge_coeffs.get(lam, 0) + (-1) ** r
    edge_coeffs = {l: v for l, v in edge_coeffs.items() if v}

    ao_coeffs = {}
    for orient in acyclic_orientations(g):
        lam = sizes(orient)
        sign = -1 if (g.n - len(lam)) % 2 else 1
        ao_coeffs[lam] = ao_coeffs.get(lam, 0) + sign
    ao_coeffs = {l: v for l, v in ao_coeffs.items() if v}

    return (Expansion("p", g.n, edge_coeffs),
            Expansion("p", g.n, ao_coeffs))


# ---------------------------------------------------------------------------
# exponent families from Lyndon heap counts

def exponent(g, k, rule, support=None):
    """The exponent e(k) of 1 + basis_k in the factorization of rule 1.2,
    1.3, 1.4 or 1.5: rule_sign(rule, (k,)) times the Lyndon heaps (inside
    the support) of the sizes _menu_sizes allows.  With L(s) the Lyndon
    heaps of size s, that is
      1.2: L(k) for odd k, else -(L(k) + L(k/2) + ...) over the even sizes
           k / 2^j;
      1.3: the sum of L(k / 2^j) over all j with 2^j | k;
      1.4: L(k) for odd k, -L(k) for 4 | k, else -(L(k) + L(k/2));
      1.5: L(k)."""
    pool = sum(lyndon_count(g, s, support) for s in _menu_sizes(k, rule))
    return rule_sign(rule, (k,)) * pool


def verify_factorization(g, variant, N):
    """Check prod_i F(x_i) = prod_k (1 + basis_k)^(e(k)) at truncation N,
    F the image series of g and basis and e those of the claim's rule: as
    1 + basis_k = prod_i g_k(x_i), the exponents series_exponents solves
    from F must be the heap counts.  Returns True; raises AssertionError
    at the first k where they differ, with both values."""
    image, basis = RULES[CLAIMS[variant]]
    solved = series_exponents(
        image_log(independence_polynomial(g), N, image), N, basis)
    for k, e in enumerate(solved, 1):
        counted = exponent(g, k, CLAIMS[variant])
        assert e == counted, (
            f"factorization variant {variant!r} fails on {g!r} at N={N}: "
            f"at t^{k}, the series gives e({k}) = {e} but the Lyndon heap "
            f"count gives {counted}")
    return True


# ---------------------------------------------------------------------------
# coefficient rules ("which" tags follow the build contract)

def _menu_sizes(k, which):
    """Allowed Lyndon-heap sizes for a part of value k.

    Heaps may repeat exactly when rule_sign(which, (k,)) < 0: the factor
    (1 + basis_k)^e of the rule's factorization then has e = -m with m the
    menu size, and the coefficient binomial(-m, i) = (-1)^i C(m + i - 1, i)
    of x^i in (1 + x)^(-m) counts, up to sign, the multisets of i heaps,
    where binomial(m, i) for e = m counts the sets."""
    if which == "1.2":
        sizes = [k]  # then its halvings while they stay even
        while sizes[-1] % 4 == 0:
            sizes.append(sizes[-1] // 2)
        return sizes
    if which == "1.3":
        sizes = [k]
        while sizes[-1] % 2 == 0:
            sizes.append(sizes[-1] // 2)
        return sizes
    if which == "1.4":
        return [k, k // 2] if k % 4 == 2 else [k]
    if which == "1.5":
        return [k]
    raise ValueError(f"unknown coefficient rule {which!r}")


@cache
def pick_table(g, k, which, i):
    """{union mask: ways to pick i heaps of the sizes _menu_sizes allows
    for the part k (with repetition exactly where rule_sign(which, (k,))
    < 0)}, cached per (graph, k, which, i), so read-only.  A dynamic
    program over union masks: picks[j] = {union: ways to choose j heaps},
    grown by one support group of c heaps at a time, t of them in
    abs(binomial(sign * c, t)) ways, as in _menu_sizes."""
    sign = rule_sign(which, (k,))
    picks = [{0: 1}] + [{} for _ in range(i)]
    for s in _menu_sizes(k, which):
        for m, c in lyndon_support_counts(g, s).items():
            for j in range(i, 0, -1):  # picks[j - t] not yet grown
                dst = picks[j]
                for t in range(1, j + 1):
                    w = abs(binomial(sign * c, t))
                    for u, x in picks[j - t].items():
                        dst[u | m] = dst.get(u | m, 0) + w * x
    return MappingProxyType(picks[i])


def theorem_coefficient(g, lam, which):
    """The number of ways to pick, for each part value k of lam with
    multiplicity i, i Lyndon heaps of the sizes _menu_sizes allows (with
    repetition exactly where rule_sign(which, (k,)) < 0) that jointly cover
    every vertex: rule_sign(which, lam) times the coefficient of basis_lam
    in the image of the set-coloring function, both named by RULES[which].

    Only unions of supports matter, so the cached pick_table of each
    distinct part is OR-convolved into the running {union: ways}."""
    ways = {0: 1}
    for k, i in multiplicities(lam).items():
        new = {}
        for u, x in ways.items():
            for v, y in pick_table(g, k, which, i).items():
                new[u | v] = new.get(u | v, 0) + x * y
        ways = new
    return ways.get(g.full_mask, 0)


def _binomial_sum(family, u):
    """sum of w * prod_k C(v_k, u_k) over a signed family {v: w}, for the
    positive multiplicities u of the distinct parts of one partition."""
    total = 0
    for v, w in family.items():
        for v_k, u_k in zip(v, u):
            w *= binomial(v_k, u_k)
            if not w:
                break
        total += w
    return total


def theorem_coefficient_subsets(g, lam, which):
    """Same count as theorem_coefficient, by inclusion-exclusion over vertex
    subsets W: rule_sign(which, lam) times the sum of (-1)^(n - |W|)
    prod_k C(e_W(k), m_k) over the distinct parts k of lam, with m_k their
    multiplicities and e_W the rule's exponents inside W.  Where e_W(k) < 0,
    C(e_W(k), m_k) counts multisets of heaps up to the sign (-1)^m_k, and
    those signs multiply to rule_sign(which, lam).  The sum runs over the
    cached signed_exponent_family of the distinct parts of lam."""
    mult = multiplicities(lam)
    family = signed_exponent_family(g, which, tuple(mult))
    return rule_sign(which, lam) * _binomial_sum(family, tuple(mult.values()))


# ---------------------------------------------------------------------------
# independence multiset

def independence_multiset(g):
    """The multiset of induced-subgraph independence polynomials, as the
    sorted tuple of (polynomial, |W|) over the vertex subsets W of g: the
    sizes are enough to rebuild the alternating sums."""
    return tuple(sorted((independence_polynomial(g, mask), popcount(mask))
                        for mask in range(g.full_mask + 1)))


def kromatic_from_multiset(ms, N, image="direct", max_part=None):
    """The (direct or omega) set-coloring generating function from an
    independence multiset alone: the alternating sum over its entries of
    prod_i f(x_i), where f is the entry's independence polynomial I (direct)
    or 1 / I(-t) (omega), carried as its image_log.  Equal polynomials have
    their signs summed first: many subsets share one.  With max_part,
    p_k = 0 for every k > max_part: the projection that symfunc.extract
    proves exact at the partitions with parts <= max_part."""
    family = signed_subset_sum(ms, max(size for _, size in ms))
    return product_over_variables(
        [(image_log(poly, N, image), w) for poly, w in family.items()], N,
        max_part)


def kromatic_expansion(ms, N, image, basis):
    """extract(kromatic_from_multiset(ms, N, image), basis) for pbar or
    pbarprime, with no basis element built.  Each polynomial's image series
    is prod_k g_k^e(k) mod t^(N+1), with e solved by series_exponents from
    its image_log, so its product over variables is
    prod_k (1 + basis_k)^e(k), whose basis_lam coefficient is
    prod_k C(e(k), m_k(lam)); the signed sums over the polynomials come
    from one family_sums walk."""
    family = signed_subset_sum(ms, max(size for _, size in ms))
    return Expansion(basis, N, family_sums((
        ((0, *series_exponents(image_log(poly, N, image), N, basis)), w)
        for poly, w in family.items()), N, binomial))


# ---------------------------------------------------------------------------
# recovering the signed exponent family from coefficients

def recover_signed_exponent_multiset(expansion, caps):
    """Invert a pbar expansion into the signed family {vector: weight} with
    coefficient(lam(u)) = sum_v weight(v) * prod_k C(v_k, u_k), by
    peel_signed_family on the vectors of part multiplicities.

    caps bounds the entries of the vectors, one per size 1..len(caps); the
    true family must lie inside the box for the inversion to be exact.  The
    box reads the coefficients at partitions with parts <= len(caps) and
    degree <= sum_k k caps[k - 1], so the expansion must reach both.

    The coefficients are read once: a partition is nonincreasing, so its
    first part says whether the box reads it, and one pass over its parts
    counts them into the vector u.  Besides the refusals below, the peel
    refuses a negative cap."""
    if expansion.basis != "pbar":
        raise ValueError("recovery needs a pbar expansion")
    need = sum((k + 1) * c for k, c in enumerate(caps))
    if need > expansion.N:
        raise ValueError(
            f"truncation too small: recovering up to caps={caps} needs "
            f"degree {need} > N={expansion.N}")
    if expansion.max_part is not None and len(caps) > expansion.max_part:
        raise ValueError(
            f"parts too small: recovering up to caps={caps} needs parts "
            f"up to {len(caps)} > max_part={expansion.max_part}")
    coeffs = {}
    for lam, c in expansion.coeffs.items():
        if not lam or lam[0] <= len(caps):
            u = [0] * len(caps)
            for p in lam:
                u[p - 1] += 1
            coeffs[tuple(u)] = c
    return peel_signed_family(coeffs, caps)


def peel_signed_family(coeffs, caps):
    """The signed family {v: weight} inside the box 0 <= v <= caps with
    coeffs[u] = sum_v weight(v) * prod_k C(v_k, u_k) at every u of the box,
    from {multiplicity vector: coefficient} (an absent u reads 0, a u
    outside the box is never read).  A negative cap raises ValueError.

    A vector's row, prod_k C(v_k, u_k), is nonzero only on its down-set
    u <= v, where it is 1 at u = v.  The box is walked in reverse
    lexicographic order, the product of its descending ranges: if u < v
    componentwise, then at the first entry where they differ u is smaller,
    so v comes first.  This order is thus a linear extension of the
    componentwise order from the top, and no sort is needed: the residual
    at u is final when the walk reaches it.  A nonzero residual is u's
    weight, and u's row times it, the product of u's per-part rows of
    comb, is pushed off the down-set."""
    if any(c < 0 for c in caps):
        raise ValueError(f"negative cap in caps={caps}")
    residual, support = dict(coeffs), {}
    for u in itertools.product(*(range(c, -1, -1) for c in caps)):
        if w := residual.get(u):
            support[u] = w
            row = {(): w}
            for u_k in u:
                part = [comb(u_k, x_k) for x_k in range(u_k + 1)]
                row = {x + (x_k,): c * b for x, c in row.items()
                       for x_k, b in enumerate(part)}
            for x, c in row.items():
                residual[x] = residual.get(x, 0) - c
    return support


@cache
def exponent_column(g, k, rule):
    """(e_W(k) for every vertex subset W, by mask): the rule's exponent
    inside each subset, cached per (graph, k, rule) as a read-only tuple."""
    return tuple(exponent(g, k, rule, s) for s in range(g.full_mask + 1))


@cache
def signed_exponent_family(g, rule, parts):
    """The ground-truth signed family: for each vertex subset W, the vector
    of the rule's exponents (e_W(k) for k in parts) weighted by
    (-1)^(n - |W|), aggregated from the parts' exponent_columns.  Cached
    per (graph, rule, parts), so the family is read-only."""
    # sizes lead each row, so that with no parts every subset still counts
    rows = zip(map(popcount, range(g.full_mask + 1)),
               *(exponent_column(g, k, rule) for k in parts))
    return MappingProxyType(signed_subset_sum(
        ((row[1:], row[0]) for row in rows), g.n))
