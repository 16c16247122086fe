"""Truncated symmetric functions in the power-sum basis, exactly.

A SymPoly holds the coefficients of the power sums p_lambda, truncated to
total degree <= N, each stored times |lambda|! (the exponential
normalization).  The p_lambda coefficient of an integral symmetric function
has a denominator dividing z_lambda, which divides |lambda|!, so for F(G),
its omega image, every basis element and the q-refined series the stored
values are ints (or QPolys over the ints) and all the arithmetic below is
integer arithmetic; a Fraction then appears only where a coefficient that
is really fractional is read out (coeff, terms, repr).  Values that are not
integral (a Fraction, a QPoly with Fraction coefficients) take the same
code through Python's numeric tower.

A SymPoly is built once, from a signed family (product_over_variables), a
peel, monomials or a table of coefficients, and then only multiplied and
read: there is no addition, negation or scalar product, and a sum is
accumulated as stored values before its SymPoly is made.  The product is
the union of partitions, with the stored values multiplied
by C(|lambda| + |mu|, |lambda|); omega is a sign on each p_lambda; and a
product over variables prod_i f(x_i) is exp(sum_k c_k p_k) with
sum_k c_k t^k = log f(t), so no number of variables enters.  Such a
product travels as the log derivative t f'/f = sum_k k c_k t^k, an
integer vector wherever f is integral.  Monomials appear only in
sympoly_from_monomials, which converts {lambda: coefficient of m_lambda}
(the partition table of the q-refined series), and in
sympoly_from_vector_counts, which reads exponent-vector coefficients by
complete orbits (every rearrangement of a key must carry its coefficient),
takes no variable count and ends in sympoly_from_monomials: at q = 1, the
brute-force set-coloring counts of quasisym.kromatic_q_vectors.

Both changes of basis are one triangular peel, _peel.  Where the values
carry q (QPolys), the peel runs on ints instead: _peel_q packs each value
at q = 2^B (Kronecker substitution), runs the same _peel on the packed ints
and decodes each output once, so a q-series is never added or multiplied
as a QPoly.  sympoly_from_monomials and extract give it the scaling D that
makes every division exact, and a majorant pass of the peel gives B.

USeries values are plain tuples of coefficients, index = degree.
"""
from functools import cache
from math import comb, factorial, lcm

from .numbers import (QPoly, family_sums, norm_scalar, partition_sort_key,
                      partitions_of, partitions_up_to, scalar_div, z_lambda)


# ---------------------------------------------------------------------------
# univariate truncated series

def series_truncate(f, n):
    return tuple(f[: n + 1]) + (0,) * max(0, n + 1 - len(f))


def series_log_derivative(f, n):
    """t f'/f mod t^(n+1), whose t^k coefficient is k [t^k] log f; it stays
    in the coefficient ring of f.  The constant term of f must be 1."""
    f = series_truncate(f, n)
    if f[0] != 1:
        raise ValueError("series_log_derivative needs constant term 1")
    out = [0] * (n + 1)
    for m in range(1, n + 1):
        acc = m * f[m]
        for k in range(1, m):
            acc -= out[k] * f[m - k]
        out[m] = acc
    return tuple(out)


# ---------------------------------------------------------------------------
# SymPoly

def _add_term(out, lam, v):
    w = out.get(lam, 0) + v
    if w:
        out[lam] = w
    else:
        out.pop(lam, None)


class SymPoly:
    """Symmetric function truncated to degree <= N.  `scaled` maps each
    partition lam to |lam|! times the coefficient of p_lam; the constructor,
    coeff and terms take and give the coefficients themselves.  It is
    built once and never added to: the one operation is the product with
    another SymPoly, refused between different N, and two SymPolys are
    equal only when N is equal too."""

    __slots__ = ("N", "scaled")

    def __init__(self, N, coeffs=None):
        scaled = {}
        for lam, v in (coeffs or {}).items():
            lam = tuple(lam)
            if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or \
                    any(p <= 0 for p in lam):
                raise ValueError(f"not a partition: {lam}")
            if sum(lam) > N:
                raise ValueError(f"partition {lam} exceeds N={N}")
            if v:
                scaled[lam] = norm_scalar(v * factorial(sum(lam)))
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "scaled", scaled)

    @classmethod
    def _of(cls, N, scaled):
        """Wrap a dict of nonzero stored values already known to be valid."""
        self = object.__new__(cls)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "scaled", scaled)
        return self

    def __setattr__(self, *a):
        raise AttributeError("SymPoly is immutable; build new instances")

    def coeff(self, lam):
        lam = tuple(lam)
        return scalar_div(self.scaled.get(lam, 0), factorial(sum(lam)))

    def terms(self):
        """{partition: coefficient of p_partition} over the nonzero terms."""
        return {lam: scalar_div(v, factorial(sum(lam)))
                for lam, v in self.scaled.items()}

    def __bool__(self):
        return bool(self.scaled)

    def __eq__(self, other):
        if isinstance(other, SymPoly):
            return self.N == other.N and self.scaled == other.scaled
        if other == 0:
            return not self.scaled
        return NotImplemented

    def __mul__(self, other):
        """p_lam * p_mu = p_(lam union mu), dropping degrees above N; the
        stored values multiply with C(|lam| + |mu|, |lam|), taken only at
        the degrees |mu| where other has terms."""
        if not isinstance(other, SymPoly):
            return NotImplemented
        N = self.N
        if N != other.N:
            raise ValueError(
                f"SymPoly truncations differ (N={N} and N={other.N})")
        right = {}
        for mu, b in other.scaled.items():
            right.setdefault(sum(mu), []).append((mu, b))
        degrees = sorted(right.items())
        out = {}
        for lam, a in self.scaled.items():
            d = sum(lam)
            for e, terms in degrees:
                if d + e > N:
                    break
                ca = comb(d + e, d) * a
                for mu, b in terms:
                    nu = tuple(sorted(lam + mu, reverse=True))
                    out[nu] = out.get(nu, 0) + ca * b
        return SymPoly._of(N, {nu: v for nu, v in out.items() if v})

    def __repr__(self):
        items = sorted(self.terms().items(),
                       key=lambda kv: partition_sort_key(kv[0]))
        body = " + ".join(f"{v!r}*p{list(l)}" for l, v in items[:12])
        more = "" if len(items) <= 12 else f" ... ({len(items)} terms)"
        return f"SymPoly(N={self.N}: {body}{more})"


def product_over_variables(logs, N, max_part=None):
    """sum of w prod_i f(x_i) over the (d, w) pairs of a signed family,
    with d = t f'/f mod t^(N+1) for a USeries f with constant term 1,
    truncated to degree N, and with p_k = 0 for every k > max_part if one
    is given.  With c = log f, prod_i f(x_i) is exp(sum_k c_k p_k), whose
    p_lambda coefficient is prod_i c_(lambda_i) / prod_k m_k(lambda)!.
    With d_k = k c_k, that is prod_i d_(lambda_i) / z_lambda, so the
    stored value is (|lambda|! / z_lambda) sum_f w prod_i d_(lambda_i),
    where |lambda|! / z_lambda counts the permutations of cycle type
    lambda; the sums come from one family_sums walk.  The projection
    zeroes the entries of d above max_part: as pow(0, m) = 0, the walk
    ends every branch that takes a larger part at once."""
    a = N if max_part is None else max_part
    if a < 0:
        raise ValueError(f"max_part must be nonnegative, got {max_part}")
    logs = [(d[:a + 1] + (0,) * (N - a), w) for d, w in logs]
    return SymPoly._of(N, {
        lam: norm_scalar(factorial(sum(lam)) // z_lambda(lam) * s)
        for lam, s in family_sums(logs, N, pow).items()})


# ---------------------------------------------------------------------------
# the one triangular peel, and the one conversion from monomials

def _peel(residual, order, row):
    """Solve residual = sum_key c_key row(key) and return {key: c_key} over
    the nonzero c_key, emptying residual.  Walks the keys in `order`; where
    the residual holds a nonzero v at key, c_key = v / row(key)[key], and
    c_key row(key) is subtracted.  Precondition: row(key) holds key and
    otherwise only keys later in `order`, and every key of the residual is
    in `order`; so each step clears its key for good.  The rows are
    scalars; the values are ints, Fractions or QPolys, or the packed ints
    of _peel_q, on which the same loop solves every power of q at once."""
    out = {}
    for key in order:
        v = residual.get(key)
        if not v:
            continue
        r = row(key)
        c = out[key] = scalar_div(v, r[key])
        for mu, m in r.items():
            _add_term(residual, mu, c * -m)
    return out


def _peel_bound(top, order, row):
    """A bound on every |q-coefficient| of what _peel gives on a residual
    whose q-coefficients at each key are at most top[key] in absolute
    value; top is consumed.  The rows are scalars, so each power of q is
    peeled on its own, and the same loop on the majorants, with |row|
    entries and each quotient rounded up, keeps every residual coefficient
    at or below the majorant at its key."""
    bound = 0
    for key in order:
        if v := top.get(key):
            r = row(key)
            bound = max(bound, c := -(-v // abs(r[key])))
            for mu, m in r.items():
                top[mu] = top.get(mu, 0) + c * abs(m)
    return bound


def _unpack(n, B, bound, D):
    """The QPoly whose coefficients times D are the digits of n in balanced
    base 2^B, each refused with ValueError above bound."""
    c, half = [], 1 << B - 1
    while n:
        x = ((n + half) & ((1 << B) - 1)) - half
        if abs(x) > bound:
            raise ValueError(f"q-coefficient {x} exceeds its bound {bound}")
        c.append(scalar_div(x, D))
        n = (n - x) >> B
    return QPoly(c)


def _peel_q(values, order, row, scale, D=1):
    """_peel on the residual {key: scale(key) * v}, order a list.  Where no
    v is a QPoly, that is all.  Otherwise (an int among the QPolys is a
    constant) every v is scaled by D times the lcm of the denominators of
    all the Fraction coefficients and packed at q = X = 2^B, and _peel
    runs on those ints.  Evaluation at X is a ring homomorphism Z[q] -> Z, and the
    division of P in Z[q] by an int d commutes with it whenever P/d is in
    Z[q]; the caller's D makes every division exact.  So no intermediate
    value need fit in B bits, only the outputs: _peel_bound bounds their
    coefficients, B leaves two bits above the bound, and each output is
    decoded once, in balanced base X, and divided by D."""
    if not any(isinstance(v, QPoly) for v in values.values()):
        return _peel({k: scale(k) * v for k, v in values.items()}, order, row)
    cs = {k: getattr(v, "c", (v,)) for k, v in values.items()}
    D *= lcm(*(x.denominator for c in cs.values() for x in c))
    cs = {k: [int(x * D) * scale(k) for x in c] for k, c in cs.items()}
    bound = _peel_bound({k: max(map(abs, c), default=0)
                         for k, c in cs.items()}, order, row)
    B = bound.bit_length() + 2
    return {k: _unpack(n, B, bound, D) for k, n in _peel(
        {k: sum(x << B * i for i, x in enumerate(c)) for k, c in cs.items()},
        order, row).items()}


@cache
def _p_to_m(lam):
    """p_lam in the monomial basis as {mu: count}: p_(lam_1) times the row
    of the rest.  p_k m_mu adds k to one part a of mu, or to a new part
    (a = 0), and m_nu, nu the result, gains the multiplicity of a + k in
    nu.  Only coarsenings of lam occur."""
    if not lam:
        return {(): 1}
    k = lam[0]
    out = {}
    for mu, c in _p_to_m(lam[1:]).items():
        for a in set(mu) | {0}:
            i = mu.index(a) if a else len(mu)
            nu = tuple(sorted(mu[:i] + mu[i + 1:] + (a + k,), reverse=True))
            _add_term(out, nu, c * nu.count(a + k))
    return out


def sympoly_from_monomials(coeffs, N):
    """The SymPoly, to degree N, of the sum of c m_lam over the items
    (lam, c) of coeffs, every lam a partition with |lam| <= N.  Solved
    triangularly by degree and, within one degree, by partition length,
    longest first: p_lam holds m_lam with coefficient prod_k m_k(lam)! and
    otherwise only m_mu for shorter mu.  The residual at mu is scaled by
    |mu|!, so the peel gives the stored values, and that leading
    coefficient divides them exactly whenever the monomial coefficients
    are integral (ints or QPolys over the ints).  So QPoly values take the
    packed peel of _peel_q with D = 1: the stored values over the ints are
    the decoded outputs themselves (a Fraction coefficient folds its
    denominator into D)."""
    order = sorted(partitions_up_to(N), key=lambda l: (sum(l), -len(l)))
    return SymPoly._of(N, _peel_q(coeffs, order, _p_to_m,
                                  lambda mu: factorial(sum(mu))))


def sympoly_from_vector_counts(counts, N):
    """Build a SymPoly, to degree N, from exponent-vector coefficients.

    Each key is a composition, or a vector over len(key) variables with its
    zeros kept; an absent key has coefficient 0.  Keys that rearrange into
    one another form an orbit, which must give one coefficient to all of
    its rearrangements: each key is compared with the keys that swap two
    adjacent entries, and these swaps reach every rearrangement.  The
    orbit's coefficient is that of m_lambda, lambda its nonzero parts,
    read at its nonincreasing key.  A key that holds a zero must have at
    least N entries, since with fewer variables the m_lambda with more
    parts vanish and distinct functions coincide; and no two orbits may
    give one lambda, as they do when a table mixes lengths.  The m_lambda
    coefficients up to degree N then go to sympoly_from_monomials."""
    monomials = {}
    for key, c in counts.items():
        if 0 in key and len(key) < N:
            raise ValueError(f"vector {key} has a zero and fewer entries "
                             f"than the degree N={N}")
        for i in range(len(key) - 1):
            swap = (*key[:i], key[i + 1], key[i], *key[i + 2:])
            if counts.get(swap, 0) != c:
                raise ValueError(
                    f"not symmetric: coefficient at {key} ({c!r}) differs "
                    f"from the one at {swap} ({counts.get(swap, 0)!r})")
        if c and sum(key) <= N and key == tuple(sorted(key, reverse=True)):
            lam = tuple(x for x in key if x)
            if lam in monomials:
                raise ValueError(f"two orbits give m_{lam}: the keys mix "
                                 "lengths")
            monomials[lam] = c
    return sympoly_from_monomials(monomials, N)


# ---------------------------------------------------------------------------
# bases

def generator_series(basis, k, N):
    """The series g_k, to degree N, with prod_i g_k(x_i) = 1 + basis_k:
    1 + t^k for pbar, 1/(1 - t^k) for pbarprime."""
    if basis == "pbar":
        return tuple(1 if d in (0, k) else 0 for d in range(N + 1))
    if basis == "pbarprime":
        return tuple(1 if d % k == 0 else 0 for d in range(N + 1))
    raise ValueError(f"no generator series for basis {basis!r}")


@cache
def generator_logs(basis, N):
    """{k: t g_k'/g_k mod t^(N+1)} for the basis' generator series g_k,
    k = 1..N, cached per (basis, N)."""
    return {k: series_log_derivative(generator_series(basis, k, N), N)
            for k in range(1, N + 1)}


@cache
def basis_element(basis, lam, N, max_part=None):
    """Multiplicative basis element: p_lam for 'p'; for 'pbar' and
    'pbarprime' the product, over the parts k of lam, of
    prod_i g_k(x_i) - 1 with g_k the generator series: one signed family
    of two log derivatives, that of g_k and the zero vector of the
    constant 1 with weight -1.  Its lowest-degree
    term is p_lam with coefficient 1, so it is 0 when |lam| > N.  For
    'pbar' and 'pbarprime', a max_part sets p_k = 0 for every
    k > max_part: the terms with a larger part are never built.  'p'
    ignores it, as extract never asks for p_lam with a part above
    max_part."""
    if basis not in ("p", "pbar", "pbarprime"):
        raise ValueError(f"unknown basis {basis!r}")
    if sum(lam) > N:
        return SymPoly(N)
    if basis == "p" or not lam:
        return SymPoly(N, {lam: 1})
    if len(lam) == 1:
        return product_over_variables(
            [(generator_logs(basis, N)[lam[0]], 1), ((0,) * (N + 1), -1)],
            N, max_part)
    return (basis_element(basis, lam[:1], N, max_part)
            * basis_element(basis, lam[1:], N, max_part))


# ---------------------------------------------------------------------------
# omega, extraction

def omega(F):
    """The involution sending p_lam to (-1)^(|lam| - len(lam)) p_lam."""
    return SymPoly._of(F.N, {lam: -v if (sum(lam) - len(lam)) % 2 else v
                             for lam, v in F.scaled.items()})


class Expansion:
    """Coefficients of a symmetric function over a multiplicative basis;
    with max_part, only those at the partitions whose parts are all
    <= max_part (None, or any max_part >= N, means every partition)."""

    __slots__ = ("basis", "N", "coeffs", "max_part")

    def __init__(self, basis, N, coeffs, max_part=None):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "coeffs", dict(coeffs))
        object.__setattr__(self, "max_part",
                           None if max_part is None or max_part >= N
                           else max_part)

    def __setattr__(self, *a):
        raise AttributeError("Expansion is immutable")

    def coeff(self, lam):
        return self.coeffs.get(tuple(lam), 0)

    def __eq__(self, other):
        return (isinstance(other, Expansion)
                and (self.basis, self.N, self.max_part)
                == (other.basis, other.N, other.max_part)
                and self.coeffs == other.coeffs)

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: partition_sort_key(kv[0]))

    def __repr__(self):
        terms = ", ".join(f"{list(l)}: {v!r}" for l, v in self.items_sorted())
        cap = "" if self.max_part is None else f", max_part={self.max_part}"
        return f"Expansion[{self.basis}, N={self.N}{cap}]({terms})"


def extract(F, basis, max_part=None):
    """Expand F over the multiplicative basis ('p', 'pbar', 'pbarprime') by
    peeling partitions in graded order: each basis element is p_lam plus
    higher degrees, with stored value |lam|! at lam.

    With max_part = a, only the coefficients at the partitions whose parts
    are all <= a are found, and exactly.  Setting p_k = 0 for every k > a
    is a ring homomorphism pi of the truncated power-sum algebra, since the
    product is the union of partitions.  It kills every basis element with
    a part k > a: every term of the generator p_k, pbar_k or pbarprime_k
    has all its parts divisible by k, so the generator maps to 0.  So
    pi(F) = sum over the lam with parts <= a of c_lam pi(b_lam), and each
    pi(b_lam) is still p_lam plus higher degrees, all with parts <= a: the
    same peel, over those partitions only, on the projected F with the
    elements pi(b_lam) built directly (basis_element with max_part) gives
    the c_lam.  With no max_part, a is N and nothing is projected away.

    QPoly values take the packed peel of _peel_q with D = (N!)^2 (times
    the lcm of any Fraction coefficients), which makes every division of
    that peel exact.  Write F = sum_mu (s_mu / |mu|!) p_mu, with stored
    values s_mu over the ints (the q-refined series and its omega image),
    and each p_mu over the basis as quasisym._p_over_basis does:
    p_a = sum_(d,n) f(d) (-1)^(n+1) / (d n) b_(ad)^n with f integral, so a
    term of the product over the parts a_i of mu has the denominator
    prod_i d_i n_i, and it survives the truncation only when
    sum_i a_i d_i n_i <= N.  Positive integers with sum at most N have a
    product dividing N!, as multinomial coefficients are integral.  So
    N! [b_lam] p_mu is integral, |mu|! divides N!, and D c_lam is a
    polynomial over the ints.  When the peel reaches lam, the residual is
    D times the stored values of sum c_kappa b_kappa over the kappa not yet
    peeled; each b_kappa is p_kappa plus higher degrees, so at lam it is
    D c_lam |lam|!, and its division by |lam|! is exact."""
    a = F.N if max_part is None else min(max_part, F.N)
    if a < 0:
        raise ValueError(f"max_part must be nonnegative, got {max_part}")
    return Expansion(basis, F.N, _peel_q(
        {lam: v for lam, v in F.scaled.items() if max(lam, default=0) <= a},
        [lam for d in range(F.N + 1) for lam in partitions_of(d, a)],
        lambda lam: basis_element(basis, lam, F.N, a).scaled, lambda lam: 1,
        factorial(F.N) ** 2), a)


def verify_omega_basis_identities(k, N):
    """Check both omega images: for odd k, omega swaps 1 + pbarprime_k and
    1 + pbar_k; for even k, omega(1 + b_k) is the reciprocal of 1 + b_k for
    both bases b, checked as omega(1 + b_k) * (1 + b_k) == 1.  b_k has
    no constant term, so 1 + b_k is its stored values with 1 at ().
    Returns True; raises AssertionError otherwise."""
    one = SymPoly(N, {(): 1})
    prime, bar = (SymPoly._of(N, {(): 1, **basis_element(b, (k,), N).scaled})
                  for b in ("pbarprime", "pbar"))
    if k % 2:
        assert omega(prime) == bar, f"omega(1+pbarprime_{k}) mismatch"
        assert omega(bar) == prime, f"omega(1+pbar_{k}) mismatch"
    else:
        assert omega(prime) * prime == one, f"omega(1+pbarprime_{k}) mismatch"
        assert omega(bar) * bar == one, f"omega(1+pbar_{k}) mismatch"
    return True
