import itertools
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from kromatic import BUNDLED_GRAPHS, BUNDLED_MODELS, bundled_graph, \
    bundled_model
from kromatic.core import image_log, kromatic
from kromatic.graphs import independence_polynomial
from kromatic.heaps import enumerate_pyramids
from kromatic.numbers import partitions_of, partitions_up_to, QPoly
from kromatic.quasisym import kromatic_q, partition_coefficients
from kromatic.symfunc import (
    Expansion, SymPoly, _p_to_m, _peel, _peel_bound, basis_element, extract,
    generator_series, omega, product_over_variables, series_log_derivative,
    series_truncate, sympoly_from_monomials, sympoly_from_vector_counts,
    verify_omega_basis_identities,
)

from helpers import (assemble, clear_caches, oracle_add, oracle_extract,
                     oracle_mul, oracle_omega, oracle_p_decompose_homogeneous,
                     oracle_p_to_m, oracle_product_over_variables,
                     oracle_scale, series_log, series_neg_sub,
                     series_reciprocal, twice, unit_interval_models)


def test_series_ops():
    assert series_truncate((1, 2), 4) == (1, 2, 0, 0, 0)
    assert series_reciprocal((1, -2), 4) == (1, 2, 4, 8, 16)
    assert series_reciprocal((1, 2), 3) == (1, -2, 4, -8)
    log = series_log(series_reciprocal((1, -1), 4), 4)
    assert log == (0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    assert series_log_derivative(series_reciprocal((1, -1), 4), 4) == \
        (0, 1, 1, 1, 1)
    assert series_neg_sub((1, 2, 3)) == (1, -2, 3)
    for bad in ((2, 1), (-1, 1)):
        with pytest.raises(ValueError):
            series_reciprocal(bad, 3)
        with pytest.raises(ValueError):
            series_log_derivative(bad, 3)
    with pytest.raises(ValueError):
        series_log((0, 1), 3)


def _monomials(coeffs, M):
    """Exponent vectors over M variables of a monomial-basis dict
    {mu: coefficient of m_mu} (oracle)."""
    out = {}
    for mu, c in coeffs.items():
        seen = set()
        for perm in itertools.permutations(range(M), len(mu)):
            vec = [0] * M
            for pos, part in zip(perm, mu):
                vec[pos] = part
            seen.add(tuple(vec))
        for vec in seen:
            out[vec] = out.get(vec, 0) + c
    return {v: c for v, c in out.items() if c}


def _compositions(coeffs):
    """The compositions of a monomial-basis dict: each mu at every distinct
    rearrangement, with no zeros (oracle)."""
    return {alpha: c for mu, c in coeffs.items()
            for alpha in set(itertools.permutations(mu))}


def _m(coeffs, N):
    """The SymPoly of a monomial-basis dict, through the one conversion."""
    return sympoly_from_vector_counts(_monomials(coeffs, N), N)


def _dense(F, M):
    """Exponent vectors over M variables of a p-basis SymPoly, with each
    p_k expanded as x_1^k + ... + x_M^k (oracle)."""
    out = {}
    for lam, c in F.terms().items():
        vecs = {(0,) * M: 1}
        for part in lam:
            nxt = {}
            for vec, a in vecs.items():
                for i in range(M):
                    w = vec[:i] + (vec[i] + part,) + vec[i + 1:]
                    nxt[w] = nxt.get(w, 0) + a
            vecs = nxt
        for vec, a in vecs.items():
            out[vec] = out.get(vec, 0) + c * a
    return {v: c for v, c in out.items() if c}


def _dense_mul(a, b, N):
    out = {}
    for va, ca in a.items():
        for vb, cb in b.items():
            s = tuple(x + y for x, y in zip(va, vb))
            if sum(s) <= N:
                out[s] = out.get(s, 0) + ca * cb
    return {v: c for v, c in out.items() if c}


def test_monomial_products_against_dense_oracle():
    # in M = N variables the exponent vectors determine the function, and
    # converting them back gives the same SymPoly
    M = N = 5
    rng = random.Random(7)
    pool = list(partitions_up_to(N))
    for _ in range(40):
        fa = SymPoly(N, {lam: rng.randint(-2, 2)
                         for lam in rng.sample(pool, 4)})
        fb = SymPoly(N, {lam: rng.randint(-2, 2)
                         for lam in rng.sample(pool, 4)})
        product = _dense(fa * fb, M)
        assert product == _dense_mul(_dense(fa, M), _dense(fb, M), N)
        assert sympoly_from_vector_counts(product, N) == fa * fb


def test_vector_counts_read_complete_orbits():
    # a dropped or changed key fails whichever key it is, unless it is its
    # orbit's only key; a composition table and a vector table of one
    # function agree, and a table mixing the two is refused
    rng = random.Random(19)
    N = 4
    pool = [lam for lam in partitions_up_to(N) if lam]
    q = QPoly((0, 1))
    for values in ((1, 2, -3), (q, 1 + q, 2 * q)):
        for _ in range(5):
            coeffs = {lam: rng.choice(values) for lam in rng.sample(pool, 4)}
            assert sympoly_from_vector_counts(_compositions(coeffs), N) == \
                _m(coeffs, N)
            for table in (_monomials(coeffs, N), _compositions(coeffs)):
                for key, c in table.items():
                    if len(set(key)) == 1:
                        continue
                    dropped = {k: v for k, v in table.items() if k != key}
                    for bad in (dropped, {**table, key: c + 1}):
                        with pytest.raises(ValueError, match="not symmetric"):
                            sympoly_from_vector_counts(bad, N)
    mixed = {**_monomials({(1, 1): 1}, N), **_compositions({(1, 1): 1})}
    with pytest.raises(ValueError, match="mix lengths"):
        sympoly_from_vector_counts(mixed, N)


def test_specific_monomial_products():
    N = 6
    m1 = _m({(1,): 1}, N)
    m11 = _m({(1, 1): 1}, N)
    m2 = _m({(2,): 1}, N)
    assert m1 == SymPoly(N, {(1,): 1})
    assert m11 == SymPoly(N, {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)})
    assert m1 * m1 == _m({(2,): 1, (1, 1): 2}, N)
    assert m1 * m11 == _m({(2, 1): 1, (1, 1, 1): 3}, N)
    assert m2 * m11 == _m({(3, 1): 1, (2, 1, 1): 1}, N)


def test_product_over_variables():
    # prod_i (1 + 2 x_i), from t f'/f = 2t - 4t^2 + 8t^3
    F = product_over_variables([(series_log_derivative((1, 2), 3), 1)], 3)
    assert F == _m({(): 1, (1,): 2, (1, 1): 4, (1, 1, 1): 8}, 3)


def test_bases():
    N = 5
    assert basis_element("pbar", (2,), N) == _m({(2,): 1, (2, 2): 1}, N)
    assert basis_element("pbarprime", (2,), N) == _m(
        {(2,): 1, (4,): 1, (2, 2): 1}, N)
    assert basis_element("p", (2,), N).terms() == {(2,): 1}
    # every basis truncates to degree N alike
    for basis in ("p", "pbar", "pbarprime"):
        assert basis_element(basis, (3, 3), N) == 0
    assert basis_element("pbar", (1,), N) == _m(
        {(1,): 1, (1, 1): 1, (1, 1, 1): 1, (1, 1, 1, 1): 1,
         (1, 1, 1, 1, 1): 1}, N)
    # lowest-degree term of each K-basis element is the classical power sum
    for basis in ("pbar", "pbarprime"):
        for lam in partitions_up_to(4):
            if not lam:
                continue
            B = basis_element(basis, lam, 6)
            low = {mu: c for mu, c in B.terms().items()
                   if sum(mu) == sum(lam)}
            assert low == {lam: 1}


def test_p_decompose_examples():
    # the stored values are n! times the p-coefficients: 2 m_11 = p_11 - p_2
    got = sympoly_from_monomials({(1, 1): 2}, 2).scaled
    assert got == {(1, 1): 2, (2,): -2}
    # h_2 = m_2 + m_11 = (p_11 + p_2)/2, stored as ints
    got = sympoly_from_monomials({(2,): 1, (1, 1): 1}, 2).scaled
    assert got == {(1, 1): 1, (2,): 1}
    assert all(type(v) is int for v in got.values())
    # m_21 = p_21 - p_3
    assert sympoly_from_monomials({(2, 1): 1}, 3).scaled == \
        {(2, 1): 6, (3,): -6}
    # q-polynomials divide exactly too: q m_11 = q (p_11 - p_2) / 2
    q = QPoly((0, 1))
    assert sympoly_from_monomials({(1, 1): q}, 2).scaled == \
        {(1, 1): q, (2,): -q}
    # a non-integral input still converts: m_11 / 3 = (p_11 - p_2) / 6
    assert sympoly_from_monomials({(1, 1): Fraction(1, 3)}, 2).scaled == \
        {(1, 1): Fraction(1, 3), (2,): Fraction(-1, 3)}
    # several degrees at once, each scaled by its own factorial, below N:
    # 1 + m_1 + m_21 = 1 + p_1 + p_21 - p_3
    assert sympoly_from_monomials({(): 1, (1,): 1, (2, 1): 1}, 4) == \
        SymPoly(4, {(): 1, (1,): 1, (2, 1): 1, (3,): -1})


def test_monomial_rows_match_box_filling_oracle():
    # every row of the monomial-to-power-sum conversion, against the count
    # of ways to fill boxes with the parts of lambda
    for lam in partitions_up_to(9):
        assert _p_to_m(lam) == oracle_p_to_m(lam), lam


def test_omega_small():
    N = 5
    e2 = _m({(1, 1): 1}, N)
    h2 = _m({(2,): 1, (1, 1): 1}, N)
    assert omega(e2) == h2
    assert omega(h2) == e2
    # omega(e_n) = h_n, the sum of all monomials of degree n
    for n in range(1, N + 1):
        assert omega(_m({(1,) * n: 1}, N)) == \
            _m({mu: 1 for mu in partitions_of(n)}, N)
    # omega is degreewise and fixes constants
    c = SymPoly(N, {(): 7})
    assert omega(c) == c


def test_omega_involution_randomized():
    rng = random.Random(11)
    N = 5
    pool = [lam for lam in partitions_up_to(N) if lam]
    for _ in range(25):
        F = _m({lam: rng.randint(-3, 3) for lam in rng.sample(pool, 6)}, N)
        assert omega(omega(F)) == F
    with pytest.raises(ValueError):  # a zero and fewer than N entries
        sympoly_from_vector_counts(_monomials({(1,): 1}, 3), 5)


def test_omega_multiplicativity_lemma():
    # omega(prod_i f(x_i)) = prod_i 1/f(-x_i) for polynomial f with f(0)=1
    rng = random.Random(13)
    N = 5
    for _ in range(10):
        f = (1, rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-2, 2))
        lhs = omega(product_over_variables(
            [(series_log_derivative(f, N), 1)], N))
        rhs = product_over_variables([(series_log_derivative(
            series_reciprocal(series_neg_sub(f), N), N), 1)], N)
        assert lhs == rhs
        assert product_over_variables([(image_log(f, N, "omega"), 1)], N) \
            == rhs


def test_extract_round_trip():
    rng = random.Random(17)
    N = 5
    pool = [lam for lam in partitions_up_to(N) if lam]
    for basis in ("p", "pbar", "pbarprime"):
        for _ in range(15):
            chosen = {lam: rng.randint(-3, 3) for lam in rng.sample(pool, 5)}
            F = assemble(Expansion(basis, N, chosen), N)
            exp = extract(F, basis)
            assert exp.coeffs == {l: c for l, c in chosen.items() if c}
            assert assemble(exp, N) == F


def test_restricted_basis_elements_are_the_projection():
    # pi sets p_k = 0 for k > a: it keeps the terms with parts <= a and
    # sends every element with a larger part to 0
    N = 7
    for basis in ("pbar", "pbarprime"):
        for lam in partitions_up_to(N):
            for a in range(N + 1):
                full = basis_element(basis, lam, N).scaled
                assert basis_element(basis, lam, N, a).scaled == {
                    mu: v for mu, v in full.items()
                    if max(mu, default=0) <= a}, (basis, lam, a)


def test_full_extraction_after_a_restricted_one():
    # the restricted basis elements are cached apart from the full ones
    F = kromatic(bundled_graph("paw"), 8, "omega")
    clear_caches()
    fresh = {b: extract(F, b) for b in ("pbar", "pbarprime")}
    clear_caches()
    for b in ("pbar", "pbarprime"):
        assert extract(F, b, max_part=2).max_part == 2
        assert extract(F, b) == fresh[b]
        assert extract(F, b, max_part=8) == fresh[b]


def test_restricted_expansion_container():
    e = Expansion("pbar", 4, {(2, 1): -2}, max_part=2)
    assert e.max_part == 2 and e != Expansion("pbar", 4, {(2, 1): -2})
    assert repr(e) == "Expansion[pbar, N=4, max_part=2]([2, 1]: -2)"
    # a cap at N or above holds every partition
    assert Expansion("pbar", 4, {}, max_part=4) == Expansion("pbar", 4, {})


def test_extract_fractional_coefficients():
    # extraction is total on symmetric input: m_11 alone expands with
    # rational coefficients and still round-trips exactly
    F = sympoly_from_vector_counts(_monomials({(1, 1): 1}, 5), 2)
    exp = extract(F, "pbar")
    assert exp.coeffs == {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}
    assert assemble(exp, 2) == F
    with pytest.raises(ValueError):  # a zero and fewer than N entries
        sympoly_from_vector_counts(_monomials({(1,): 1}, 3), 5)


def test_omega_basis_identities():
    for k in (1, 2, 3, 4):
        assert verify_omega_basis_identities(k, 6)


def test_omega_basis_identities_reject_identity_omega(monkeypatch):
    import kromatic.symfunc as symfunc
    monkeypatch.setattr(symfunc, "omega", lambda F: F)
    for k in (1, 2, 3, 4):
        with pytest.raises(AssertionError):
            verify_omega_basis_identities(k, 6)
    # a wrong pbar alone must fail too: at even k only the pbar half of the
    # reciprocal rule sees it, from degree 2k on
    monkeypatch.undo()

    def wrong_pbar(basis, lam, N):
        F = basis_element(basis, lam, N)
        return twice(F) if basis == "pbar" else F

    monkeypatch.setattr(symfunc, "basis_element", wrong_pbar)
    for k in (2, 4):
        with pytest.raises(AssertionError, match=r"omega\(1\+pbar_"):
            verify_omega_basis_identities(k, 2 * k)


def test_qpoly_coefficients_supported():
    N = 3
    q = QPoly((0, 1))
    F = SymPoly(N, {(1,): 1 + q, (1, 1): q})
    G = F * F
    assert G.coeff((1, 1)) == (1 + q) * (1 + q)
    assert G.coeff((1, 1, 1)) == 2 * q * (1 + q)
    assert omega(omega(F)) == F
    assert omega(F) == SymPoly(N, {(1,): 1 + q, (1, 1): q})
    # monomial coefficients in q convert too: q m_2 = q p_2
    assert sympoly_from_vector_counts(
        _monomials({(2,): q}, N), N) == SymPoly(N, {(2,): q})


def test_pyramid_counts_from_log_of_heap_series():
    # n * [t^n] log H_G(t) counts pyramids of size n, where
    # H_G(t) = 1 / I_G(-t)
    for name in ("k2", "p3", "paw"):
        g = bundled_graph(name)
        H = series_reciprocal(series_neg_sub(independence_polynomial(g)), 6)
        P = series_log(H, 6)
        for n in range(1, 7):
            assert n * P[n] == len(enumerate_pyramids(g, n))


def test_expansion_container():
    e = Expansion("pbar", 3, {(2, 1): -2, (3,): 1})
    assert e.coeff((2, 1)) == -2
    assert e.coeff((9,)) == 0
    assert [l for l, _ in e.items_sorted()] == [(3,), (2, 1)]


def test_sympoly_strict_truncation():
    # a SymPoly truncated lower is a different object, not an equal one
    assert SymPoly(3, {(1,): 1, (3,): 5}) != SymPoly(2, {(1,): 1})
    assert SymPoly(3, {(1,): 1}) != SymPoly(2, {(1,): 1})
    assert SymPoly(2, {(1,): 1}) == SymPoly(2, {(1,): 1, (2,): 0})
    with pytest.raises(ValueError):
        SymPoly(3, {(1,): 1}) * SymPoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        SymPoly(2, {(3,): 1})


# ---------------------------------------------------------------------------
# the |lambda|!-scaled storage against the Fraction oracle

_scalars = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)))
_coefficients = st.one_of(
    _scalars, st.builds(QPoly, st.lists(_scalars, max_size=3)))


@st.composite
def _p_dicts(draw, N):
    """{partition: coefficient of p_partition} with |partition| <= N."""
    pool = list(partitions_up_to(N))
    lams = draw(st.lists(st.sampled_from(pool), max_size=6, unique=True))
    return {lam: v for lam in lams if (v := draw(_coefficients))}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_scaled_arithmetic_matches_fraction_oracle(data):
    N = data.draw(st.integers(0, 8), label="N")
    a = data.draw(_p_dicts(N), label="a")
    b = data.draw(_p_dicts(N), label="b")
    A, B = SymPoly(N, a), SymPoly(N, b)

    def same(F, want):
        assert F == SymPoly(N, want)
        assert F.terms() == {lam: v for lam, v in want.items() if v}

    same(A * B, oracle_mul(a, b, N))
    same(omega(A), oracle_omega(a))
    basis = data.draw(st.sampled_from(("p", "pbar", "pbarprime")),
                      label="basis")
    assert extract(A, basis).coeffs == oracle_extract(a, basis, N)
    f = (1,) + tuple(data.draw(st.lists(_scalars, min_size=N, max_size=N),
                               label="f"))
    d = series_log_derivative(f, N)
    same(product_over_variables([(d, 1)], N),
         oracle_product_over_variables(f, N))
    # values written one by one are stored as ints wherever integral
    for F in (A, product_over_variables([(d, 1)], N)):
        for v in F.scaled.values():
            for y in (v.c if isinstance(v, QPoly) else (v,)):
                assert type(y) is int or y.denominator != 1


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 7), st.data())
def test_product_over_a_family_matches_the_weighted_oracle_sum(N, data):
    series = st.tuples(st.just(1), *[_scalars] * N)
    family = data.draw(st.lists(st.tuples(series, st.integers(-3, 3)),
                                min_size=2, max_size=4), label="family")
    # a series repeated with the opposite weight cancels
    f, w = data.draw(st.sampled_from(family), label="echo")
    family.append((f, -w))
    want = {}
    for f, w in family:
        want = oracle_add(want, oracle_scale(
            oracle_product_over_variables(f, N), w))
    assert product_over_variables(
        [(series_log_derivative(f, N), w) for f, w in family], N) == \
        SymPoly(N, want)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 8), st.data())
def test_product_over_variables_to_a_largest_part(N, data):
    # the projection p_k = 0 for every k > a is the unprojected product
    # with every term that has a part above a dropped
    series = st.tuples(st.just(1), *[st.integers(-3, 3)] * N)
    family = data.draw(st.lists(st.tuples(series, st.integers(-3, 3)),
                                max_size=4), label="family")
    a = data.draw(st.integers(0, N + 1), label="max_part")
    logs = [(series_log_derivative(f, N), w) for f, w in family]
    full = product_over_variables(logs, N)
    assert product_over_variables(logs, N, a) == SymPoly._of(N, {
        lam: v for lam, v in full.scaled.items() if max(lam, default=0) <= a})


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.integers(0, 12), st.data())
def test_image_log_is_the_log_derivative_of_the_image_series(N, data):
    # omega swaps I for 1 / I(-t); image_log carries that series as its
    # log derivative, a sign on each entry of t I'/I
    p = (1,) + tuple(data.draw(st.lists(st.integers(-4, 4), max_size=6),
                               label="poly"))
    assert image_log(p, N, "direct") == series_log_derivative(p, N)
    assert image_log(p, N, "omega") == series_log_derivative(
        series_reciprocal(series_neg_sub(p), N), N)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.data())
def test_scaled_monomial_conversion_matches_fraction_oracle(n, data):
    pool = list(partitions_of(n))
    lams = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                              max_size=4, unique=True))
    sl = {lam: v for lam in lams if (v := data.draw(_coefficients))}
    got = sympoly_from_monomials(sl, n).scaled
    assert {lam: v * Fraction(1, factorial(n)) for lam, v in got.items()} \
        == oracle_p_decompose_homogeneous(sl, n)


def test_stored_values_are_ints():
    # F(G), its omega image, every K-basis element and the q-refined
    # series are integral, so |lambda|! times each p-coefficient is an int
    def ints(F):
        return all(type(y) is int for v in F.scaled.values()
                   for y in (v.c if isinstance(v, QPoly) else (v,)))

    N = 10
    for name in BUNDLED_GRAPHS:
        g = bundled_graph(name)
        assert ints(kromatic(g, N)) and ints(kromatic(g, N, "omega"))
    for basis in ("pbar", "pbarprime"):
        for lam in partitions_up_to(N):
            assert ints(basis_element(basis, lam, N))
    for name in BUNDLED_MODELS:
        assert ints(kromatic_q(bundled_model(name), 6))


@pytest.mark.parametrize("call, error, match", [
    (lambda: setattr(SymPoly(3), "N", 4), AttributeError, "immutable"),
    (lambda: setattr(Expansion("p", 3, {}), "N", 4), AttributeError,
     "immutable"),
    (lambda: SymPoly(3, {(1, 2): 1}), ValueError, "not a partition"),
    (lambda: generator_series("p", 2, 4), ValueError, "no generator series"),
    (lambda: basis_element("q", (1,), 3), ValueError, "unknown basis"),
    (lambda: extract(SymPoly(3), "pbar", max_part=-1), ValueError,
     "max_part must be nonnegative"),
    (lambda: product_over_variables([((0, 1, 1, 1), 1)], 3, -1), ValueError,
     "max_part must be nonnegative"),
    (lambda: basis_element("pbar", (1,), 3, -1), ValueError,
     "max_part must be nonnegative"),
    (lambda: kromatic(bundled_graph("p3"), 3, "omega", -1), ValueError,
     "max_part must be nonnegative"),
], ids=["sympoly-is-immutable", "expansion-is-immutable", "not-a-partition",
        "no-p-generator", "unknown-basis", "negative-max-part",
        "product-negative-max-part", "basis-element-negative-max-part",
        "kromatic-negative-max-part"])
def test_direct_calls_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_sympoly_keeps_only_the_product():
    # a SymPoly is built once and multiplied, never added, negated or
    # scaled, and a QPoly is neither subtracted nor hashed: each of these
    # is refused, while truth and the comparison with 0 keep their meaning
    F = kromatic(bundled_graph("p3"), 4)
    G, q = SymPoly(4, {(1,): 1}), QPoly((0, 1))
    for refused in (lambda: F + G, lambda: F - 1, lambda: 1 + F,
                    lambda: -F, lambda: 2 * F, lambda: F * 2,
                    lambda: q - q, lambda: hash(q)):
        with pytest.raises(TypeError):
            refused()
    assert F != SymPoly(F.N) and F != 0 and SymPoly(F.N) == 0
    assert not SymPoly(3) and F


# The two q peels pack their QPoly values into ints; the oracle is _peel
# itself on the QPoly residual, as both peels ran before the packing.

def _monomial_order(N):
    return sorted(partitions_up_to(N), key=lambda l: (sum(l), -len(l)))


def _qpoly_monomial_peel(coeffs, N):
    return _peel({mu: factorial(sum(mu)) * v for mu, v in coeffs.items()},
                 _monomial_order(N), _p_to_m)


def _basis_rows(basis, N):
    return lambda lam: basis_element(basis, lam, N).scaled


def _qpoly_extract_peel(F, basis):
    return _peel(dict(F.scaled), list(partitions_up_to(F.N)),
                 _basis_rows(basis, F.N))


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(unit_interval_models(), st.integers(0, 8))
@example(bundled_model("ui-paw"), 8)
@example(bundled_model("ui-p4"), 8)
def test_packed_peels_match_the_qpoly_peel(g, N):
    X = kromatic_q(g, N)
    assert X.scaled == _qpoly_monomial_peel(partition_coefficients(g, N), N)
    for F in (X, omega(X)):
        for basis in ("pbar", "pbarprime"):
            assert extract(F, basis).coeffs == _qpoly_extract_peel(F, basis)


def test_packed_peels_take_fractions_and_constants():
    # Fraction coefficients fold their denominators into the scaling, and
    # an int among QPoly values is a constant
    q, N = QPoly((0, 1)), 5
    fractional = SymPoly(N, {
        (1,): QPoly((Fraction(1, 3), Fraction(-2, 7))),
        (2, 1): QPoly((0, Fraction(5, 2))), (3, 2): q})
    mixed = SymPoly(N, {(): 3, (2,): QPoly((1, 0, -4)), (1, 1, 1): -2,
                        (4, 1): q})
    for F in (fractional, mixed):
        for basis in ("p", "pbar", "pbarprime"):
            want = _qpoly_extract_peel(F, basis)
            assert want and extract(F, basis).coeffs == want, (F, basis)
    for coeffs in ({(1,): QPoly((Fraction(1, 3),)),
                    (2, 1): QPoly((0, Fraction(-3, 4)))},
                   {(2,): 5, (1, 1): QPoly((1, 2)), (3,): -q}):
        assert sympoly_from_monomials(coeffs, N).scaled == \
            _qpoly_monomial_peel(coeffs, N), coeffs


def _largest(v):
    return max(map(abs, v.c), default=0)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(unit_interval_models(), st.integers(0, 8))
@example(bundled_model("ui-paw"), 8)
def test_peel_bound_holds_every_output_coefficient(g, N):
    # the majorant pass bounds each q-coefficient of the scaled outputs:
    # D = 1 for the monomial conversion, (N!)^2 for the extraction
    coeffs = partition_coefficients(g, N)
    order = _monomial_order(N)
    bound = _peel_bound({mu: factorial(sum(mu)) * _largest(v)
                         for mu, v in coeffs.items()}, order, _p_to_m)
    got = _qpoly_monomial_peel(coeffs, N).values()
    assert all(_largest(v) <= bound for v in got)
    X, D = kromatic_q(g, N), factorial(N) ** 2
    for F in (X, omega(X)):
        for basis in ("pbar", "pbarprime"):
            bound = _peel_bound({lam: D * _largest(v)
                                 for lam, v in F.scaled.items()},
                                list(partitions_up_to(N)),
                                _basis_rows(basis, N))
            got = _qpoly_extract_peel(F, basis).values()
            assert all(D * _largest(v) <= bound for v in got), basis
