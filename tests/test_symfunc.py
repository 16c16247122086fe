import itertools
import random
from fractions import Fraction

import pytest

from kromatic import bundled_graph
from kromatic.graphs import independence_polynomial
from kromatic.heaps import enumerate_pyramids
from kromatic.numbers import partitions_of, partitions_up_to, QPoly
from kromatic.symfunc import (
    Expansion, SymPoly, assemble, basis_element, extract, omega,
    p_decompose_homogeneous,
    product_over_variables, series_log, series_neg_sub,
    series_reciprocal, series_truncate, sympoly_from_vector_counts,
    verify_omega_basis_identities,
)


def test_series_ops():
    assert series_truncate((1, 2), 4) == (1, 2, 0, 0, 0)
    assert series_reciprocal((1, -2), 4) == (1, 2, 4, 8, 16)
    assert series_reciprocal((1, 2), 3) == (1, -2, 4, -8)
    log = series_log(series_reciprocal((1, -1), 4), 4)
    assert log == (0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    assert series_neg_sub((1, 2, 3)) == (1, -2, 3)
    for bad in ((2, 1), (-1, 1)):
        with pytest.raises(ValueError):
            series_reciprocal(bad, 3)
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


def _m(coeffs, N):
    """The SymPoly of a monomial-basis dict, through the one conversion."""
    return sympoly_from_vector_counts(_monomials(coeffs, N), N, N)


def _dense(F, M):
    """Exponent vectors over M variables of a p-basis SymPoly, with each
    p_k expanded as x_1^k + ... + x_M^k (oracle)."""
    out = {}
    for lam, c in F.c.items():
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
        assert sympoly_from_vector_counts(product, M, N) == fa * fb


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
    F = product_over_variables((1, 2), 3)
    assert F == _m({(): 1, (1,): 2, (1, 1): 4, (1, 1, 1): 8}, 3)
    with pytest.raises(ValueError):
        product_over_variables((2, 1), 3)


def test_bases():
    N = 5
    assert basis_element("pbar", (2,), N) == _m({(2,): 1, (2, 2): 1}, N)
    assert basis_element("pbarprime", (2,), N) == _m(
        {(2,): 1, (4,): 1, (2, 2): 1}, N)
    assert basis_element("p", (2,), N).c == {(2,): 1}
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
            low = {mu: c for mu, c in B.c.items() if sum(mu) == sum(lam)}
            assert low == {lam: 1}


def test_p_decompose_examples():
    got = p_decompose_homogeneous({(1, 1): 2}, 2)
    assert got == {(1, 1): 1, (2,): -1}
    # h_2 = m_2 + m_11 = (p_11 + p_2)/2
    got = p_decompose_homogeneous({(2,): 1, (1, 1): 1}, 2)
    assert got == {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)}
    assert p_decompose_homogeneous({(2, 1): 1}, 3) == {(2, 1): 1, (3,): -1}


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
    c = SymPoly.const(N, 7)
    assert omega(c) == c


def test_omega_involution_randomized():
    rng = random.Random(11)
    N = 5
    pool = [lam for lam in partitions_up_to(N) if lam]
    for _ in range(25):
        F = _m({lam: rng.randint(-3, 3) for lam in rng.sample(pool, 6)}, N)
        assert omega(omega(F)) == F
    with pytest.raises(ValueError):  # M < N refused
        sympoly_from_vector_counts(_monomials({(1,): 1}, 3), 3, 5)


def test_omega_multiplicativity_lemma():
    # omega(prod_i f(x_i)) = prod_i 1/f(-x_i) for polynomial f with f(0)=1
    rng = random.Random(13)
    N = 5
    for _ in range(10):
        f = (1, rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-2, 2))
        lhs = omega(product_over_variables(f, N))
        rhs = product_over_variables(series_reciprocal(series_neg_sub(f), N), N)
        assert lhs == rhs


def test_extract_round_trip():
    rng = random.Random(17)
    N = 5
    pool = [lam for lam in partitions_up_to(N) if lam]
    for basis in ("p", "pbar", "pbarprime"):
        for _ in range(15):
            chosen = {lam: rng.randint(-3, 3) for lam in rng.sample(pool, 5)}
            F = SymPoly(N, {})
            for lam, c in chosen.items():
                F = F + basis_element(basis, lam, N).scale(c)
            exp = extract(F, basis)
            assert exp.coeffs == {l: c for l, c in chosen.items() if c}
            assert assemble(exp, N) == F


def test_extract_fractional_coefficients():
    # extraction is total on symmetric input: m_11 alone expands with
    # rational coefficients and still round-trips exactly
    F = sympoly_from_vector_counts(_monomials({(1, 1): 1}, 5), 5, 2)
    exp = extract(F, "pbar")
    assert exp.coeffs == {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}
    assert assemble(exp, 2) == F
    with pytest.raises(ValueError):  # M < N refused
        sympoly_from_vector_counts(_monomials({(1,): 1}, 3), 3, 5)


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
    monkeypatch.setattr(
        symfunc, "basis_element",
        lambda basis, lam, N, element=basis_element: element(
            basis, lam, N).scale(2 if basis == "pbar" else 1))
    for k in (2, 4):
        with pytest.raises(AssertionError, match=r"omega\(1\+pbar_"):
            verify_omega_basis_identities(k, 2 * k)


def test_qpoly_coefficients_supported():
    N = 3
    q = QPoly.q()
    F = SymPoly(N, {(1,): 1 + q, (1, 1): q})
    G = F * F
    assert G.coeff((1, 1)) == (1 + q) * (1 + q)
    assert G.coeff((1, 1, 1)) == 2 * q * (1 + q)
    assert omega(omega(F)) == F
    assert omega(F) == SymPoly(N, {(1,): 1 + q, (1, 1): q})
    # monomial coefficients in q convert too: q m_2 = q p_2
    assert sympoly_from_vector_counts(
        _monomials({(2,): q}, N), N, N) == SymPoly(N, {(2,): q})


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
        SymPoly(3, {(1,): 1}) + SymPoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        SymPoly(3, {(1,): 1}) * SymPoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        SymPoly(2, {(3,): 1})
