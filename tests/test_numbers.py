from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kromatic.numbers import (
    QPoly, binomial, divisors, family_sums, mobius, mu_hat,
    multiplicities, partition_sort_key, partitions_of, partitions_up_to,
    q_factorial, q_int, z_lambda,
)

from helpers import oracle_family_sums


def test_z_lambda():
    assert z_lambda(()) == 1
    assert z_lambda((2, 1, 1)) == 4
    assert z_lambda((3, 3)) == 18
    assert z_lambda((1, 1, 1)) == 6
    assert z_lambda((5,)) == 5


def test_partitions_of_order_and_counts():
    got = list(partitions_of(5))
    assert got[:4] == [(5,), (4, 1), (3, 2), (3, 1, 1)]
    assert got[-1] == (1, 1, 1, 1, 1)
    assert len(set(got)) == len(got)
    # Euler's pentagonal-number recurrence as an independent count oracle.
    p = [1]
    for n in range(1, 21):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 == 1 else -1
            total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p.append(total)
    for n in range(21):
        assert len(list(partitions_of(n))) == p[n]


def test_partitions_up_to_graded():
    seq = list(partitions_up_to(3))
    assert seq == [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
    assert seq == sorted(seq, key=partition_sort_key)


def test_multiplicities():
    assert multiplicities((4, 2, 2, 1)) == {4: 1, 2: 2, 1: 1}


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_mobius():
    values = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0,
              9: 0, 10: 1, 12: 0, 30: -1}
    for n, v in values.items():
        assert mobius(n) == v


def test_mu_hat_values():
    assert mu_hat(1) == 1
    assert mu_hat(2) == 1
    assert mu_hat(3) == -1
    assert mu_hat(4) == 2
    assert mu_hat(6) == -1
    assert mu_hat(8) == 4
    assert mu_hat(12) == -2


def test_mu_hat_dirichlet_inverse():
    # sum over d | n of (-1)**(n/d + 1) * mu_hat(d) is 1 at n=1, else 0
    for n in range(1, 65):
        s = sum((-1) ** (n // d + 1) * mu_hat(d) for d in divisors(n))
        assert s == (1 if n == 1 else 0), n


def test_binomial_multichoose():
    assert binomial(4, 2) == 6
    assert binomial(3, 5) == 0
    # C(-m, k) = (-1)^k C(m + k - 1, k): multisets of size k from m kinds
    assert binomial(-3, 2) == 6
    assert binomial(0, 0) == 1
    assert binomial(0, 2) == 0
    assert binomial(-1, 3) == -1
    assert binomial(-2, 0) == 1


def test_qpoly_ring_ops():
    q = QPoly((0, 1))
    one = QPoly(1)
    assert (one + q) * (one + q) == QPoly((1, 2, 1))
    assert q * 0 == QPoly()
    assert QPoly() * q == q * QPoly() == QPoly() * QPoly() == 0
    assert not QPoly()
    assert (one + q)(1) == 2
    assert (QPoly((1, 2, 1)))(Fraction(1, 2)) == Fraction(9, 4)
    assert QPoly(Fraction(4, 2)) == 2


def test_qpoly_divexact():
    num = QPoly((1, 2, 1))
    assert num.divexact(QPoly((1, 1))) == QPoly((1, 1))
    with pytest.raises(ValueError):
        QPoly((1, 1, 1)).divexact(QPoly((1, 1)))
    # non-monic but exact
    assert QPoly((2, 2)).divexact(QPoly(2)) == QPoly((1, 1))
    # a zero dividend divides; a shorter nonzero one leaves a remainder
    assert QPoly().divexact(QPoly((1, 1))) == 0
    with pytest.raises(ValueError):
        QPoly(1).divexact(QPoly((1, 1)))


def test_q_factorial():
    assert q_factorial(()) == 1
    assert q_factorial((2,)) == QPoly((1, 1))
    assert q_factorial((2, 2)) == QPoly((1, 2, 1))
    assert q_factorial((3,)) == q_int(2) * q_int(3)
    assert q_factorial((1, 1, 1)) == 1


@st.composite
def _signed_families(draw):
    """(N, family): vectors over the part sizes 0..N with negative, zero
    and positive entries, some of them drawn twice with opposite weights
    so that their sums cancel."""
    N = draw(st.integers(0, 8))
    vectors = st.tuples(*[st.integers(-3, 3)] * (N + 1))
    family = draw(st.lists(st.tuples(vectors, st.integers(-4, 4)),
                           max_size=8))
    echoes = draw(st.lists(st.sampled_from(family), max_size=3)
                  if family else st.just([]))
    return N, family + [(v, -w) for v, w in echoes]


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(_signed_families(), st.sampled_from((pow, binomial)))
def test_family_sums_match_the_per_partition_sums(N_and_family, factor):
    N, family = N_and_family
    assert family_sums(family, N, factor) == \
        oracle_family_sums(family, N, factor)


def test_family_sums_examples():
    # one vector: prod_k v_k^(m_k); the empty partition carries the weight
    assert family_sums([((0, 2, 3), 1)], 2, pow) == \
        {(): 1, (1,): 2, (2,): 3, (1, 1): 4}
    # C(1, 2) = 0 at (1, 1); a vector and its negation cancel everywhere
    assert family_sums([((0, 1, 5), 2)], 2, binomial) == \
        {(): 2, (1,): 2, (2,): 10}
    assert family_sums([((0, 1, 5), 2), ((0, 1, 5), -2)], 2, binomial) == {}


@pytest.mark.parametrize("call, error", [
    (lambda: setattr(QPoly((1, 1)), "c", ()), AttributeError),
    (lambda: mobius(0), ValueError),
    (lambda: mu_hat(0), ValueError),
], ids=["qpoly-is-immutable", "mobius-0", "mu-hat-0"])
def test_direct_calls_raise(call, error):
    with pytest.raises(error):
        call()
