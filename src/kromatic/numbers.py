"""Exact scalar arithmetic: partitions, arithmetic functions, q-polynomials.

Partitions are plain tuples of ints sorted nonincreasing.  All arithmetic
is exact (int / fractions.Fraction / QPoly), never floating point.
"""
from fractions import Fraction
from math import comb


# ---------------------------------------------------------------------------
# partitions

def partitions_of(n, max_part=None):
    """Yield partitions of n in descending lex order: (n), ..., (1,..,1)."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def partitions_up_to(n):
    """All partitions of 0..n, graded by size then descending lex."""
    for d in range(n + 1):
        yield from partitions_of(d)


def partition_sort_key(lam):
    """Sort key giving graded order, descending lex within each degree."""
    return (sum(lam), tuple(-p for p in lam))


def multiplicities(lam):
    """Part-value -> multiplicity map of a partition."""
    m = {}
    for p in lam:
        m[p] = m.get(p, 0) + 1
    return m


def family_sums(family, N, factor):
    """{lam: sum of w * prod_k factor(v[k], m_k(lam))} over the (v, w) pairs
    of a signed family, for every partition lam with |lam| <= N, without
    the zero sums.  Each v is a tuple indexed by part size, v[0] unused.

    One depth-first walk goes down the parts N, ..., 1 and shares
    every prefix.  A branch holds each vector, cut to the parts still to
    come, with its partial product; vectors that the cut makes equal are
    merged, and a vector leaves the branch once its product is 0.  This
    needs factor(x, 0) = 1, and factor(x, m) = 0 to imply
    factor(x, m + 1) = 0, as for pow and binomial."""
    out = {}

    def walk(lam, room, k, pairs):
        k, terms = min(k, room), {}
        for v, w in pairs:
            terms[v[:k + 1]] = terms.get(v[:k + 1], 0) + w
        if k == 0:
            out[lam] = sum(terms.values())
            return
        walk(lam, room, k - 1, [(v, w) for v, w in terms.items() if w])
        for m in range(1, room // k + 1):
            below = [(v, w * factor(v[k], m)) for v, w in terms.items()]
            if not (terms := {v: terms[v] for v, p in below if p}):
                return
            walk(lam + (k,) * m, room - k * m, k - 1, below)

    walk((), N, N, family)
    return {lam: s for lam, s in out.items() if s}


def z_lambda(lam):
    """Order of the centralizer of a permutation of cycle type lam."""
    z = 1
    for value, count in multiplicities(lam).items():
        z *= value ** count
        for i in range(1, count + 1):
            z *= i
    return z


# ---------------------------------------------------------------------------
# arithmetic functions

def divisors(n):
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def mobius(n):
    if n < 1:
        raise ValueError("mobius undefined for n < 1")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if n > 1:
        result = -result
    return result


def mu_hat(n):
    """Dirichlet inverse of d -> (-1)**(d+1).

    Equals mobius(n) for odd n; for n = 2**j * m with m odd and j >= 1 it
    equals 2**(j-1) * mobius(m).
    """
    if n < 1:
        raise ValueError("mu_hat undefined for n < 1")
    j = 0
    while n % 2 == 0:
        n //= 2
        j += 1
    if j == 0:
        return mobius(n)
    return (1 << (j - 1)) * mobius(n)


def binomial(n, k):
    """C(n, k) for any integer n: for n = -m < 0 it is the coefficient of
    x^k in (1 + x)^(-m), (-1)^k C(m + k - 1, k)."""
    if n < 0:
        return (-1) ** k * comb(k - n - 1, k)
    return comb(n, k)


# ---------------------------------------------------------------------------
# q-polynomials

def norm_scalar(x):
    """x, with an integral Fraction turned into an int.  The test is on the
    type: isinstance against Fraction goes through the ABC machinery, which
    is slow on the many ints that pass through here."""
    if type(x) is Fraction and x.denominator == 1:
        return int(x)
    return x


def scalar_div(x, d):
    """x / d for an int d != 0 and x an int, Fraction or QPoly (divided
    coefficientwise), giving an int wherever the quotient is integral."""
    if isinstance(x, QPoly):
        return QPoly(tuple(scalar_div(y, d) for y in x.c))
    if isinstance(x, int) and x % d == 0:
        return x // d
    return norm_scalar(Fraction(x, d))


class QPoly:
    """Polynomial in q with exact (int or Fraction) coefficients.

    Immutable; coefficients stored low degree first with no trailing zeros.
    Supports + and * against QPoly and plain scalars, negation, evaluation,
    and exact division (raises if the division does not come out even).
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, (int, Fraction)):
            coeffs = (coeffs,)
        c = [norm_scalar(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "c", tuple(c))

    def __setattr__(self, *a):
        raise AttributeError("QPoly is immutable")

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, QPoly):
            return self.c == other.c
        if isinstance(other, (int, Fraction)):
            return self.c == QPoly(other).c
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return QPoly(tuple(-x for x in self.c))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return QPoly()
            return QPoly(tuple(x * other for x in self.c))
        if not isinstance(other, QPoly):
            return NotImplemented
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, x in enumerate(self.c):
            if x:
                for j, y in enumerate(other.c):
                    out[i + j] += x * y
        return QPoly(out)

    __rmul__ = __mul__

    def __call__(self, value):
        acc = 0
        for x in reversed(self.c):
            acc = acc * value + x
        return norm_scalar(acc)

    def divexact(self, other):
        """Exact division by a nonzero QPoly; raises ValueError on a nonzero
        remainder."""
        rem = list(self.c)
        d = other.c
        quot = [0] * (len(rem) - len(d) + 1)
        lead = d[-1]
        for i in range(len(quot) - 1, -1, -1):
            coef = Fraction(rem[i + len(d) - 1]) / lead
            quot[i] = coef
            for j, y in enumerate(d):
                rem[i + j] -= coef * y
        if any(rem):
            raise ValueError(f"inexact QPoly division: {self!r} by {other!r}")
        return QPoly(quot)

    def __repr__(self):
        if not self.c:
            return "QPoly(0)"
        terms = []
        for i, x in enumerate(self.c):
            if not x:
                continue
            if i == 0:
                terms.append(str(x))
            elif i == 1:
                terms.append(f"{x}*q" if x != 1 else "q")
            else:
                terms.append(f"{x}*q^{i}" if x != 1 else f"q^{i}")
        return "QPoly(" + " + ".join(terms) + ")"


def q_int(n):
    """[n]_q = 1 + q + ... + q^(n-1)."""
    return QPoly((1,) * n)


def q_factorial(alpha):
    """[alpha]_q! = product over parts a of [1]_q [2]_q ... [a]_q."""
    acc = QPoly(1)
    for a in alpha:
        for j in range(1, a + 1):
            acc = acc * q_int(j)
    return acc

