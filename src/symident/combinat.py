"""Combinatorial coefficients and series.

Generalized binomials (negative upper index included), ballot coefficients,
the six transfer kernels of the expansion identities, raising factorials,
Gaussian q-binomials, integer partitions (plain tuples of parts) with their
centralizer orders, and the ballot-number generating series that drives the
expansion identities.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .exactalg import Series, UniLaurent, _series


def binom(n: int, k: int) -> int:
    """Binomial coefficient with arbitrary integer upper index.

    For k < 0 the value is 0; otherwise n(n-1)...(n-k+1)/k!, which is an
    exact integer for every integer n, negative ones included.
    """
    if k < 0:
        return 0
    if k == 0:
        return 1
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    num = 1
    for i in range(k):
        num *= n - i
    return num // math.factorial(k)


def ballot(n: int, k: int) -> int:
    """Ballot coefficient binom(n, k) - binom(n, k-1); k must be >= 0."""
    if k < 0:
        raise ValueError("ballot coefficient needs k >= 0")
    return binom(n, k) - binom(n, k - 1)


def expansion_kernel(direction: str, family: str, r: int, n: int) -> list:
    """The expansion of f_n between r shifted entries z_j + 1/z_j and the
    2r doubled entries (z_j, 1/z_j), as [(index, coefficient)].

    direction "first": f_n^(r)(z + z^-1) = sum c f_index^(2r)(z, z^-1);
    "second": f_n^(2r)(z, z^-1) = sum c f_index^(r)(z + z^-1); family is e,
    h or p.  The first-kind p kernel expands 2 p_n^(r), which keeps every
    coefficient an integer.  Index 0 of a p kernel stands for the degree-0
    power sum, the arity.  The e kernels stop at the arity (2r for first,
    r for second); zero coefficients are dropped.  Applied over another
    ring (q-Laurent polynomials, Z[zeta], integer sequences) a kernel gives
    the specialised identities.
    """
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    # coefficient of index n - 2k
    coeff = {
        ("first", "e"): lambda k: ballot(n - r - 1, k) if n - 2 * k <= 2 * r else 0,
        ("first", "h"): lambda k: ballot(n + r - 1, k),
        ("first", "p"): lambda k: binom(n, k) * (1 if 2 * k == n else 2),
        ("second", "e"): lambda k: binom(r - n + 2 * k, k) if n - 2 * k <= r else 0,
        ("second", "h"): lambda k: (-1) ** k * binom(n - k + r - 1, k),
        ("second", "p"): lambda k: 2 * binom(2 * k - n - 1, k) - binom(2 * k - n, k),
    }.get((direction, family))
    if coeff is None:
        raise ValueError("unknown kernel %r, %r" % (direction, family))
    if (direction, family, n) == ("second", "p", 0):
        return [(0, 2)]  # 1 + 1 = 2 (z + 1/z)^0; the merged sum gives 1 here
    pairs = [(n - 2 * k, coeff(k)) for k in range(n // 2 + 1)]
    return [(i, c) for i, c in pairs if c]


def raising_factorial(a, m: int) -> Fraction:
    """Rising product a(a+1)...(a+m-1); empty product 1 for m = 0."""
    if m < 0:
        raise ValueError("raising factorial needs m >= 0")
    a = Fraction(a)
    out = Fraction(1)
    for i in range(m):
        out *= a + i
    return out


@lru_cache(maxsize=None)
def _q_binom_cached(n: int, k: int) -> UniLaurent:
    if k < 0 or k > n:
        return UniLaurent.zero()
    if k == 0 or k == n:
        return UniLaurent.one()
    # q-Pascal: [n,k] = [n-1,k-1] + q^k [n-1,k]; stays in the polynomial ring
    return _q_binom_cached(n - 1, k - 1) + UniLaurent.monomial(1, k) * _q_binom_cached(n - 1, k)


def q_binom(n: int, k: int) -> UniLaurent:
    """Gaussian binomial coefficient as a polynomial in q.

    Zero when k < 0 or k > n; evaluating at q = 1 recovers binom(n, k).
    """
    if n < 0:
        raise ValueError("q-binomial needs n >= 0")
    return _q_binom_cached(n, k)


def ballot_series(alpha: int, order: int) -> Series:
    """Power series whose x^k coefficient is (alpha)_{2k} / (k! (alpha+1)_k).

    For integer alpha >= 1 that coefficient equals ballot(alpha + 2k - 1, k),
    and alpha = 1 gives the Catalan numbers; the whole family is the
    alpha-th power of the Catalan generating function.  A zero factor in the
    denominator product is a domain error.

    Each running denominator prod_(i <= k) i (alpha+i) divides the last one,
    D, so the coefficients go over D as integer numerators, N_0 = D and
    N_k = N_(k-1) (alpha+2k-2)(alpha+2k-1) / (k (alpha+k)), an exact
    division by a small int; the series is reduced once.
    """
    if 0 < -alpha <= order:
        raise ValueError("zero denominator at x^%d for alpha=%d" % (-alpha, alpha))
    den = math.prod(k * (alpha + k) for k in range(1, order + 1))
    nums = [den]
    for k in range(1, order + 1):
        nums.append(nums[-1] * ((alpha + 2 * k - 2) * (alpha + 2 * k - 1)) // (k * (alpha + k)))
    return _series(nums, den, order)


def partitions_of(n: int):
    """All partitions of n, each a weakly decreasing tuple of positive
    parts, reverse lexicographically (largest first part first)."""
    if n < 0:
        raise ValueError("partitions_of needs n >= 0")
    out = []

    def rec(remaining, cap, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for p in range(min(cap, remaining), 0, -1):
            rec(remaining - p, p, acc + [p])

    rec(n, n, [])
    return out


def centralizer_order(lam) -> int:
    """Product over part sizes i of i^m_i * m_i!, where m_i counts parts of
    size i.  This is the order of the centralizer of a permutation with
    cycle type lam, and the normalizing factor of power-sum expansions.
    """
    out = 1
    for i, m in Counter(lam).items():
        out *= i ** m * math.factorial(m)
    return out
