"""Independent brute-force oracles used to derive expected values.

Everything here enumerates definitions directly (combinations, orbit sums,
tableaux, permutations) and never calls the library code paths it is used
to check.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations


def brute_elementary(n, values):
    if n == 0:
        return Fraction(1)
    if n < 0 or n > len(values):
        return Fraction(0)
    total = Fraction(0)
    for combo in combinations(values, n):
        prod = Fraction(1)
        for x in combo:
            prod *= x
        total += prod
    return total


def brute_complete(n, values):
    if n == 0:
        return Fraction(1)
    if n < 0:
        raise ValueError("brute oracle only covers n >= 0")
    total = Fraction(0)
    for combo in combinations_with_replacement(values, n):
        prod = Fraction(1)
        for x in combo:
            prod *= x
        total += prod
    return total


def brute_power(n, values):
    return sum((Fraction(x) ** n for x in values), Fraction(0))


def brute_monomial(parts, values):
    r = len(values)
    exps = tuple(parts) + (0,) * (r - len(parts))
    total = Fraction(0)
    for perm in set(permutations(exps)):
        prod = Fraction(1)
        for x, e in zip(values, perm):
            prod *= Fraction(x) ** e
        total += prod
    return total


def count_standard_tableaux_two_rows(a, b):
    """Standard Young tableaux of shape (a, b) counted by backtracking;
    this is the Kostka number for content (1, 1, ..., 1)."""
    if b > a:
        return 0
    n = a + b
    count = 0

    def place(k, top, bottom):
        nonlocal count
        if k > n:
            count += 1
            return
        if len(top) < a:
            place(k + 1, top + [k], bottom)
        if len(bottom) < b and len(bottom) < len(top):
            place(k + 1, top, bottom + [k])

    place(1, [], [])
    return count


def brute_partitions(n, max_parts):
    """Partitions of n with at most max_parts parts, by filtering weakly
    decreasing tuples; returns a set of tuples."""
    out = set()

    def rec(remaining, cap, acc):
        if remaining == 0:
            out.add(tuple(acc))
            return
        if len(acc) == max_parts:
            return
        for p in range(1, min(cap, remaining) + 1):
            rec(remaining - p, p, acc + [p])

    rec(n, n if n else 1, [])
    if n == 0:
        out.add(())
    return out


def cycle_type_of(perm):
    """Cycle type of a permutation given as a tuple of images of 0..n-1."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        lengths.append(ln)
    return tuple(sorted(lengths, reverse=True))


def permutation_count_by_cycle_type(n):
    """Map cycle type -> number of permutations of S_n with that type."""
    out = {}
    for perm in permutations(range(n)):
        t = cycle_type_of(perm)
        out[t] = out.get(t, 0) + 1
    return out


def det_permutation_expansion(rows):
    """Determinant by the Leibniz sum over permutations."""
    n = len(rows)
    total = None
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if perm[i] > perm[j])
        prod = rows[0][perm[0]]
        for i in range(1, n):
            prod = prod * rows[i][perm[i]]
        if inv % 2:
            prod = -prod
        total = prod if total is None else total + prod
    return total


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod_monic(num, den):
    """Quotient and remainder of integer polynomials (ascending coefficient
    lists) by a monic divisor, by schoolbook long division."""
    rem = list(num)
    quot = [0] * max(len(num) - len(den) + 1, 1)
    for top in range(len(rem) - 1, len(den) - 2, -1):
        c = rem[top]
        if c:
            shift = top - len(den) + 1
            quot[shift] = c
            for j, d in enumerate(den):
                rem[shift + j] -= c * d
    return quot, rem[:len(den) - 1]


def brute_cyclotomic_poly(m):
    """Phi_m as x^m - 1 divided by Phi_d for every proper divisor d of m."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod_monic(num, brute_cyclotomic_poly(d))
            assert not any(rem)
    return num


def brute_cyclotomic_mul(m, a, b):
    """Coordinates of a * b in Z[x]/Phi_m: the full convolution, then its
    remainder by Phi_m."""
    phi = brute_cyclotomic_poly(m)
    _, rem = _poly_divmod_monic(_poly_mul(list(a), list(b)), phi)
    return rem + [0] * (len(phi) - 1 - len(rem))


def brute_series_mul(a, b, order):
    """Coefficients 0..order of the product of two coefficient lists, by the
    schoolbook Fraction convolution."""
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= order:
                out[i + j] += Fraction(x) * Fraction(y)
    return out


def brute_series_compose(outer, inner, order):
    """sum_j outer[j] * inner^j truncated at x^order, powers by repeated
    schoolbook multiplication."""
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for c in outer[: order + 1]:
        out = [o + Fraction(c) * p for o, p in zip(out, power)]
        power = brute_series_mul(power, inner, order)
    return out


def brute_ballot_coefficient(alpha, k):
    """(alpha)_(2k) / (k! (alpha+1)_k) from the three products themselves."""
    num = den = Fraction(1)
    for i in range(2 * k):
        num *= alpha + i
    for i in range(k):
        den *= (i + 1) * (alpha + 1 + i)
    return num / den
