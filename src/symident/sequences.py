"""Higher-order Fibonacci and Lucas sequences with their companion
characteristic coefficients, each computed by several independent routes
(closed-form sums, linear recurrence, exact root-of-unity evaluation,
determinants, generating functions, partition sums) that are cross-checked
against one another.  The closed values of e_n, h_n and p_n at the doubled
roots of unity, which the inversion checks, the binomial displays and the
roots checks compare against, are written once here.

Indexing conventions, fixed once (F and L are both HigherSequence values,
which hold where their storage starts):

* F[1] = 1 and F[2-r] = ... = F[0] = 0 seed the order-r recurrence, so F is
  stored for n >= 2-r (n >= 1 when r = 1).  The r = 2 slice is the classical
  Fibonacci sequence.
* L[0] = r; L is stored for n >= 0.  The r = 2 slice is the classical Lucas
  sequence.
* in the Jacobi-Trudi style determinant identities any F index below 1 is
  read as 0, the usual convention for complete polynomials of negative
  degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .combinat import ballot, binom, centralizer_order, expansion_kernel, partitions_of
from .cyclotomic import _is_prime, discriminant_square, doubled_roots_vector, shifted_roots_vector
from .exactalg import Series, det_cofactor, det_fraction_free, first_row_cofactors
from .identities import CheckReport, _report
from .symfun import complete_prefix, elementary_prefix, power_prefix


# ---------------------------------------------------------------------------
# recurrence route


def recurrence_coefficients(r: int) -> list:
    """Coefficients (c_1, ..., c_r) with a[n+r] = sum_i c_i a[n+r-i]."""
    if r < 1:
        raise ValueError("need r >= 1")
    coeffs = [0] * r
    for j in range((r - 1) // 2 + 1):
        coeffs[2 * j] += (-1) ** j * binom(r - 1 - j, j)
    for j in range((r - 2) // 2 + 1):
        coeffs[2 * j + 1] += (-1) ** j * binom(r - 1 - j, j + 1)
    return coeffs


class HigherSequence:
    """Order-r Fibonacci or Lucas values, stored for n >= start."""

    __slots__ = ("r", "start", "values")

    def __init__(self, r: int, start: int, values: list):
        self.r = r
        self.start = start
        self.values = values

    def __getitem__(self, n: int) -> int:
        i = n - self.start
        if i < 0 or i >= len(self.values):
            raise KeyError("index %d not stored for r=%d" % (n, self.r))
        return self.values[i]

    def jt(self, n: int) -> int:
        """Value with indices below 1 read as 0 (determinant convention)."""
        return self[n] if n >= 1 else 0


def _extend(seed: list, coeffs: list, upto: int):
    r = len(coeffs)
    vals = list(seed)
    while len(vals) < upto:
        vals.append(sum(c * v for c, v in zip(coeffs, reversed(vals[-r:]))))
    return vals


def fib_recurrence(r: int, n_max: int) -> HigherSequence:
    """F values for n <= n_max from the initial block and the recurrence."""
    coeffs = recurrence_coefficients(r)
    start = 1 if r == 1 else 2 - r
    seed = [0] * (1 - start) + [1]
    return HigherSequence(r, start, _extend(seed, coeffs, n_max - start + 1))


def lucas_initial(r: int, n: int) -> int:
    """Small-index closed form: -2^(2m-1) + (2r+1)/2 binom(2m, m) at n = 2m
    and 4^m at n = 2m+1; exact within its validity windows."""
    if n % 2 == 0:
        m = n // 2
        val = -(Fraction(2) ** (2 * m - 1)) + Fraction(2 * r + 1, 2) * binom(2 * m, m)
        if val.denominator != 1:
            raise ValueError("non-integer initial Lucas value")
        return int(val)
    return 4 ** (n // 2)


def lucas_recurrence(r: int, n_max: int) -> HigherSequence:
    """L values for n <= n_max from the initial block and the recurrence."""
    coeffs = recurrence_coefficients(r)
    seed = [lucas_initial(r, n) for n in range(r)]
    return HigherSequence(r, 0, _extend(seed, coeffs, n_max + 1))


# ---------------------------------------------------------------------------
# closed-form route


def _sign_pow(e: int) -> int:
    return -1 if e % 2 else 1


def _fib_halved_form(r: int, n: int) -> int:
    p = 2 * r + 1
    total = Fraction(0)
    for k in range((n - 1) // 2 + 1):
        w = Fraction(_sign_pow((n - 1 - 2 * k) // p) - _sign_pow((n - 2 * k - 3) // p), 2)
        if w:
            total += w * ballot(n + r - 2, k)
    if total.denominator != 1:
        raise ValueError("non-integer value from the half-difference form")
    return int(total)


def _fib_alternating_form(r: int, n: int) -> int:
    p = 2 * r + 1
    total = 0
    for k in range((n - 1) // p + 1):
        term = ballot(n + r - 2, (n - 1 - p * k) // 2)
        total += term if k % 2 == 0 else -term
    return total


def fib_explicit(r: int, n: int) -> int:
    """F_n by the two closed-form ballot sums; they must agree."""
    if r < 1 or n < 1:
        raise ValueError("need r >= 1 and n >= 1")
    a = _fib_halved_form(r, n)
    b = _fib_alternating_form(r, n)
    if a != b:
        raise ArithmeticError(
            "closed forms disagree at r=%d n=%d: %d vs %d" % (r, n, a, b))
    return a


def _lucas_delta_form(r: int, n: int) -> int:
    p = 2 * r + 1
    s = sum(binom(n, k) for k in range(n + 1) if (n - 2 * k) % p == 0)
    total = Fraction(_sign_pow(n + 1), 1) * Fraction(2 ** n, 2) \
        + Fraction(_sign_pow(n) * p, 2) * s
    if total.denominator != 1:
        raise ValueError("non-integer value from the delta form")
    return int(total)


def _lucas_case_sum(r: int, n: int) -> Fraction:
    """L_n by the even/odd case sum, a Fraction not checked to be an integer."""
    p = 2 * r + 1
    m = n // 2
    if n % 2 == 0:
        s = sum(binom(2 * m, m - p * k) for k in range(-(m // p), m // p + 1))
        return -(Fraction(2) ** (2 * m - 1)) + Fraction(p, 2) * s
    s = sum(binom(2 * m + 1, m - p * k - r)
            for k in range(-((m + r + 1) // p), (m - r) // p + 1))
    return Fraction(4 ** m) - Fraction(p, 2) * s


def lucas_explicit(r: int, n: int) -> int:
    """L_n by the divisibility-indicator sum and the even/odd case sum;
    they must agree."""
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    a = _lucas_delta_form(r, n)
    b = _lucas_case_sum(r, n)
    if b.denominator != 1:
        raise ValueError("non-integer value from the case form")
    if a != b:
        raise ArithmeticError(
            "closed forms disagree at r=%d n=%d: %d vs %d" % (r, n, a, b))
    return a


# ---------------------------------------------------------------------------
# characteristic coefficients


class CharCoeffs:
    """Coefficients of the degree-r characteristic polynomial of the
    recurrence; zero outside 0..r."""

    __slots__ = ("r", "values")

    def __init__(self, r: int, values: list):
        self.r = r
        self.values = list(values)

    def __getitem__(self, n: int) -> int:
        if 0 <= n <= self.r:
            return self.values[n]
        return 0

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        return isinstance(other, CharCoeffs) and (self.r, self.values) == (other.r, other.values)

    def __repr__(self):
        return "CharCoeffs(r=%d, %r)" % (self.r, self.values)


def char_coeffs(r: int) -> CharCoeffs:
    """(-1)^floor(n/2) binom(r - floor((n+1)/2), floor(n/2)) for n = 0..r,
    cross-checked against the exact elementary values of the shifted roots
    and against the telescoping ballot sum."""
    if r < 1:
        raise ValueError("need r >= 1")
    closed = [_sign_pow(n // 2) * binom(r - (n + 1) // 2, n // 2) for n in range(r + 1)]
    ballot_sum = [sum(c for _, c in expansion_kernel("first", "e", r, n)) for n in range(r + 1)]
    if closed != ballot_sum:
        raise ArithmeticError("ballot sum disagrees with the closed form at r=%d" % r)
    cyc = elementary_prefix(r, shifted_roots_vector(r))
    for n, (c, e) in enumerate(zip(closed, cyc)):
        if e != c:
            raise ArithmeticError("root-of-unity value disagrees with the closed form "
                                  "at r=%d n=%d" % (r, n))
    return CharCoeffs(r, closed)


def char_coeffs_check(r: int) -> CheckReport:
    """char_coeffs(r): a disagreement between its three routes fails."""
    try:
        char_coeffs(r)
        failures = []
    except ArithmeticError as exc:
        failures = [str(exc)]
    return _report("roots_char_coeffs", {"r": r}, failures)


def discriminant_check(r: int) -> CheckReport:
    """The squared Vandermonde determinant of the shifted roots (lhs)
    against (2r+1)^(r-1) (rhs), for 2r + 1 prime."""
    square, want = discriminant_square(r), (2 * r + 1) ** (r - 1)
    failures = [] if square == want else ["r=%d: lhs=%r rhs=%d" % (r, square, want)]
    return _report("discriminant_square", {"r": r}, failures)


# ---------------------------------------------------------------------------
# values at the doubled roots, and the inversion checks


def _doubled_roots_e(r: int, n: int) -> int:
    """e_n of the doubled roots: 1 up to n = 2r, then 0."""
    return 1 if n <= 2 * r else 0


def _doubled_roots_h(r: int, n: int) -> int:
    """h_n of the doubled roots: the four-case pattern mod 4r+2, 1 at
    residues 0 and 1, -1 at 2r+1 and 2r+2, else 0."""
    m = n % (4 * r + 2)
    return 1 if m in (0, 1) else (-1 if m in (2 * r + 1, 2 * r + 2) else 0)


def _doubled_roots_p(r: int, n: int) -> int:
    """p_n of the doubled roots, (-1)^n (-1 + (2r+1) [2r+1 divides n])."""
    return _sign_pow(n) * (-1 + (2 * r + 1) * (1 if n % (2 * r + 1) == 0 else 0))


def roots_check(family: str, r: int) -> CheckReport:
    """f_n of the doubled roots against its closed value, reported as
    roots_<family>: e_n for n <= 2r + 4, h_n and p_n up to n = 6(2r + 1)."""
    if family not in ("e", "h", "p") or r < 1:
        raise ValueError("need family e, h or p and r >= 1")
    doubled = doubled_roots_vector(r)
    top = 2 * r + 4 if family == "e" else 6 * (2 * r + 1)
    if family == "p":
        values = enumerate(power_prefix(top, doubled), 1)
    else:
        values = enumerate((elementary_prefix if family == "e" else complete_prefix)(top, doubled))
    closed = {"e": _doubled_roots_e, "h": _doubled_roots_h, "p": _doubled_roots_p}[family]
    failures = ["%s n=%d" % (family, n) for n, value in values if value != closed(r, n)]
    return _report("roots_" + family, {"r": r} if family == "e" else {"r": r, "n_max": top},
                   failures)


def inversion_check_F(r: int, n: int, F: HigherSequence = None) -> CheckReport:
    """The second-kind h kernel over F, sum_k (-1)^k binom(n-k+r-1, k)
    F_(n-2k+1), against h_n of the doubled roots.  F, if given, is
    fib_recurrence(r, top) for some top >= n + 1, shared across a row."""
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    F = fib_recurrence(r, n + 1) if F is None else F
    total = sum(c * F[i + 1] for i, c in expansion_kernel("second", "h", r, n))
    expected = _doubled_roots_h(r, n)
    failures = [] if total == expected else ["n=%d: sum=%d expected=%d" % (n, total, expected)]
    return _report("inversion_F", {"r": r, "n": n}, failures)


def inversion_check_L(r: int, n: int, L: HigherSequence = None) -> CheckReport:
    """The second-kind p kernel over L, 2 sum_k binom(2k-n-1, k) L_(n-2k) -
    sum_k binom(2k-n, k) L_(n-2k), against p_n of the doubled roots.  L, if
    given, is lucas_recurrence(r, top) for some top >= n, shared across a
    row."""
    if r < 1 or n < 1:
        raise ValueError("need r >= 1 and n >= 1")
    L = lucas_recurrence(r, n) if L is None else L
    total = sum(c * L[i] for i, c in expansion_kernel("second", "p", r, n))
    expected = _doubled_roots_p(r, n)
    failures = [] if total == expected else ["n=%d: sum=%d expected=%d" % (n, total, expected)]
    return _report("inversion_L", {"r": r, "n": n}, failures)


# ---------------------------------------------------------------------------
# small-index closed forms


def initial_block_check(r: int) -> CheckReport:
    """The small-index closed forms against recurrence values over their
    stated windows: F_(2m) and F_(2m-1) of order r+1 for m <= r, even Lucas
    for m < 2r+1, odd Lucas for m < r."""
    if r < 1:
        raise ValueError("need r >= 1")
    failures = []
    F = fib_recurrence(r, 2 * r + 1)
    F1 = fib_recurrence(r + 1, 2 * r + 1)
    for m in range(1, r + 1):
        want = binom(2 * m + r - 2, m - 1) - binom(2 * m + r - 2, m - 2)
        if F[2 * m] != want:
            failures.append("F[%d] r=%d: %d vs %d" % (2 * m, r, F[2 * m], want))
        if F1[2 * m - 1] != want:
            failures.append("F[%d] r=%d: %d vs %d" % (2 * m - 1, r + 1, F1[2 * m - 1], want))
    L = lucas_recurrence(r, 4 * r + 2)
    for m in range(2 * r + 1):
        want = lucas_initial(r, 2 * m)
        if L[2 * m] != want:
            failures.append("L[%d]: %d vs %d" % (2 * m, L[2 * m], want))
    for m in range(r):
        if L[2 * m + 1] != 4 ** m:
            failures.append("L[%d]: %d vs %d" % (2 * m + 1, L[2 * m + 1], 4 ** m))
    return _report("initial_block", {"r": r}, failures)


# ---------------------------------------------------------------------------
# specialized binomial-sum identities


def fibonacci_sums_check(bound: int) -> CheckReport:
    """The four Fibonacci-flavoured binomial displays:

    1. both order-1 ballot sums are constantly 1;
    2. the order-2 ballot sums give F_(m+1) (half-difference kernel) and
       F_n (alternating kernel);
    3. sum_k (-1)^k binom(n-k, k) follows the residue pattern mod 6;
    4. sum_k (-1)^k binom(n-k+1, k) F_(n-2k+1) follows the pattern mod 10;

    (3) and (4) are the second-kind h kernel at r = 1 and r = 2 over F,
    against h_n of the doubled roots.
    """
    if bound < 1:
        raise ValueError("need bound >= 1")
    failures = []
    F = fib_recurrence(2, bound + 2)

    for m in range(bound + 1):
        if _fib_halved_form(1, m + 1) != 1:
            failures.append("(1) half form m=%d" % m)
        if _fib_halved_form(2, m + 1) != F[m + 1]:
            failures.append("(2) half form m=%d" % m)
    for n in range(1, bound + 1):
        if _fib_alternating_form(1, n) != 1:
            failures.append("(1) alternating form n=%d" % n)
        if _fib_alternating_form(2, n) != F[n]:
            failures.append("(2) alternating form n=%d" % n)

    for n in range(bound + 1):
        total = sum(c for _, c in expansion_kernel("second", "h", 1, n))
        if total != _doubled_roots_h(1, n):
            failures.append("(3) n=%d: %d vs %d" % (n, total, _doubled_roots_h(1, n)))

    for n in range(bound + 1):
        total = sum(c * F[i + 1] for i, c in expansion_kernel("second", "h", 2, n))
        if total != _doubled_roots_h(2, n):
            failures.append("(4) n=%d: %d vs %d" % (n, total, _doubled_roots_h(2, n)))

    return _report("fibonacci_sums", {"bound": bound}, failures)


def lucas_sums_check(bound: int) -> CheckReport:
    """The six Lucas-flavoured binomial displays: the even/odd case sum of
    L_n at r = 1, where L is constantly 1 (the odd one also folded to its
    k >= 0 half), and at r = 2 against the classical Lucas numbers; and
    the two inversion patterns mod 3 and mod 5 (the second-kind p kernel
    at r = 1 and r = 2 over L, against p_n of the doubled roots)."""
    if bound < 1:
        raise ValueError("need bound >= 1")
    failures = []
    L = lucas_recurrence(2, 2 * bound + 1)

    for m in range(bound + 1):
        if _lucas_case_sum(1, 2 * m) != 1:
            failures.append("(1) m=%d" % m)
        half = 3 * sum(binom(2 * m + 1, m - 3 * k - 1) for k in range((m - 1) // 3 + 1))
        if _lucas_case_sum(1, 2 * m + 1) != 1 or 4 ** m - half != 1:
            failures.append("(2) m=%d" % m)
        if _lucas_case_sum(2, 2 * m) != L[2 * m]:
            failures.append("(3) m=%d" % m)
        if _lucas_case_sum(2, 2 * m + 1) != L[2 * m + 1]:
            failures.append("(4) m=%d" % m)

    for n in range(1, bound + 1):
        total = sum(c for _, c in expansion_kernel("second", "p", 1, n))
        if total != _doubled_roots_p(1, n):
            failures.append("(5) n=%d: %d vs %d" % (n, total, _doubled_roots_p(1, n)))
        total = sum(c * L[i] for i, c in expansion_kernel("second", "p", 2, n))
        if total != _doubled_roots_p(2, n):
            failures.append("(6) n=%d: %d vs %d" % (n, total, _doubled_roots_p(2, n)))

    return _report("lucas_sums", {"bound": bound}, failures)


# ---------------------------------------------------------------------------
# congruences


def congruence_check(r: int, q: int, n_max: int, k_max: int = 3) -> CheckReport:
    """Period q-1 of F and L mod q, for 2r+1 prime and q an odd prime
    congruent to +-1 mod 2r+1, plus the residues at multiples of q-1:
    F = 0 then 1, 1 and L = (p-1)/2 then 1 then p-2."""
    p = 2 * r + 1
    if not _is_prime(p):
        raise ValueError("hypothesis failed: 2r+1 = %d is not prime" % p)
    if q == 2 or not _is_prime(q):
        raise ValueError("hypothesis failed: q = %d is not an odd prime" % q)
    if q % p not in (1, p - 1):
        raise ValueError("hypothesis failed: q = %d is not +-1 mod %d" % (q, p))
    top = max(n_max + q - 1, k_max * (q - 1) + 2)
    F = fib_recurrence(r, top + 1)
    L = lucas_recurrence(r, top + 1)
    failures = []
    for n in range(1, n_max + 1):
        if (F[n + q - 1] - F[n]) % q:
            failures.append("F period at n=%d" % n)
        if (L[n + q - 1] - L[n]) % q:
            failures.append("L period at n=%d" % n)
    for k in range(k_max + 1):
        i = k * (q - 1)
        if r >= 2 or i >= 1:
            if F[i] % q != 0:
                failures.append("F[%d] != 0 mod %d" % (i, q))
        if F[i + 1] % q != 1 or F[i + 2] % q != 1:
            failures.append("F[%d+1,2] != 1 mod %d" % (i, q))
        if L[i] % q != (p - 1) // 2 % q:
            failures.append("L[%d] != (p-1)/2 mod %d" % (i, q))
        if L[i + 1] % q != 1 % q:
            failures.append("L[%d+1] != 1 mod %d" % (i, q))
        if L[i + 2] % q != (p - 2) % q:
            failures.append("L[%d+2] != p-2 mod %d" % (i, q))
    return _report("congruence", {"r": r, "q": q, "n_max": n_max}, failures)


# ---------------------------------------------------------------------------
# determinant identities


def determinant_formulas_check(r: int, n_max: int) -> CheckReport:
    """The six Jacobi-Trudi style determinant identities linking F, L and
    the characteristic coefficients, plus the bialternant form of F checked
    in cleared shape (no division) over the cyclotomic integers, each
    numerator its top row dot one row-0 cofactor vector built once per r."""
    if r < 1 or n_max < 1:
        raise ValueError("need r >= 1 and n_max >= 1")
    failures = []
    try:
        C = char_coeffs(r)
    except ArithmeticError as exc:
        return _report("determinant_formulas", {"r": r, "n_max": n_max}, [str(exc)])
    F = fib_recurrence(r, n_max + 2)
    L = lucas_recurrence(r, n_max + 1)

    for n in range(1, n_max + 1):
        # F as a Toeplitz determinant in C
        m = [[C[1 - i + j] for j in range(n)] for i in range(n)]
        if det_fraction_free(m) != F[n + 1]:
            failures.append("F-from-C n=%d" % n)
        # F as a Hessenberg determinant in L with 1/n! cleared
        m = [[L[i - j + 1] if j <= i else (-(j) if j == i + 1 else 0)
              for j in range(n)] for i in range(n)]
        val = det_fraction_free(m)
        if val != F[n + 1] * math.factorial(n):
            failures.append("F-from-L n=%d" % n)
        # L as a Hessenberg determinant in C
        m = [[(C[i - j + 1] * (i + 1 if j == 0 else 1)) if j <= i
              else (1 if j == i + 1 else 0) for j in range(n)] for i in range(n)]
        if det_fraction_free(m) != L[n]:
            failures.append("L-from-C n=%d" % n)
        # L as a signed Hessenberg determinant in F
        m = [[(F.jt(i - j + 2) * (i + 1 if j == 0 else 1)) if j <= i
              else (F.jt(1) if j == i + 1 else 0) for j in range(n)] for i in range(n)]
        if _sign_pow(n - 1) * det_fraction_free(m) != L[n]:
            failures.append("L-from-F n=%d" % n)
        # C as a Toeplitz determinant in F
        m = [[F.jt(2 - i + j) for j in range(n)] for i in range(n)]
        if det_fraction_free(m) != C[n]:
            failures.append("C-from-F n=%d" % n)
        # C as a Hessenberg determinant in L with 1/n! cleared
        m = [[L[i - j + 1] if j <= i else (j if j == i + 1 else 0)
              for j in range(n)] for i in range(n)]
        if det_fraction_free(m) != C[n] * math.factorial(n):
            failures.append("C-from-L n=%d" % n)

    # bialternant form over Z[x]/Phi: det(top row alpha^(n+r-1)) equals
    # F_(n+1) times the Vandermonde determinant of the shifted roots (vdm is
    # not taken from the cofactors, which would pass a zero cofactor vector)
    alphas = shifted_roots_vector(r).entries
    vdm_rows = [[a.field.one for a in alphas]]
    for _ in range(r - 1):
        vdm_rows = [[x * a for x, a in zip(vdm_rows[0], alphas)]] + vdm_rows
    vdm = det_cofactor(vdm_rows)
    below = first_row_cofactors(vdm_rows[1:])
    top = vdm_rows[0]
    for n in range(1, n_max + 1):
        top = [x * a for x, a in zip(top, alphas)]
        if det_cofactor([top] + vdm_rows[1:], below) != vdm * F[n + 1]:
            failures.append("bialternant n=%d" % n)

    return _report("determinant_formulas", {"r": r, "n_max": n_max}, failures)


# ---------------------------------------------------------------------------
# generating functions


def sequence_genfun_denominator(r: int, order: int) -> Series:
    """sum_m (-1)^m binom(r-m, m) u^(2m) - sum_m (-1)^m binom(r-1-m, m)
    u^(2m+1), the reciprocal of the F generating function."""
    coeffs = [0] * (order + 1)
    for m in range(r // 2 + 1):
        if 2 * m <= order:
            coeffs[2 * m] += _sign_pow(m) * binom(r - m, m)
    for m in range((r - 1) // 2 + 1):
        if 2 * m + 1 <= order:
            coeffs[2 * m + 1] -= _sign_pow(m) * binom(r - 1 - m, m)
    return Series(coeffs, order)


def sequence_genfun_numerator_L(r: int, order: int) -> Series:
    coeffs = [0] * (order + 1)
    for m in range((r - 1) // 2 + 1):
        if 2 * m <= order:
            coeffs[2 * m] += _sign_pow(m) * (2 * m + 1) * binom(r - 1 - m, m)
    for m in range(r // 2 + 1):
        if 1 <= 2 * m - 1 <= order:
            coeffs[2 * m - 1] -= _sign_pow(m) * 2 * m * binom(r - m, m)
    return Series(coeffs, order)


def sequence_genfun_check(r: int, order: int) -> CheckReport:
    """Series inverses of the closed-form denominators against recurrence
    values: coefficient u^n of 1/D is F_(n+1) and of N/D is L_(n+1).

    The u^0 coefficient of 1/D is 1, which pins the offset convention: the
    series enumerates F starting from F_1, not from the zero at F_0.
    """
    if r < 1 or order < 0:
        raise ValueError("need r >= 1 and order >= 0")
    D = sequence_genfun_denominator(r, order)
    inv = D.inverse()
    NL = sequence_genfun_numerator_L(r, order)
    F = fib_recurrence(r, order + 1)
    L = lucas_recurrence(r, order + 1)
    failures = []
    for n in range(order + 1):
        if inv[n] != F[n + 1]:
            failures.append("F coefficient u^%d: %s vs %d" % (n, inv[n], F[n + 1]))
    lh = NL * inv
    for n in range(order + 1):
        if lh[n] != L[n + 1]:
            failures.append("L coefficient u^%d: %s vs %d" % (n, lh[n], L[n + 1]))
    return _report("genfun_sequences", {"r": r, "order": order}, failures)


# ---------------------------------------------------------------------------
# partition sums


def partition_relations_check(r: int, n_max: int) -> CheckReport:
    """Newton-style relations through partitions of n:

    F_(n+1) = (1/n) sum_i L_i F_(n+1-i)
            = sum over partitions of n of prod L_part / centralizer order;
    C_n     = same sum carrying the sign (-1)^(n - number of parts).
    """
    if r < 1 or n_max < 1:
        raise ValueError("need r >= 1 and n_max >= 1")
    F = fib_recurrence(r, n_max + 1)
    L = lucas_recurrence(r, n_max)
    try:
        C = char_coeffs(r)
    except ArithmeticError as exc:
        return _report("partition_relations", {"r": r, "n_max": n_max}, [str(exc)])
    failures = []
    for n in range(1, n_max + 1):
        s = Fraction(sum(L[i] * F[n + 1 - i] for i in range(1, n + 1)), n)
        if s != F[n + 1]:
            failures.append("newton n=%d" % n)
        total = Fraction(0)
        signed = Fraction(0)
        for lam in partitions_of(n):
            prod = 1
            for part in lam:
                prod *= L[part]
            term = Fraction(prod, centralizer_order(lam))
            total += term
            signed += term if (n - len(lam)) % 2 == 0 else -term
        if total != F[n + 1]:
            failures.append("partition F n=%d" % n)
        if signed != C[n]:
            failures.append("partition C n=%d" % n)
    return _report("partition_relations", {"r": r, "n_max": n_max}, failures)


# ---------------------------------------------------------------------------
# cross-oracle aggregation


def cross_oracle_check(r: int, n_max: int, det_max: int = 10) -> CheckReport:
    """Route agreement for one r: closed forms, recurrence and cyclotomic
    evaluation for n <= n_max, determinants for n <= det_max, generating
    functions to order 30."""
    if r < 1 or n_max < 1:
        raise ValueError("need r >= 1 and n_max >= 1")
    failures = []
    F = fib_recurrence(r, n_max + 1)
    L = lucas_recurrence(r, n_max)
    # h_(n-1) and p_n of the shifted roots are F_n and L_n; a ring value is
    # compared with the int, so one that is not a rational integer fails
    roots = shifted_roots_vector(r)
    fib_cyc = complete_prefix(n_max - 1, roots)
    lucas_cyc = power_prefix(n_max, roots)
    for n in range(1, n_max + 1):
        if fib_cyc[n - 1] != F[n]:
            failures.append("F cyclotomic vs recurrence n=%d" % n)
        if lucas_cyc[n - 1] != L[n]:
            failures.append("L cyclotomic vs recurrence n=%d" % n)
    # a closed-form pair that disagrees ends its route as a failure
    for name, explicit, values, start in (("F", fib_explicit, F, 1), ("L", lucas_explicit, L, 0)):
        try:
            for n in range(start, n_max + 1):
                if explicit(r, n) != values[n]:
                    failures.append("%s explicit vs recurrence n=%d" % (name, n))
        except ArithmeticError as exc:
            failures.append(str(exc))
    det = determinant_formulas_check(r, det_max)
    if not det.passed:
        failures.append("determinants: %s" % det.counterexample)
    gf = sequence_genfun_check(r, 30)
    if not gf.passed:
        failures.append("generating functions: %s" % gf.counterexample)
    return _report("cross_oracle", {"r": r, "n_max": n_max}, failures)


# ---------------------------------------------------------------------------
# tables


@dataclass
class SeqTable:
    """Rectangular table of exact integers with labelled axes; a None cell
    renders blank."""

    kind: str
    row_label: str
    col_label: str
    rows: list
    cols: list
    values: dict  # (row, col) -> int | None

    def get(self, row, col):
        return self.values.get((row, col))

    def cells(self):
        for row in self.rows:
            for col in self.cols:
                yield row, col, self.values.get((row, col))


def table(kind: str, rows=None, cols=None) -> SeqTable:
    """Computed table for one of the three families.

    fib: rows r, columns n >= 1; lucas: rows r, columns n >= 0;
    cnk: rows n, columns k with blanks outside 0 <= 2k <= n.
    """
    if kind in ("fib", "lucas"):
        recurrence, low, high = ((fib_recurrence, 1, 12) if kind == "fib"
                                 else (lucas_recurrence, 0, 13))
        rows = list(rows) if rows is not None else list(range(1, 17))
        cols = list(cols) if cols is not None else list(range(low, high + 1))
        if min(cols) < low:
            raise ValueError("%s columns start at n = %d" % (kind, low))
        values = {}
        for r in rows:
            seq = recurrence(r, max(cols))
            for n in cols:
                values[(r, n)] = seq[n]
        return SeqTable(kind, "r", "n", rows, cols, values)
    if kind == "cnk":
        rows = list(rows) if rows is not None else list(range(0, 22))
        cols = list(cols) if cols is not None else list(range(0, 11))
        values = {}
        for n in rows:
            for k in cols:
                values[(n, k)] = ballot(n, k) if 0 <= 2 * k <= n else None
        return SeqTable("cnk", "n", "k", rows, cols, values)
    raise ValueError("kind must be fib, lucas or cnk")


_GOLDEN_FILES = {
    "cnk": "table1_cnk.tsv",
    "fib": "table2_fib.tsv",
    "lucas": "table3_lucas.tsv",
}


def golden_table(kind: str) -> SeqTable:
    """Embedded copy of the published table, typos and all."""
    name = _GOLDEN_FILES[kind]
    text = resources.files("symident.data").joinpath(name).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split("\t")
    row_label, col_label = header[0].split("/")
    cols = [int(c) for c in header[1:]]
    rows = []
    values = {}
    for ln in lines[1:]:
        parts = ln.split("\t")
        row = int(parts[0])
        rows.append(row)
        for col, cell in zip(cols, parts[1:]):
            if cell.strip():
                values[(row, col)] = int(cell)
            else:
                values[(row, col)] = None
        for col in cols[len(parts) - 1:]:
            values[(row, col)] = None
    return SeqTable(kind, row_label, col_label, rows, cols, values)


def known_typos() -> list:
    """(kind, row, col, printed, corrected, note) entries of the sidecar."""
    text = resources.files("symident.data").joinpath("known_typos.tsv").read_text()
    out = []
    for ln in text.splitlines():
        if not ln.strip() or ln.startswith("#"):
            continue
        kind, row, col, printed, corrected, note = ln.split("\t")
        out.append((kind, int(row), int(col), int(printed), int(corrected), note))
    return out


def compare_with_golden(kind: str) -> CheckReport:
    """Cell-by-cell comparison of the computed table against the embedded
    published one.  Cells listed in the typo sidecar must show exactly the
    documented disagreement; everything else must match."""
    gold = golden_table(kind)
    comp = table(kind, gold.rows, gold.cols)
    typos = {(row, col): (printed, corrected)
             for tk, row, col, printed, corrected, _ in known_typos() if tk == kind}
    failures = []
    for row, col, gval in gold.cells():
        cval = comp.get(row, col)
        if (row, col) in typos:
            printed, corrected = typos[(row, col)]
            if gval != printed:
                failures.append("typo cell (%d,%d) no longer prints %d" % (row, col, printed))
            if cval != corrected:
                failures.append("typo cell (%d,%d) computes %s, expected %d"
                                % (row, col, cval, corrected))
        elif cval != gval:
            failures.append("cell (%d,%d): computed %s, published %s" % (row, col, cval, gval))
    return _report("golden_table", {"kind": kind}, failures)
