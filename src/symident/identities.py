"""Verifiers for the expansion identities between the symmetric polynomials
of r variables evaluated at z + z^-1 and those of 2r variables evaluated at
(z, z^-1), plus their principal q-specializations.

Every verifier runs in one of two modes:

* symbolic - both sides are built as Laurent polynomials in z_1..z_r and
  compared structurally, which is a proof for the given (r, index);
* random - both sides are evaluated at reproducibly drawn rational points
  (pairwise distinct, nonzero), which is a strong randomized check for
  parameter ranges where the symbolic expansion would be too large.  Each
  point is drawn as a reduced pair of ints and every entry is scaled by
  one common denominator, so both sides are compared as integers.

A failed check never raises; it comes back as a CheckReport carrying a
counterexample, so suite runners can aggregate and render outcomes.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .combinat import binom, expansion_kernel, q_binom
from .exactalg import UniLaurent
from .symfun import (PointVector, complete, complete_prefix, elementary,
                     elementary_prefix, power, power_prefix, symbolic_vectors)


@dataclass(frozen=True)
class VerifyMode:
    """How a check evaluates its two sides.

    Symbolic mode ignores trials and seed; random mode draws its points
    reproducibly from the seed (plus the check id, so distinct checks use
    independent streams).
    """

    mode: str = "symbolic"
    trials: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("symbolic", "random"):
            raise ValueError("mode must be 'symbolic' or 'random'")
        if self.mode == "random" and self.trials < 1:
            raise ValueError("random mode needs at least one trial")


@dataclass
class CheckReport:
    check: str
    params: dict
    status: str  # "pass" | "fail" | "error"
    counterexample: Optional[str] = None
    elapsed: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def check_id(self) -> str:
        inner = ",".join("%s=%s" % (k, self.params[k]) for k in sorted(self.params))
        return "%s[%s]" % (self.check, inner)

    def sort_key(self):
        return (self.check, tuple(sorted((k, str(v)) for k, v in self.params.items())))


# characters of a Laurent value kept in a counterexample
_SHOWN = 300


def _shown(value) -> str:
    """repr of one side of a check; a long Laurent polynomial is cut to its
    first _SHOWN characters and its number of terms."""
    text = repr(value)
    terms = getattr(value, "coeffs", None)
    if terms is None or len(text) <= _SHOWN:
        return text
    return "%s… (%d terms)" % (text[:_SHOWN], len(terms))


def _report(check, params, failures, t0) -> CheckReport:
    status = "pass" if not failures else "fail"
    ce = None if not failures else "; ".join(failures[:3])
    return CheckReport(check, dict(params), status, ce, time.perf_counter() - t0)


def _drawn_points(rng: random.Random, count: int) -> list:
    """Pairwise distinct nonzero +-a/b with 1 <= a, b <= 10^6, as reduced
    (signed a, b > 0).  Each draw takes a, b and then the sign from the
    stream; a draw equal to an earlier point after reduction is skipped."""
    pts = []
    seen = set()
    while len(pts) < count:
        a, b = rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)
        g = math.gcd(a, b)
        point = (-a // g if rng.randint(0, 1) else a // g, b // g)
        if point in seen:
            continue
        seen.add(point)
        pts.append(point)
    return pts


def _rng_for(mode: VerifyMode, check: str, params: dict) -> random.Random:
    tag = "%s|%s|%s" % (mode.seed, check, sorted(params.items()))
    return random.Random(tag)


def _vector_pairs(r: int, mode: VerifyMode, check: str, params: dict):
    """Yield (doubled, shifted, scale) for the requested mode.

    Symbolic mode yields the Laurent vectors with scale 1.  Random mode
    draws points x = a/b and yields them as integers: x, 1/x and
    x + 1/x = (a^2 + b^2)/(ab), each times the scale, the lcm of the |a| b.
    """
    if mode.mode == "symbolic":
        _, doubled, shifted = symbolic_vectors(r)
        yield doubled, shifted, 1
        return
    rng = _rng_for(mode, check, params)
    for _ in range(mode.trials):
        pts = _drawn_points(rng, r)
        scale = math.lcm(*(abs(a) * b for a, b in pts))
        doubled = [a * (scale // b) for a, b in pts] + [b * (scale // a) for a, b in pts]
        shifted = [(a * a + b * b) * (scale // (a * b)) for a, b in pts]
        yield PointVector(doubled), PointVector(shifted), scale


def _weighted(kernel, scale: int, degree: int) -> list:
    """The kernel with each coefficient of index i times scale^(degree - i).

    Both sides of an expansion identity are homogeneous of the given degree
    in the entries, and a kernel term of index i has degree i, so the
    weighted kernel over entries multiplied by the scale gives scale^degree
    times each side.
    """
    if scale == 1:
        return kernel
    return [(i, c * scale ** (degree - i)) for i, c in kernel]


# ---------------------------------------------------------------------------
# the expansion identities, in both directions:
#   first kind   f_n^(r)(z + z^-1) = sum_i c_i f_i^(2r)(z, z^-1)
#   second kind  f_n^(2r)(z, z^-1) = sum_i c_i f_i^(r)(z + z^-1)
# for f = e, h, p, with [(i, c_i)] = expansion_kernel(direction, f, r, n)


def _power_sum(n: int, v: PointVector):
    """p_n with the degree-0 power sum read as the arity."""
    return power(n, v) if n else v.one * v.arity


def _expansion_values(direction, family, top, doubled, shifted):
    """(singles, manys): f_0..f_top of the vector whose f_n is the single
    side, and of the vector the kernel is applied over.  The first kind
    reads f_n at the shifted vector, the second at the doubled one; p_0 is
    the arity."""
    one, many = (shifted, doubled) if direction == "first" else (doubled, shifted)
    if family == "p":
        return tuple([_power_sum(0, v)] + power_prefix(top, v) for v in (one, many))
    prefix = elementary_prefix if family == "e" else complete_prefix
    return prefix(top, one), prefix(top, many)


def _expansion_sides(direction, family, n, kernel, values):
    """(lhs, rhs): f_n of one vector, and the kernel applied to f_0..f_n of
    the other (summed from manys[0] * 0, by the ring's addmul if it has one),
    read from _expansion_values; the first-kind p kernel expands 2 p_n."""
    singles, manys = values
    single = singles[n] * 2 if (direction, family) == ("first", "p") else singles[n]
    acc, addmul = manys[0] * 0, getattr(type(manys[0]), "addmul", None)
    for i, c in kernel:
        acc = addmul(acc, c, manys[i]) if addmul else acc + manys[i] * c
    return single, acc


def _single_at(n, singles, manys):
    # f_n of the single side only, to free f_0..f_(n-1) before the sum
    return {n: singles[n]}, manys


def expansion_check(direction: str, family: str, r: int, n: int,
                    mode: VerifyMode = VerifyMode(), values=None) -> CheckReport:
    """The expansion identity of f = family ("e", "h" or "p") in the given
    direction ("first" or "second") at index n, evaluated across the mode's
    vectors with the kernel weighted for each vector's scale; a random-mode
    side is shown as the rational it stands for, itself over scale^n.

    The index is m in the first kind and n in the second; p starts at 1,
    and e_n of the 2r doubled entries stops at n = 2r.  In symbolic mode
    values may carry _expansion_values of symbolic_vectors(r) up to any
    top >= n, built once for a row of indices.
    """
    index, low = ("m" if direction == "first" else "n"), (1 if family == "p" else 0)
    if (direction, family) == ("second", "e"):
        if r < 1 or not 0 <= n <= 2 * r:
            raise ValueError("need r >= 1 and 0 <= n <= 2r")
    elif r < 1 or n < low:
        raise ValueError("need r >= 1 and %s >= %d" % (index, low))
    if values is not None and mode.mode != "symbolic":
        raise ValueError("shared values are for symbolic mode only")
    kernel = expansion_kernel(direction, family, r, n)
    check, params = "%s_kind_%s" % (direction, family), {"r": r, index: n}
    t0 = time.perf_counter()
    failures = []
    at = " ".join("%s=%s" % kv for kv in sorted(params.items()))
    evaluations = [(values, 1)] if values is not None else (
        (_single_at(n, *_expansion_values(direction, family, n, doubled, shifted)), scale)
        for doubled, shifted, scale in _vector_pairs(r, mode, check, params))
    for trial, (at_point, scale) in enumerate(evaluations):
        lhs, rhs = _expansion_sides(direction, family, n, _weighted(kernel, scale, n), at_point)
        if lhs != rhs:
            where = "symbolic"
            if mode.mode == "random":
                where = "point %d" % trial
                lhs, rhs = Fraction(lhs, scale ** n), Fraction(rhs, scale ** n)
            failures.append("%s %s: lhs=%s rhs=%s" % (at, where, _shown(lhs), _shown(rhs)))
    reported = dict(params, mode=mode.mode)
    if mode.mode == "random":
        reported["seed"] = mode.seed
    return _report(check, reported, failures, t0)


# the six named expansion checks


def first_kind_e(r: int, m: int, mode: VerifyMode = VerifyMode()) -> CheckReport:
    return expansion_check("first", "e", r, m, mode)


def first_kind_h(r: int, m: int, mode: VerifyMode = VerifyMode()) -> CheckReport:
    return expansion_check("first", "h", r, m, mode)


def first_kind_p(r: int, m: int, mode: VerifyMode = VerifyMode()) -> CheckReport:
    return expansion_check("first", "p", r, m, mode)


def second_kind_e(r: int, n: int, mode: VerifyMode = VerifyMode()) -> CheckReport:
    return expansion_check("second", "e", r, n, mode)


def second_kind_h(r: int, n: int, mode: VerifyMode = VerifyMode()) -> CheckReport:
    return expansion_check("second", "h", r, n, mode)


def second_kind_p(r: int, n: int, mode: VerifyMode = VerifyMode()) -> CheckReport:
    return expansion_check("second", "p", r, n, mode)


def genfun_transfer_check(r: int, order: int) -> CheckReport:
    """Coefficient-wise comparison, in y up to the given order, of

    sum e_n^(2r)(z, z^-1) y^n  against  (1+y^2)^r sum e_m^(r)(z+z^-1) x^m
    sum h_n^(2r)(z, z^-1) y^n  against  (1+y^2)^-r sum h_m^(r)(z+z^-1) x^m

    with x = y/(1+y^2) substituted as a series: the right sides are
    sum_m e_m y^m (1+y^2)^(r-m) and sum_m h_m y^m (1+y^2)^(-r-m), built as
    coefficient lists in y truncated at the order by Horner steps that
    multiply or divide by 1+y^2.  No expansion kernel is involved.
    """
    if r < 1 or order < 0:
        raise ValueError("need r >= 1 and order >= 0")
    t0 = time.perf_counter()
    _, doubled, shifted = symbolic_vectors(r)
    zero = shifted.zero

    def over(c):
        # c / (1+y^2) in place: c'[n] = c[n] - c'[n-2]
        for n in range(2, order + 1):
            c[n] = c[n] - c[n - 2]

    # e side: A <- A (1+y^2) + e_m y^m for m = 0..r
    e_sub = [zero] * (order + 1)
    for m, e in enumerate(elementary_prefix(r, shifted)):
        for n in range(order, 1, -1):
            e_sub[n] = e_sub[n] + e_sub[n - 2]
        if m <= order:
            e_sub[m] = e_sub[m] + e
    # h side: B <- h_m + y B / (1+y^2) for m = order..0, then B / (1+y^2)^r;
    # h_m x^m starts at y^m, so h_0..h_order are all that reach the order
    hs = complete_prefix(order, shifted)
    h_sub = [zero] * (order + 1)
    for m in range(order, -1, -1):
        h_sub = [zero] + h_sub[:-1]
        over(h_sub)
        h_sub[0] = hs[m]
    for _ in range(r):
        over(h_sub)
    e2 = elementary_prefix(order, doubled)
    h2 = complete_prefix(order, doubled)
    failures = []
    for n in range(order + 1):
        if e2[n] != e_sub[n]:
            failures.append("e coefficient y^%d" % n)
        if h2[n] != h_sub[n]:
            failures.append("h coefficient y^%d" % n)
    return _report("genfun_transfer", {"r": r, "order": order}, failures, t0)


# ---------------------------------------------------------------------------
# principal specialization at (q^r, ..., q, q^-1, ..., q^-r)


def _q_vectors(r: int):
    q = UniLaurent.monomial(1, 1)
    plus = [q ** j for j in range(r, 0, -1)]
    minus = [q ** -j for j in range(r, 0, -1)]
    doubled = PointVector(plus + minus)
    shifted = PointVector([a + b for a, b in zip(plus, minus)])
    return doubled, shifted


def _q_power(e: int) -> UniLaurent:
    return UniLaurent.monomial(1, e)


def _elem_q_closed(r: int, n: int) -> UniLaurent:
    # alternating q-binomial sum for e_n of the doubled q-vector
    out = UniLaurent.zero()
    for k in range(min(n, 2 * r + 1) + 1):
        term = q_binom(2 * r + 1, k) * _q_power(k * (k - 2 * r - 1) // 2)
        out = out + term if (n - k) % 2 == 0 else out - term
    return out


def _complete_q_closed(r: int, n: int) -> UniLaurent:
    return _q_power(-n * r) * (q_binom(2 * r + n, n) - q_binom(2 * r + n - 1, n - 1) * _q_power(r))


def principal_spec(family: str, r: int, n: int) -> CheckReport:
    """f_n at the doubled q-vector against its closed q-form, for f = e, h
    or p, reported as principal_spec_<family>:

    e: the alternating q-binomial sum, which vanishes for n > 2r;
    h: q^(-nr) ([2r+n, n]_q - [2r+n-1, n-1]_q q^r);
    p: -1 + q^(-rn)(1-q^((2r+1)n))/(1-q^n), compared after clearing the
       denominator 1 - q^n; n starts at 1.
    """
    if family not in ("e", "h", "p"):
        raise ValueError("family must be e, h or p")
    low = 1 if family == "p" else 0
    if r < 1 or n < low:
        raise ValueError("need r >= 1 and n >= %d" % low)
    t0 = time.perf_counter()
    doubled, _ = _q_vectors(r)
    if family == "e":
        lhs, rhs = elementary(n, doubled), _elem_q_closed(r, n)
    elif family == "h":
        lhs, rhs = complete(n, doubled), _complete_q_closed(r, n)
    else:
        one = UniLaurent.one()
        clear = one - _q_power(n)
        lhs = (power(n, doubled) + one) * clear
        rhs = _q_power(-r * n) * (one - _q_power((2 * r + 1) * n))
    failures = [] if lhs == rhs else ["lhs=%s rhs=%s" % (_shown(lhs), _shown(rhs))]
    return _report("principal_spec_" + family, {"r": r, "n": n}, failures, t0)


def principal_combination_check(r: int, bound: int) -> CheckReport:
    """The six q-identities obtained by feeding the closed q-forms through
    both expansion directions: the six expansion kernels applied over
    Laurent polynomials in q, all compared exactly."""
    if r < 1 or bound < 1:
        raise ValueError("need r >= 1 and bound >= 1")
    t0 = time.perf_counter()
    _, shifted = _q_vectors(r)
    one = UniLaurent.one()
    zero = UniLaurent.zero()
    es = elementary_prefix(bound, shifted)
    hs = complete_prefix(bound, shifted)
    failures = []

    # (1a) ballot-weighted sums of the alternating q-binomial forms
    for m in range(bound + 1):
        lhs = sum((_elem_q_closed(r, i) * c for i, c in expansion_kernel("first", "e", r, m)), zero)
        if lhs != es[m]:
            failures.append("(1a) m=%d" % m)

    # (1b) alternating q-binomial sum re-expanded over the shifted vector
    for n in range(min(bound, 2 * r) + 1):
        rhs = sum((es[i] * c for i, c in expansion_kernel("second", "e", r, n)), zero)
        if _elem_q_closed(r, n) != rhs:
            failures.append("(1b) n=%d" % n)

    # (2a) h of the shifted vector as a ballot-weighted sum of closed forms
    for m in range(bound + 1):
        rhs = sum((_complete_q_closed(r, i) * c for i, c in expansion_kernel("first", "h", r, m)),
                  zero)
        if hs[m] != rhs:
            failures.append("(2a) m=%d" % m)

    # (2b) closed h-form as an alternating binomial sum over the shifted h's
    for n in range(bound + 1):
        rhs = sum((hs[i] * c for i, c in expansion_kernel("second", "h", r, n)), zero)
        if _complete_q_closed(r, n) != rhs:
            failures.append("(2b) n=%d" % n)

    # (3a) power sums of the shifted vector from the closed forms
    # q^(-tr) geom(t) - 1 of the doubled vector, 2r at t = 0
    def geom(t):
        # sum_{j=0}^{2r} q^(jt); value 2r+1 at t = 0
        out = zero
        for j in range(2 * r + 1):
            out = out + _q_power(j * t)
        return out

    for m in range(bound + 1):
        rhs = sum(((_q_power(-i * r) * geom(i) - one) * c
                   for i, c in expansion_kernel("first", "p", r, m)), zero)
        if _power_sum(m, shifted) * 2 != rhs:
            failures.append("(3a) m=%d" % m)

    # (3b) closed p-form as the double alternating binomial sum, cleared
    for n in range(1, bound + 1):
        clear = one - _q_power(n)
        lhs = (zero - clear) + _q_power(-r * n) - _q_power((r + 1) * n)
        total = sum((_power_sum(i, shifted) * c for i, c in expansion_kernel("second", "p", r, n)),
                    zero)
        if lhs != total * clear:
            failures.append("(3b) n=%d" % n)

    return _report("principal_combination", {"r": r, "bound": bound}, failures, t0)


def unit_binomial_sum_check(r: int) -> CheckReport:
    """sum_k binom(r-n+2k, k) binom(n-2k-r-1, floor(n/2)-k) = 1 for
    n = 0..2r: the second-kind e kernel applied to the characteristic
    coefficients binom(i-r-1, floor(i/2))."""
    if r < 1:
        raise ValueError("need r >= 1")
    t0 = time.perf_counter()
    failures = []
    for n in range(2 * r + 1):
        total = sum(c * binom(i - r - 1, i // 2) for i, c in expansion_kernel("second", "e", r, n))
        if total != 1:
            failures.append("n=%d gives %d" % (n, total))
    return _report("unit_binomial_sum_check", {"r": r}, failures, t0)


def composition_consistency_check(r: int, m_max: int) -> CheckReport:
    """Expanding h_m of the shifted vector into doubled-vector h's and then
    re-expanding each of those back must reproduce the original value."""
    if r < 1 or m_max < 0:
        raise ValueError("need r >= 1 and m_max >= 0")
    t0 = time.perf_counter()
    _, doubled, shifted = symbolic_vectors(r)
    hs = complete_prefix(m_max, shifted)
    failures = []
    for m in range(m_max + 1):
        total = shifted.zero
        for n, outer in expansion_kernel("first", "h", r, m):
            for i, inner in expansion_kernel("second", "h", r, n):
                total = total + hs[i] * (outer * inner)
        if total != hs[m]:
            failures.append("m=%d" % m)
    return _report("composition_consistency", {"r": r, "m_max": m_max}, failures, t0)
