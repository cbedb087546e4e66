"""Verifiers for the expansion identities between the symmetric polynomials
of r variables evaluated at z + z^-1 and those of 2r variables evaluated at
(z, z^-1), their principal q-specializations, and the ballot series.

Every verifier runs in one of two modes:

* symbolic - the sides of an expansion identity are built as polynomials
  in E_k = e_k(z_1 + 1/z_1, ..., z_r + 1/z_r) and compared structurally;
  E_k -> e_k(z + z^-1) is injective, so this is a proof for the given
  (r, index).  The other symbolic checks build Laurent polynomials in
  z_1..z_r or in q;
* random - both sides are evaluated at reproducibly drawn rational points
  (pairwise distinct, nonzero), which is a strong randomized check for
  parameter ranges where the symbolic expansion would be too large.  Each
  point is drawn as a reduced pair of ints and every entry is scaled by
  one common denominator, so both sides are compared as integers.

A failed check never raises; it comes back as a CheckReport carrying a
counterexample, so suite runners can aggregate and render outcomes.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .combinat import ballot, binom, expansion_kernel, q_binom
from .exactalg import MultiLaurent, Series, UniLaurent, series_compose, series_sqrt
from .symfun import (complete_prefix, elementary_prefix, point_vectors, power, prefix,
                     symbolic_vectors)


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
    first _SHOWN characters and its number of terms.  A MultiLaurent side
    is a polynomial in E_1..E_r (see _symbolic_values), so it is written in
    E1..Er, not in the z1..zr of its repr; a side of its subclass
    UniLaurent is in q."""
    text = repr(value)
    if type(value) is MultiLaurent:
        text = text.replace("z", "E")
    terms = getattr(value, "coeffs", None)
    if terms is None or len(text) <= _SHOWN:
        return text
    return "%s… (%d terms)" % (text[:_SHOWN], len(terms))


def _report(check, params, failures) -> CheckReport:
    status = "pass" if not failures else "fail"
    ce = None if not failures else "; ".join(failures[:3])
    return CheckReport(check, dict(params), status, ce)


def _verifier(names):
    """Make a verifier of body(*args) -> failures: its report is named
    names(*args) -> (check, params), which suites._guarded reads as well to
    name the error report of a check that raises."""
    def make(body):
        @functools.wraps(body)
        def verifier(*args, **kwargs):
            failures = body(*args, **kwargs)
            return _report(*names(*args, **kwargs), failures)
        verifier.names = names
        return verifier
    return make


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
    """Yield (doubled, shifted, scale) for each random-mode trial: points
    x = a/b drawn as integers, with x and 1/x each times the scale, the lcm
    of the |a| b."""
    rng = _rng_for(mode, check, params)
    for _ in range(mode.trials):
        pts = _drawn_points(rng, r)
        scale = math.lcm(*(abs(a) * b for a, b in pts))
        yield point_vectors([a * (scale // b) for a, b in pts],
                            [b * (scale // a) for a, b in pts]) + (scale,)


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


def _expansion_values(direction, family, top, doubled, shifted):
    """(singles, manys): f_0..f_top of the vector whose f_n is the single
    side, and of the vector the kernel is applied over.  The first kind
    reads f_n at the shifted vector, the second at the doubled one; p_0 is
    the arity."""
    one, many = (shifted, doubled) if direction == "first" else (doubled, shifted)
    return prefix(family, top, one), prefix(family, top, many)


def _expansion_sides(direction, family, n, kernel, values):
    """(lhs, rhs): f_n of one vector, and the kernel applied to f_0..f_n of
    the other (summed from manys[0] * 0, by the ring's addmul if it has one),
    read from _expansion_values or _symbolic_values; the first-kind p
    kernel expands 2 p_n."""
    singles, manys = values
    single = singles[n] * 2 if (direction, family) == ("first", "p") else singles[n]
    acc, addmul = manys[0] * 0, getattr(type(manys[0]), "addmul", None)
    for i, c in kernel:
        acc = addmul(acc, c, manys[i]) if addmul else acc + manys[i] * c
    return single, acc


def _doubled_e(e, top):
    """d_0..d_top of sum_k e_k t^k (1+t^2)^(r-k), r = len(e) - 1, by Horner steps (no binom)."""
    d = [e[0] * 0] * (top + 1)
    for k, ek in enumerate(e):
        for n in range(top, 1, -1):
            d[n] = d[n] + d[n - 2]
        if k <= top:
            d[k] = d[k] + ek
    return d


def _symbolic_values(direction, family, r, top):
    """(singles, manys) as _expansion_values gives them at the Laurent
    vectors symbolic_vectors(r), written as polynomials in E_k =
    e_k(x_1..x_r), x_j = z_j + 1/z_j: a MultiLaurent in r variables E_1..E_r
    with no negative exponent.  The x_j are algebraically independent, and
    so are their e_k, so E_k -> e_k(z + z^-1) is injective: sides equal in
    Z[E] are equal as Laurent polynomials in z.

    The shifted vector's e are E_0..E_r.  The doubled vector's come from
    prod_j (1 + z_j t)(1 + t/z_j) = prod_j (1 + x_j t + t^2) =
    sum_k E_k t^k (1 + t^2)^(r-k), by _doubled_e.  h is the reciprocal of
    e(-t): h_n = sum_i (-1)^(i-1) e_i h_(n-i); p is Newton's identities,
    the same sum with n e_n for e_n p_0, and p_0 the arity.  The doubled p
    is not taken from z^i + z^-i = L_i(x), which is the second-kind p
    kernel itself."""
    E = [MultiLaurent.one(r)] + [MultiLaurent.variable(k, r) for k in range(r)]
    zero = E[0] * 0
    doubled = _doubled_e(E, 2 * r)

    def from_e(e):
        # f_0..f_top of the vector whose e_0..e_arity are e
        arity = len(e) - 1
        if family == "e":
            return e[:top + 1] + [zero] * (top - arity)
        signed = [x if i % 2 else -x for i, x in enumerate(e)]
        out = [E[0] * arity if family == "p" else E[0]]
        for n in range(1, top + 1):
            acc = zero
            for i in range(1, min(n, arity) + 1):
                acc = acc.addmul(signed[i], out[n - i] if i < n or family == "h" else n)
            out.append(acc)
        return out

    one, many = (E, doubled) if direction == "first" else (doubled, E)
    return from_e(one), from_e(many)


def _expansion_names(direction, family, r, n, mode=VerifyMode(), values=None):
    # the check name and params of an expansion report
    params = {"r": r, ("m" if direction == "first" else "n"): n, "mode": mode.mode}
    if mode.mode == "random":
        params["seed"] = mode.seed
    return "%s_kind_%s" % (direction, family), params


@_verifier(_expansion_names)
def expansion_check(direction: str, family: str, r: int, n: int,
                    mode: VerifyMode = VerifyMode(), values=None) -> list:
    """The expansion identity of f = family ("e", "h" or "p") in the given
    direction ("first" or "second") at index n.  The index is m in the
    first kind and n in the second; p starts at 1, and e_n of the 2r
    doubled entries stops at n = 2r.

    In symbolic mode the sides are read from values, _symbolic_values of
    (direction, family, r) up to any top >= n: a row of indices builds
    them once, and a check called alone builds them up to n.  In random
    mode the sides are evaluated across the drawn points with the kernel
    weighted for each point's scale, and a side is shown as the rational
    it stands for, itself over scale^n.
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
    at = " ".join("%s=%s" % kv for kv in sorted(params.items()))
    if mode.mode == "symbolic":
        if values is None:
            values = _symbolic_values(direction, family, r, n)
        lhs, rhs = _expansion_sides(direction, family, n, kernel, values)
        return [] if lhs == rhs else ["%s symbolic: lhs=%s rhs=%s" % (at, _shown(lhs), _shown(rhs))]
    failures = []
    for trial, (doubled, shifted, scale) in enumerate(_vector_pairs(r, mode, check, params)):
        lhs, rhs = _expansion_sides(direction, family, n, _weighted(kernel, scale, n),
                                    _expansion_values(direction, family, n, doubled, shifted))
        if lhs != rhs:
            failures.append("%s point %d: lhs=%s rhs=%s" % (
                at, trial, _shown(Fraction(lhs, scale ** n)), _shown(Fraction(rhs, scale ** n))))
    return failures


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


@_verifier(lambda r, order: ("genfun_transfer", {"r": r, "order": order}))
def genfun_transfer_check(r: int, order: int) -> list:
    """Coefficient-wise comparison, in y up to the given order, of

    sum e_n^(2r)(z, z^-1) y^n  against  (1+y^2)^r sum e_m^(r)(z+z^-1) x^m
    sum h_n^(2r)(z, z^-1) y^n  against  (1+y^2)^-r sum h_m^(r)(z+z^-1) x^m

    with x = y/(1+y^2) substituted as a series: the right sides are
    sum_m e_m y^m (1+y^2)^(r-m) (_doubled_e) and sum_m h_m y^m
    (1+y^2)^(-r-m), coefficient lists in y truncated at the order, built
    by Horner steps with 1+y^2.  No expansion kernel is involved.
    """
    if r < 1 or order < 0:
        raise ValueError("need r >= 1 and order >= 0")
    _, doubled, shifted = symbolic_vectors(r)
    zero = shifted.zero

    def over(c):
        # c / (1+y^2) in place: c'[n] = c[n] - c'[n-2]
        for n in range(2, order + 1):
            c[n] = c[n] - c[n - 2]

    e_sub = _doubled_e(elementary_prefix(r, shifted), order)
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
    return failures


# ---------------------------------------------------------------------------
# ballots[a] = combinat.ballot_series(a, order), C_a(x) = sum_k ballot(a +
# 2k - 1, k) x^k, and y = x C_1(x^2), which x = y/(1 + y^2) inverts


@_verifier(lambda ballots, order, alpha_max:
           ("series_ballot_coefficients", {"order": order, "alpha_max": alpha_max}))
def series_ballot_coefficients(ballots, order: int, alpha_max: int) -> list:
    """The coefficients of C_alpha against the ballot numbers."""
    return ["alpha=%d k=%d" % (alpha, k) for alpha in range(alpha_max + 1)
            for k in range(order + 1) if ballots[alpha][k] != ballot(alpha + 2 * k - 1, k)]


@_verifier(lambda ballots, order, alpha_max:
           ("series_closed_form", {"order": order, "alpha_max": alpha_max}))
def series_closed_form(ballots, order: int, alpha_max: int) -> list:
    """C_alpha against the alpha-th power of (1 - sqrt(1 - 4x)) / 2x."""
    root = series_sqrt(Series([1, -4], order + 1))
    base = (Series.one(order + 1) - root).divided_by_x(1) * Fraction(1, 2)
    return ["alpha=%d" % alpha for alpha in range(alpha_max + 1)
            if base ** alpha != ballots[alpha]]


@_verifier(lambda ballots, order: ("series_index_law", {"order": order}))
def series_index_law(ballots, order: int) -> list:
    """C_a C_b = C_(a+b) for 1 <= a, b <= 6."""
    return ["a=%d b=%d" % (a, b) for a in range(1, 7) for b in range(1, 7)
            if ballots[a] * ballots[b] != ballots[a + b]]


@_verifier(lambda y, order: ("series_quadratic", {"order": order}))
def series_quadratic(y, order: int) -> list:
    """x y^2 - y + x = 0."""
    x = Series.x(order)
    return [] if x * y * y - y + x == Series.zero(order) else ["quadratic relation"]


@_verifier(lambda ballots, y, order, n_max:
           ("series_substitution", {"order": order, "n_max": n_max}))
def series_substitution(ballots, y, order: int, n_max: int) -> list:
    """y^N = x^N C_N(x^2) for N <= n_max, and x/(1 + x^2) composed with y
    is x (to order min(order, 20))."""
    x, x2 = Series.x(order), Series([0, 0, 1], order)
    failures = ["power N=%d" % n for n in range(n_max + 1)
                if y ** n != (x ** n) * series_compose(ballots[n], x2)]
    inv = Series([0, 1], order) * Series([1, 0, 1], order).inverse()
    short = min(order, 20)
    if series_compose(inv, y.truncated(short)) != Series.x(short):
        failures.append("inverse substitution")
    return failures


# ---------------------------------------------------------------------------
# principal specialization at (q^r, ..., q, q^-1, ..., q^-r)


def _q_vectors(r: int):
    q = UniLaurent.monomial(1, 1)
    return point_vectors([q ** j for j in range(r, 0, -1)], [q ** -j for j in range(r, 0, -1)])


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


def _power_q_closed(r: int, n: int) -> UniLaurent:
    # the geometric sum for p_n of the doubled q-vector; 2r at n = 0
    return sum((_q_power((j - r) * n) for j in range(2 * r + 1)), UniLaurent.zero()) - 1


def _q_closed(family):
    # the closed q-form of f_n, read from the module when a check runs
    return {"e": _elem_q_closed, "h": _complete_q_closed, "p": _power_q_closed}[family]


class _OnRead(dict):
    # a dict whose missing value at key is build(key), built when first read
    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _principal_values(r: int, top: int):
    """(shifted q-vector, sides, closed): f_n of the doubled q-vector (p_n by
    power, n >= 1) and its closed q-form, for f = e, h, p, n <= top.  The e
    and h prefixes, each p_n and each closed form are built when a check
    first reads them, so a check alone builds only what it reads."""
    if r < 1:
        raise ValueError("need r >= 1")
    doubled, shifted = _q_vectors(r)
    powers = _OnRead(lambda n: power(n, doubled))
    sides = _OnRead(lambda f: powers if f == "p" else prefix(f, top, doubled))
    return shifted, sides, _OnRead(lambda f: _OnRead(functools.partial(_q_closed(f), r)))


@_verifier(lambda family, r, n, values=None: ("principal_spec_" + family, {"r": r, "n": n}))
def principal_spec(family: str, r: int, n: int, values=None) -> list:
    """f_n at the doubled q-vector against its closed q-form, for f = e, h
    or p, read from values (_principal_values to any top >= n, built to n
    for a check alone), reported as principal_spec_<family>:

    e: the alternating q-binomial sum, which vanishes for n > 2r;
    h: q^(-nr) ([2r+n, n]_q - [2r+n-1, n-1]_q q^r);
    p: -1 + sum_j q^((j-r)n) for j = 0..2r; n starts at 1.
    """
    if family not in ("e", "h", "p"):
        raise ValueError("family must be e, h or p")
    low = 1 if family == "p" else 0
    if r < 1 or n < low:
        raise ValueError("need r >= 1 and n >= %d" % low)
    _, sides, closed = _principal_values(r, n) if values is None else values
    lhs, rhs = sides[family][n], closed[family][n]
    return [] if lhs == rhs else ["lhs=%s rhs=%s" % (_shown(lhs), _shown(rhs))]


@_verifier(lambda r, bound, values=None: ("principal_combination", {"r": r, "bound": bound}))
def principal_combination_check(r: int, bound: int, values=None) -> list:
    """The six q-identities obtained by feeding the closed q-forms of
    principal_spec through both expansion directions: each kernel applied,
    by expansion_check's sum, between f_0..f_bound of the shifted q-vector
    and the closed forms at the doubled one (both from values, as in
    principal_spec), compared exactly; (1)..(3) are e, h, p, and (a), (b)
    the first and second kind."""
    if r < 1 or bound < 1:
        raise ValueError("need r >= 1 and bound >= 1")
    shifted, _, closed = _principal_values(r, bound) if values is None else values
    ours = {f: prefix(f, bound, shifted) for f in "ehp"}
    failures = []
    for label, family in enumerate("ehp", 1):
        for direction, part, index in (("first", "a", "m"), ("second", "b", "n")):
            values = ((ours[family], closed[family]) if direction == "first"
                      else (closed[family], ours[family]))
            low = 1 if (direction, family) == ("second", "p") else 0
            high = min(bound, 2 * r) if (direction, family) == ("second", "e") else bound
            for n in range(low, high + 1):
                kernel = expansion_kernel(direction, family, r, n)
                lhs, rhs = _expansion_sides(direction, family, n, kernel, values)
                if lhs != rhs:
                    failures.append("(%d%s) %s=%d" % (label, part, index, n))
    return failures


@_verifier(lambda r: ("unit_binomial_sum_check", {"r": r}))
def unit_binomial_sum_check(r: int) -> list:
    """sum_k binom(r-n+2k, k) binom(n-2k-r-1, floor(n/2)-k) = 1 for
    n = 0..2r: the second-kind e kernel applied to the characteristic
    coefficients binom(i-r-1, floor(i/2))."""
    if r < 1:
        raise ValueError("need r >= 1")
    failures = []
    for n in range(2 * r + 1):
        total = sum(c * binom(i - r - 1, i // 2) for i, c in expansion_kernel("second", "e", r, n))
        if total != 1:
            failures.append("n=%d gives %d" % (n, total))
    return failures


@_verifier(lambda r, m_max: ("composition_consistency", {"r": r, "m_max": m_max}))
def composition_consistency_check(r: int, m_max: int) -> list:
    """Expanding h_m of the shifted vector into doubled-vector h's and then
    re-expanding each of those back must reproduce the original value."""
    if r < 1 or m_max < 0:
        raise ValueError("need r >= 1 and m_max >= 0")
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
    return failures
