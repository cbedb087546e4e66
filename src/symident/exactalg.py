"""Exact arithmetic substrate for the rest of the package.

Plain Python ints act as arbitrary-precision integers and
``fractions.Fraction`` as exact rationals.  On top of those this module
provides truncated formal power series (``Series``), sparse Laurent
polynomials in one variable (``UniLaurent``) and in several variables
(``MultiLaurent``), and exact determinant routines.

All values are immutable after construction and every operation is pure,
so everything here can be shared freely between threads.

Dense polynomial products (``Series`` here, ``CycInt`` in ``cyclotomic``)
run on one Kronecker-substitution kernel: each integer coefficient vector is
packed into one signed Python int with slots wide enough that no
coefficient of the product can overflow its slot, so the whole convolution
is a single big-int multiply, and a sum of such products (a dot product) is
added up as big ints before one unpack; the matrix-vector products of a
Krylov pass pack each vector once for all the rows.  Rational series are
cleared to integers over the lcm of their denominators first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from operator import floordiv, mul, truediv

Rational = Fraction


# ---------------------------------------------------------------------------
# Kronecker substitution for dense integer coefficient lists


def _pack(coords, k: int) -> int:
    """sum_i coords[i] * 2^(k i) for signed coords."""
    out = 0
    for c in reversed(coords):
        out = (out << k) + c
    return out


@lru_cache(maxsize=1024)
def _slot_bias(k: int, slots: int) -> int:
    """The int holding 2^(k-1) in each of its `slots` k-bit slots."""
    bias, have = 1 << (k - 1), 1
    while have < slots:
        bias |= bias << (k * have)
        have <<= 1
    return bias & ((1 << (k * slots)) - 1)


def _unpack(packed: int, k: int, slots: int) -> list:
    """The lowest `slots` coordinates of a packed int whose coordinates all
    have absolute value < 2^(k-1): with 2^(k-1) added to every slot, each
    slot is a nonnegative k-bit field and no borrow crosses a slot boundary;
    higher slots only add a multiple of 2^(k slots)."""
    packed += _slot_bias(k, slots)
    half, mask = 1 << (k - 1), (1 << k) - 1
    out = []
    for _ in range(slots):
        out.append((packed & mask) - half)
        packed >>= k
    return out


def _max_bits(vectors) -> int:
    # bit length of the largest |coefficient| in a sequence of coefficient lists
    return max(map(abs, chain.from_iterable(vectors))).bit_length()


def _slot_width(x_bits: int, y_bits: int, terms: int) -> int:
    """A slot width k such that a sum of `terms` products of coefficients
    below 2^x_bits and 2^y_bits in absolute value stays below 2^(k-1)."""
    return x_bits + y_bits + terms.bit_length() + 1


def _packed_dots(rows, v, k: int, unpack) -> list:
    """unpack(row . v, k) for each row of big ints already packed at slot
    width k: v is packed once for all the rows, and each row's products are
    added before its one unpack."""
    pv = [_pack(c, k) for c in v]
    out = []
    for row in rows:
        products = map(mul, row, pv)
        total = next(products)  # starting from 0 would copy it
        for p in products:
            total += p
        out.append(unpack(total, k))
    return out


def _int_poly_dot(xs, ys, unpack):
    """unpack(P, k) for P the sum of xs[i] * ys[i] packed at slot width k,
    for two equally long, nonempty sequences of nonempty integer coefficient
    lists (index = exponent): the one-row, one-step case of
    ``_int_poly_krylov``.

    A coefficient of the sum is a sum of at most sum_i min(len xs[i],
    len ys[i]) products of one coefficient of each side, and k keeps it
    below 2^(k-1) in absolute value."""
    k = _slot_width(_max_bits(xs), _max_bits(ys), sum(map(min, map(len, xs), map(len, ys))))
    return _packed_dots([[_pack(a, k) for a in xs]], ys, k, unpack)[0]


def _int_poly_krylov(R, A, v, unpack) -> list:
    """unpack(R . v_t, k) for t = 0 .. s-1, where A is s x s, v_0 = v and
    v_(t+1) is A v_t, each entry unpacked the same way.

    R, v and the rows of A are sequences of s nonempty integer coefficient
    lists (index = exponent).  unpack(P, k) maps a sum P packed at slot
    width k, whose coefficients obey the bound of ``_int_poly_dot``, to the
    coefficient list of an equivalent polynomial (a remainder, say), which
    is also what the next step multiplies.  Step t is one
    ``_packed_dots`` pass over R and the rows of A, which packs v_t once.
    The rows are packed once, at the slot width the first step needs, and
    again only when a later v_t needs wider slots than they have, then at
    least twice as wide, so that a v_t that grows step by step does not
    re-pack them at every step.
    """
    rows = [R, *A]
    row_bits = _max_bits(chain.from_iterable(rows))
    row_len = max(map(len, chain.from_iterable(rows)))
    k, out = 0, []
    for t in range(len(A)):
        need = _slot_width(row_bits, _max_bits(v), sum(min(row_len, len(c)) for c in v))
        if need > k:
            k = max(need, 2 * k)
            packed = [[_pack(c, k) for c in row] for row in rows]
        sums = _packed_dots(packed if t + 1 < len(A) else packed[:1], v, k, unpack)
        out.append(sums[0])
        v = sums[1:]
    return out


def _int_poly_mul(a, b, slots: int) -> list:
    """Coefficients 0 .. slots-1 of the product of two nonempty integer
    coefficient lists: the one-pair dot product."""
    return _int_poly_dot((a,), (b,), partial(_unpack, slots=slots))


# ---------------------------------------------------------------------------
# dense rational coefficient lists (index = exponent)


def _cleared(coeffs):
    """Integer numerators over the lcm of the denominators, and that lcm."""
    dens = [c.denominator for c in coeffs]
    den = math.lcm(*dens)
    return [c.numerator * (den // d) for c, d in zip(coeffs, dens)], den


def _mul_coeffs(a, b, order):
    # product truncated to x^order, as order + 1 Fractions
    na, da = _cleared(a[: order + 1])
    nb, db = _cleared(b[: order + 1])
    den = da * db
    return [Fraction(c, den) for c in _int_poly_mul(na, nb, order + 1)]


def _inv_coeffs(a, order):
    # series inverse; needs a nonzero constant term.  With a = A/d cleared
    # to integers and c = A_0, the scaled coefficients u_n = c^(n+1) inv_n(A)
    # are integers: u_0 = 1, u_n = -sum_j A_j c^(j-1) u_(n-j), and
    # inv_n(a) = d u_n / c^(n+1)
    a, d = _cleared(a[: order + 1]) if a else ([0], 1)
    c = a[0]
    if c == 0:
        raise ValueError("series inverse needs a nonzero constant term")
    weighted = [0] + [a[j] * c ** (j - 1) for j in range(1, len(a))]
    u = [1]
    for n in range(1, order + 1):
        u.append(-sum(weighted[j] * u[n - j] for j in range(1, min(n, len(a) - 1) + 1)
                      if weighted[j]))
    return [Fraction(d * v, c ** (n + 1)) for n, v in enumerate(u)]


def _power(x, n: int):
    """x^n for n >= 1 by binary powering: one square per bit below the top
    one and one product per further set bit, so x^5 takes 3 products."""
    result = None
    while True:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if not n:
            return result
        x = x * x


class Series:
    """Formal power series with exact rational coefficients, truncated at a
    fixed order.

    A series of order K stores exactly the coefficients of x^0 .. x^K.
    Binary operations truncate to the smaller operand order.  Comparing two
    series of *different* orders raises instead of guessing, so a sloppy
    truncation can never turn into a silent false positive.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = [Fraction(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        if len(coeffs) < order + 1:
            coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        self.coeffs = tuple(coeffs[: order + 1])
        self.order = order

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, c, order):
        return cls([Fraction(c)], order)

    @classmethod
    def zero(cls, order):
        return cls([], order)

    @classmethod
    def one(cls, order):
        return cls([Fraction(1)], order)

    @classmethod
    def x(cls, order):
        return cls([Fraction(0), Fraction(1)], order)

    # -- helpers -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Series):
            return other
        if isinstance(other, (int, Fraction)):
            return Series.constant(other, self.order)
        return None

    def __getitem__(self, n):
        return self.coeffs[n]

    def truncated(self, order):
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return Series(self.coeffs[: order + 1], order)

    def divided_by_x(self, j=1):
        """Exact division by x^j; the lowest j coefficients must vanish."""
        if any(self.coeffs[i] for i in range(j)):
            raise ValueError("series is not divisible by x^%d" % j)
        return Series(self.coeffs[j:], self.order - j)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        k = min(self.order, other.order)
        return Series([self.coeffs[i] + other.coeffs[i] for i in range(k + 1)], k)

    __radd__ = __add__

    def __neg__(self):
        return Series([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Series([c * other for c in self.coeffs], self.order)
        if not isinstance(other, Series):
            return NotImplemented
        k = min(self.order, other.order)
        return Series(_mul_coeffs(self.coeffs, other.coeffs, k), k)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("series powers take nonnegative integer exponents")
        return _power(self, n) if n else Series.one(self.order)

    def inverse(self):
        return Series(_inv_coeffs(self.coeffs, self.order), self.order)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.order != other.order:
            raise ValueError(
                "refusing to compare series of different truncation orders "
                "(%d vs %d)" % (self.order, other.order)
            )
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.order))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append("%s*x^%d" % (c, i))
        body = " + ".join(terms) if terms else "0"
        return "Series(%s; order=%d)" % (body, self.order)


def series_compose(outer, inner):
    """Substitute ``inner`` for the variable of ``outer``.

    The inner series must have zero constant term; the result carries the
    smaller of the two truncation orders.
    """
    if inner.coeffs[0] != 0:
        raise ValueError("composition needs an inner series with zero constant term")
    k = min(outer.order, inner.order)
    inn, d_in = _cleared(inner.coeffs[: k + 1])
    out, d_out = _cleared(outer.coeffs[: k + 1])
    # Horner over the integers: after the step for x^j, acc holds
    # sum_(i >= j) out[i] * d_in^(k-i) * inn^(i-j)
    acc = [0] * (k + 1)
    scale = 1
    for c in reversed(out):
        acc = _int_poly_mul(acc, inn, k + 1)
        acc[0] += c * scale
        scale *= d_in
    den = d_out * d_in ** k
    return Series([Fraction(c, den) for c in acc], k)


def series_sqrt(s):
    """Square root of a series with constant term 1.

    Newton iteration t <- (t + s/t)/2, doubling the number of correct
    coefficients each round, so the cost is a handful of multiplications.
    """
    if s.coeffs[0] != 1:
        raise ValueError("series square root needs constant term 1")
    k = s.order
    t = [Fraction(1)]
    p = 0
    while p < k:
        p = min(2 * p + 1, k)
        a = list(s.coeffs[: p + 1])
        quot = _mul_coeffs(a, _inv_coeffs(t, p), p)
        t = [(t[i] if i < len(t) else Fraction(0)) + quot[i] for i in range(p + 1)]
        t = [c / 2 for c in t]
    return Series(t, k)


# ---------------------------------------------------------------------------
# Laurent polynomials
#
# Both Laurent classes store their terms as a dict from an int key to a
# nonzero int coefficient, with keys that add when monomials multiply: a
# UniLaurent key is its exponent, a MultiLaurent key packs the exponent vector
# as sum_i e_i 2^(32 i).  The sparse sum and product below serve both.


def _sparse_add(a, b):
    """Sum of two key -> nonzero coefficient dicts."""
    if len(a) < len(b):
        a, b = b, a
    d = dict(a)
    get = d.get
    for k, c in b.items():
        v = get(k, 0) + c
        if v:
            d[k] = v
        else:
            del d[k]  # c is nonzero, so a zero sum means k was there
    return d


def _sparse_mul(a, b):
    """Product of two key -> nonzero coefficient dicts; keys add."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        (s, c), = a.items()
        return {k + s: v * c for k, v in b.items()}
    d = {}
    get = d.get
    for s, c in a.items():
        for k, v in b.items():
            k += s
            d[k] = get(k, 0) + c * v
    return {k: v for k, v in d.items() if v}


class UniLaurent:
    """Sparse Laurent polynomial in one variable with integer coefficients.

    Stored as a map exponent -> coefficient with no zero entries, so
    structural equality of the maps is exact polynomial equality.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, coeffs=None, var="q"):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    d[e] = c
        self.coeffs = d
        self.var = var

    def _of(self, coeffs):
        # a value in this one's variable, from a dict with no zero coefficient
        out = object.__new__(UniLaurent)
        out.coeffs, out.var = coeffs, self.var
        return out

    @classmethod
    def monomial(cls, coeff=1, power=1, var="q"):
        return cls({power: coeff}, var)

    @classmethod
    def one(cls, var="q"):
        return cls({0: 1}, var)

    @classmethod
    def zero(cls, var="q"):
        return cls({}, var)

    def _coerce(self, other):
        if isinstance(other, UniLaurent):
            return other
        if isinstance(other, int):
            return UniLaurent({0: other}, self.var)
        return None

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._of(_sparse_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return self._of({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return UniLaurent({e: c * other for e, c in self.coeffs.items()}, self.var)
        if not isinstance(other, UniLaurent):
            return NotImplemented
        return self._of(_sparse_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("polynomial powers take integer exponents")
        if n < 0:
            if len(self.coeffs) != 1:
                raise ValueError("only monomials have Laurent inverses")
            (e, c), = self.coeffs.items()
            if c * c != 1:
                raise ValueError("coefficient %d is not invertible" % c)
            return UniLaurent({e * n: c ** (n & 1)}, self.var)
        return _power(self, n) if n else UniLaurent.one(self.var)

    def evaluate(self, x):
        """Exact value at x; x must be nonzero when negative powers occur."""
        x = Fraction(x)
        total = Fraction(0)
        for e, c in self.coeffs.items():
            if e < 0 and x == 0:
                raise ValueError("zero substituted into a negative exponent")
            total += c * x ** e
        return total

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append("%d*%s" % (c, self.var))
            else:
                parts.append("%d*%s^%d" % (c, self.var, e))
        return " + ".join(parts)


_EXP_BITS = 32  # slot width of one exponent in a packed MultiLaurent key


class MultiLaurent:
    """Sparse Laurent polynomial in ``nvars`` variables, integer coefficients.

    The terms are a map from packed exponent keys (see ``_pack``) to nonzero
    coefficients.  ``bound`` is an upper bound on every |exponent|: the max
    of the operands' for a sum, their sum for a product (the exact largest
    |exponent| of a product of monomials whose sum reaches 2^31), times |n| for a negative n-th
    power.  A value whose bound reaches 2^31 raises ValueError, so
    distinct exponent vectors always have distinct keys.  ``coeffs`` gives
    the terms keyed by exponent tuples of length nvars.
    """

    __slots__ = ("nvars", "bound", "_terms")

    def __init__(self, nvars, coeffs=None):
        terms, bound = {}, 0
        if coeffs:
            for exps, c in coeffs.items():
                if len(exps) != nvars:
                    raise ValueError("exponent tuple of wrong length")
                if c:
                    bound = max(0, bound, *map(abs, exps))
                    terms[_pack(exps, _EXP_BITS)] = c
        self._set(nvars, terms, bound)

    def _set(self, nvars, terms, bound):
        if bound >= 1 << (_EXP_BITS - 1):
            raise ValueError("Laurent exponent bound %d reaches 2^%d"
                             % (bound, _EXP_BITS - 1))
        self.nvars, self._terms, self.bound = nvars, terms, bound
        return self

    def _of(self, terms, bound):
        # a value with this one's variable count
        return object.__new__(MultiLaurent)._set(self.nvars, terms, bound)

    @property
    def coeffs(self):
        """The terms as a dict exponent tuple -> coefficient (a copy)."""
        v = self.nvars
        return {tuple(_unpack(k, _EXP_BITS, v)): c for k, c in self._terms.items()}

    @classmethod
    def variable(cls, i, nvars, power=1):
        exps = [0] * nvars
        exps[i] = power
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def constant(cls, c, nvars):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars):
        return cls.constant(1, nvars)

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    def _coerce(self, other):
        if isinstance(other, MultiLaurent):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        if isinstance(other, int):
            return MultiLaurent.constant(other, self.nvars)
        return None

    def is_zero(self):
        return not self._terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._of(_sparse_add(self._terms, other._terms), max(self.bound, other.bound))

    __radd__ = __add__

    def __neg__(self):
        return self._of({k: -c for k, c in self._terms.items()}, self.bound)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            terms = {k: c * other for k, c in self._terms.items()} if other else {}
            return self._of(terms, self.bound)
        if not isinstance(other, MultiLaurent):
            return NotImplemented
        if other.nvars != self.nvars:
            raise ValueError("mixed variable counts")
        bound = self.bound + other.bound
        if bound >= 1 << (_EXP_BITS - 1) and len(self._terms) == len(other._terms) == 1:
            # monomials: the exact largest |exponent|, from the operands'
            # keys (the product's key may have wrapped a slot)
            (a,), (b,), v = self._terms, other._terms, self.nvars
            bound = max(abs(x + y) for x, y in
                        zip(_unpack(a, _EXP_BITS, v), _unpack(b, _EXP_BITS, v)))
        return self._of(_sparse_mul(self._terms, other._terms), bound)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("polynomial powers take integer exponents")
        if n < 0:
            if len(self._terms) != 1:
                raise ValueError("only monomials have Laurent inverses")
            (k, c), = self._terms.items()
            if c * c != 1:
                raise ValueError("coefficient %d is not invertible" % c)
            return self._of({k * n: c ** (n & 1)}, self.bound * -n)
        return _power(self, n) if n else MultiLaurent.one(self.nvars)

    def evaluate(self, point):
        """Exact value at a tuple of rationals.

        A zero coordinate is fine as long as it never meets a negative
        exponent.
        """
        if len(point) != self.nvars:
            raise ValueError("point of wrong arity")
        point = [Fraction(x) for x in point]
        total = Fraction(0)
        for exps, c in self.coeffs.items():
            term = Fraction(c)
            for x, e in zip(point, exps):
                if e == 0:
                    continue
                if e < 0 and x == 0:
                    raise ValueError("zero substituted into a negative exponent")
                term *= x ** e
            total += term
        return total

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _laurent_divide_exact(self, other)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    def __repr__(self):
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for exps in sorted(coeffs):
            c = coeffs[exps]
            factors = ["z%d^%d" % (i + 1, e) for i, e in enumerate(exps) if e]
            parts.append("*".join([str(c)] + factors) if factors else str(c))
        return " + ".join(parts)


def _laurent_divide_exact(num, den):
    """Exact quotient num/den of MultiLaurent values; raises if inexact.

    Long division on the packed keys, whose int order is lex order with the
    last variable most significant.  Every monomial is a unit, so each step
    divides the leading term of the remainder by the one of den.  Exponents
    of an exact quotient lie, per variable, between (min of num) - (min of
    den) and (max of num) - (max of den); a quotient term outside that box
    proves the division inexact, and inside it every remainder term stays in
    the exponent box of num, so the loop ends.
    """
    if den.is_zero():
        raise ZeroDivisionError("Laurent division by zero")
    if num.is_zero():
        return MultiLaurent.zero(num.nvars)
    v = num.nvars

    def box(p):
        cols = list(zip(*(_unpack(k, _EXP_BITS, v) for k in p._terms)))
        return [min(c) for c in cols], [max(c) for c in cols]

    (lo_n, hi_n), (lo_d, hi_d) = box(num), box(den)
    dd = den._terms
    lead = max(dd)
    lead_c = dd[lead]
    rest = [(k, c) for k, c in dd.items() if k != lead]
    # the leading remainder term t gives the quotient term t - lead, so t
    # must lie in the quotient box shifted by the exponents of lead
    at = _unpack(lead, _EXP_BITS, v)
    lo_t = [a + n - d for a, n, d in zip(at, lo_n, lo_d)]
    hi_t = [a + n - d for a, n, d in zip(at, hi_n, hi_d)]
    quot = {}
    rem = dict(num._terms)
    while rem:
        top = max(rem)
        if any(not a <= e <= b for e, a, b in zip(_unpack(top, _EXP_BITS, v), lo_t, hi_t)):
            raise ValueError("inexact Laurent division")
        q, r = divmod(rem.pop(top), lead_c)
        if r:
            raise ValueError("inexact Laurent division")
        mono = top - lead
        quot[mono] = q
        for k, dc in rest:
            k += mono
            val = rem.get(k, 0) - q * dc
            if val:
                rem[k] = val
            else:
                del rem[k]
    bound = max([abs(n - d) for n, d in zip(lo_n + hi_n, lo_d + hi_d)], default=0)
    return num._of(quot, bound)


# ---------------------------------------------------------------------------
# exact determinants


def _dot(xs, ys):
    # the ring-generic dot product, for entries whose type has no dot
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + x * y
    return acc


def _krylov(R, A, v, dot):
    """[R v, R A v, ..., R A^(s-1) v] for the s x s matrix A, one dot
    product per row of A per step."""
    d = [dot(R, v)]
    for _ in range(len(A) - 1):
        v = [dot(row, v) for row in A]
        d.append(dot(R, v))
    return d


def det_cofactor(rows):
    """Determinant over any commutative ring by Berkowitz's division-free
    algorithm (IPL 18, 1984), O(n^4) ring operations.

    Walking up the trailing principal submatrices, the characteristic
    polynomial of [[a, R], [C, A]] is the Toeplitz product of the one of A
    with (1, -a, -RC, -RAC, ..., -RA^(s-2)C); the determinant is its
    constant term up to the sign (-1)^n.

    The sums of the Toeplitz step are dot products, and so are, in the
    Krylov pass of a step, the products R A^t C and the matrix-vector
    products A^t C.  When an entry's type supplies a static ``dot(xs,
    ys)``, it computes the dot products; when it also supplies a static
    ``krylov(R, A, C)``, which returns [R C, R A C, ..., R A^(s-1) C] for
    the s x s matrix A, that computes the Krylov pass of each step with an
    entry of that type in R, A or C, so that it can prepare the rows of R
    and A once per step.  Both must also take the int entries of a mixed
    matrix.  ``CycInt.dot`` adds the packed products and reduces modulo
    Phi_m once per dot, and ``CycInt.krylov`` packs the rows once per step
    and each A^t C once.  Without them a dot is a sum of ring products, and
    the Krylov pass is one dot per row per step.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("need a nonempty square matrix")
    ring = next((type(x) for row in rows for x in row if hasattr(type(x), "dot")), None)
    dot = _dot if ring is None else ring.dot
    krylov = getattr(ring, "krylov", None)
    # c[i - 1] is the coefficient c_i of x^(s-i) in det(x I - B) for the
    # trailing s x s submatrix B; c_0 = 1 stays implicit, so no ring one is
    # needed
    c = [-rows[n - 1][n - 1]]
    for k in range(n - 2, -1, -1):
        a, R = rows[k][k], rows[k][k + 1:]
        A = [row[k + 1:] for row in rows[k + 1:]]
        C = [row[k] for row in rows[k + 1:]]
        if krylov and any(isinstance(x, ring) for x in chain(R, C, *A)):
            d = krylov(R, A, C)  # d[t] = R A^t C
        else:
            d = _krylov(R, A, C, dot)
        # Toeplitz step: c'_i = c_i - a c_(i-1) - sum_(t <= i-2) d[t] c_(i-2-t)
        new = [c[0] - a]
        for i in range(2, len(c) + 2):
            # a c_(i-2) + sum_(t <= i-3) d[t] c_(i-3-t), then d[i-2] c_0
            acc = dot([a] + d[:i - 2], c[i - 2::-1]) + d[i - 2]
            new.append(c[i - 1] - acc if i <= len(c) else -acc)
        c = new
    return -c[-1] if n % 2 else c[-1]


def det_fraction_free(rows):
    """Determinant of an integer or rational matrix by fraction-free
    (Bareiss) elimination.  Returns a Fraction; for integer input the value
    is integral.

    Integer input is eliminated over the ints, where every Bareiss quotient
    is exact, so it uses floor division; anything else runs over Fractions.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("need a nonempty square matrix")
    if all(isinstance(x, int) for row in rows for x in row):
        m, div = [list(row) for row in rows], floordiv
    else:
        m, div = [[Fraction(x) for x in row] for row in rows], truediv
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = div(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1])
