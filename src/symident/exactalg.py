"""Exact arithmetic substrate for the rest of the package.

Plain Python ints act as arbitrary-precision integers and
``fractions.Fraction`` as exact rationals.  On top of those this module
provides truncated formal power series (``Series``), sparse Laurent
polynomials in several variables (``MultiLaurent``), of which those in the
one variable q (``UniLaurent``) are a subclass, and exact determinant
routines.

All values are immutable after construction and every operation is pure,
so everything here can be shared freely between threads.

Dense polynomial products (``Series`` here, ``CycInt`` in ``cyclotomic``)
run on one Kronecker-substitution kernel, ``_int_poly_mul``: each integer
coefficient list is packed into one signed Python int with slots wide
enough that no coefficient of the product can overflow its slot, so the
convolution is a single big-int multiply.  A ``Series`` keeps integer
numerators over one denominator, so it feeds the kernel directly.  The
determinants run on the int residues of a ring's static ``residues`` hook
(``CycInt``'s: modulo a divisor of 2^(km) - 1), at widths from Hadamard's bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from operator import mul


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


def _int_poly_mul(a, b, unpack):
    """unpack(P, k) for P the product of two nonempty integer coefficient
    lists (index = exponent) packed at slot width k.  A coefficient of the
    product is a sum of at most min(len a, len b) products of one
    coefficient of each side, and k keeps it below 2^(k-1) in absolute
    value."""
    k = sum(max(map(abs, x)).bit_length() for x in (a, b)) + min(len(a), len(b)).bit_length() + 1
    return unpack(_pack(a, k) * _pack(b, k), k)


# ---------------------------------------------------------------------------
# dense rational coefficient lists (index = exponent)


def _cleared(coeffs):
    """Integer numerators over the lcm of the denominators, and that lcm."""
    dens = [c.denominator for c in coeffs]
    den = math.lcm(*dens)
    return [c.numerator * (den // d) for c, d in zip(coeffs, dens)], den


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


def _series(num, den, order):
    """The Series num/den of the given order, reduced by one gcd to den > 0
    and gcd(den, *num) = 1."""
    g = math.gcd(den, *num) * (-1 if den < 0 else 1)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    out = object.__new__(Series)
    out.num, out.den, out.order = tuple(num), den, order
    return out


class Series:
    """Formal power series with exact rational coefficients, truncated at a
    fixed order K: the K + 1 integer numerators ``num`` of x^0 .. x^K over
    one denominator ``den``, with den > 0 and gcd(den, *num) = 1, so equal
    series have equal fields.  It is built from ints and Fractions (missing
    ones are zero), and ``s[n]`` and ``coeffs`` give Fractions.

    Binary operations truncate to the smaller operand order.  Comparing two
    series of *different* orders raises instead of guessing, so a sloppy
    truncation can never turn into a silent false positive.
    """

    __slots__ = ("num", "den", "order")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        # lcm-clearing reduced Fractions leaves gcd(den, *num) = 1
        num, self.den = _cleared(coeffs[: order + 1])
        self.num = tuple(num) + (0,) * (order + 1 - len(num))
        self.order = order

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, c, order):
        return cls([c], order)

    @classmethod
    def zero(cls, order):
        return cls([], order)

    @classmethod
    def one(cls, order):
        return cls([1], order)

    @classmethod
    def x(cls, order):
        return cls([0, 1], order)

    # -- helpers -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Series):
            return other
        if isinstance(other, (int, Fraction)):
            return Series.constant(other, self.order)
        return None

    @property
    def coeffs(self):
        return tuple(Fraction(c, self.den) for c in self.num)

    def __getitem__(self, n):
        return Fraction(self.num[n], self.den)

    def truncated(self, order):
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        return _series(self.num[: order + 1], self.den, order)

    def divided_by_x(self, j=1):
        """Exact division by x^j; the lowest j coefficients must vanish."""
        if j > self.order or any(self.num[:j]):
            raise ValueError("series is not divisible by x^%d" % j)
        return _series(self.num[j:], self.den, self.order - j)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        # zip stops at the smaller order
        return _series([a * sa + b * sb for a, b in zip(self.num, other.num)], den,
                       min(self.order, other.order))

    __radd__ = __add__

    def __neg__(self):
        return _series([-c for c in self.num], self.den, self.order)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _series([c * other.numerator for c in self.num],
                           self.den * other.denominator, self.order)
        if not isinstance(other, Series):
            return NotImplemented
        k = min(self.order, other.order)
        return _series(_int_poly_mul(self.num[: k + 1], other.num[: k + 1],
                                     partial(_unpack, slots=k + 1)),
                       self.den * other.den, k)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("series powers take nonnegative integer exponents")
        return _power(self, n) if n else Series.one(self.order)

    def inverse(self):
        # with c = num_0, the scaled coefficients u_n = c^(n+1) inv_n(num)
        # are integers: u_0 = 1, u_n = -sum_j num_j c^(j-1) u_(n-j); then
        # inv_n(num / den) = den c^(K-n) u_n / c^(K+1)
        a, k, c = self.num, self.order, self.num[0]
        if c == 0:
            raise ValueError("series inverse needs a nonzero constant term")
        cp = [c ** i for i in range(k + 2)]
        terms = [(j, a[j] * cp[j - 1]) for j in range(1, k + 1) if a[j]]
        u = [1]
        for n in range(1, k + 1):
            u.append(-sum([w * u[n - j] for j, w in terms if j <= n]))
        return _series([self.den * v * cp[k - n] for n, v in enumerate(u)], cp[k + 1], k)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.order != other.order:
            raise ValueError("refusing to compare series of different truncation orders "
                             "(%d vs %d)" % (self.order, other.order))
        return self.num == other.num and self.den == other.den

    def __hash__(self):  # a constant hashes like the number it equals
        if any(self.num[1:]):
            return hash((self.num, self.den, self.order))
        return hash(Fraction(self.num[0], self.den))

    def __repr__(self):
        terms = ["%s*x^%d" % (c, i) for i, c in enumerate(self.coeffs) if c]
        return "Series(%s; order=%d)" % (" + ".join(terms) or "0", self.order)


def series_compose(outer, inner):
    """Substitute ``inner`` for the variable of ``outer``.

    The inner series must have zero constant term; the result carries the
    smaller of the two truncation orders.
    """
    if inner.num[0] != 0:
        raise ValueError("composition needs an inner series with zero constant term")
    k = min(outer.order, inner.order)
    out, inn, d = outer.num, inner.num[: k + 1], inner.den
    # Horner over the integers, with v the valuation of inner:
    # acc_j = acc_(j+1) * inn + out[j] d^(k-j) for j = k // v .. 0.  The
    # rest of the Horner chain multiplies acc_j by inn^j, of valuation
    # >= v j, so acc_j is kept only below x^(k - v j + 1).
    v = next((i for i, c in enumerate(inn) if c), k + 1)
    j = k // v
    scale = d ** (k - j)
    acc = [out[j] * scale] + [0] * (k - v * j)
    for j in range(j - 1, -1, -1):
        scale *= d
        acc = [0] * v + _int_poly_mul(acc, inn[v:], partial(_unpack, slots=len(acc)))
        acc[0] += out[j] * scale
    return _series(acc, outer.den * d ** k, k)


def series_sqrt(s):
    """Square root of a series with constant term 1.

    Newton iteration t <- (t + s/t)/2, doubling the number of correct
    coefficients each round, so the cost is a handful of multiplications.
    """
    if s.num[0] != s.den:
        raise ValueError("series square root needs constant term 1")
    t, p = Series.one(0), 0
    while p < s.order:
        p = min(2 * p + 1, s.order)
        t = _series(t.num + (0,) * (p - t.order), t.den, p)  # t to order p
        t = t + s.truncated(p) * t.inverse()
        t = _series(t.num, 2 * t.den, p)
    return t


# ---------------------------------------------------------------------------
# Laurent polynomials
#
# A Laurent value stores its terms as a dict from an int key to a nonzero
# int coefficient, with keys that add when monomials multiply: the key packs
# the exponent vector as sum_i e_i 2^(32 i), so in one variable (a
# UniLaurent in q) it is the exponent itself.  One fused kernel gives the
# sums and products.

_ONE = {0: 1}  # the terms of 1; never mutated
_EXP_BITS = 32  # slot width of one exponent in a packed key
_EXP_LIMIT = 1 << (_EXP_BITS - 1)  # every |exponent| stays below it


def _sparse_addmul(acc, a, b):
    """acc + a * b on key -> nonzero coefficient dicts, in one pass over a
    copy of acc; a zero sum drops its key at once."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1 and not acc:
        (s, c), = a.items()
        return {k + s: v * c for k, v in b.items()}
    if a == _ONE and len(acc) < len(b):
        acc, b = b, acc  # a plain add copies the larger operand
    d = dict(acc)
    get = d.get
    if a == _ONE:
        for k, v in b.items():
            v += get(k, 0)
            if v:
                d[k] = v
            else:
                del d[k]  # the term added is nonzero, so k was there
        return d
    for s, c in a.items():
        for k, v in b.items():
            k += s
            v = get(k, 0) + c * v
            if v:
                d[k] = v
            else:
                del d[k]
    return d


def _laurent_mul(a, b):
    """a * b for a Laurent value a and an int or a value of a's class."""
    if isinstance(b, int):
        terms = {k: c * b for k, c in a._terms.items()} if b else {}
        return a._of(terms, a.bound)
    if type(b) is not type(a):
        return NotImplemented
    if b.nvars != a.nvars:
        raise ValueError("mixed variable counts")
    bound = a.bound + b.bound
    if bound >= _EXP_LIMIT and len(a._terms) == len(b._terms) == 1:
        # monomials: the exact largest |exponent|, from the operands' keys
        # (the product's key may have wrapped a slot)
        (x,), (y,), v = a._terms, b._terms, a.nvars
        bound = max(abs(s + t) for s, t in
                    zip(_unpack(x, _EXP_BITS, v), _unpack(y, _EXP_BITS, v)))
    return a._of(_sparse_addmul({}, a._terms, b._terms), bound)


class MultiLaurent:
    """Sparse Laurent polynomial in ``nvars`` variables, integer coefficients.

    The terms are a map from packed exponent keys (see ``_pack``) to nonzero
    coefficients.  ``bound`` is an upper bound on every |exponent|: the max
    of the operands' for a sum, their sum for a product, |n| times it for
    the n-th power of a monomial (one term; a power of any other value is
    repeated products), max(bound, a.bound + b.bound) for the fused self +
    a * b of ``addmul(a, b)``.  Where the bound of a product of monomials
    or of a monomial's power reaches 2^31, it is taken exactly from the
    keys.  A value whose bound reaches 2^31 raises ValueError, so distinct
    exponent vectors always have distinct keys.  ``coeffs`` gives the terms
    keyed by exponent tuples of length nvars.  A value of another class
    (``UniLaurent``) never adds to or equals one of this class.
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
        if bound >= _EXP_LIMIT:
            raise ValueError("Laurent exponent bound %d reaches 2^%d"
                             % (bound, _EXP_BITS - 1))
        self.nvars, self._terms, self.bound = nvars, terms, bound
        return self

    def _of(self, terms, bound):
        # a value of this one's class and variable count
        return object.__new__(type(self))._set(self.nvars, terms, bound)

    @property
    def coeffs(self):
        """The terms as a dict exponent tuple -> coefficient (a copy)."""
        v = self.nvars
        return {tuple(_unpack(k, _EXP_BITS, v)): c for k, c in self._terms.items()}

    @classmethod
    def variable(cls, i, nvars, power=1):
        if not 0 <= i < nvars:
            raise ValueError("variable index %d outside 0..%d" % (i, nvars - 1))
        exps = [0] * nvars
        exps[i] = power
        return cls.constant(1, nvars)._of({_pack(exps, _EXP_BITS): 1}, abs(power))

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
        if type(other) is type(self):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        if isinstance(other, int):
            return self._of({0: other} if other else {}, 0)
        return None

    def is_zero(self):
        return not self._terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._of(_sparse_addmul(self._terms, _ONE, other._terms),
                        max(self.bound, other.bound))

    __radd__ = __add__

    def addmul(self, a, b):
        """self + a * b in one pass; a may be an int."""
        a, b = self._coerce(a), self._coerce(b)
        return self._of(_sparse_addmul(self._terms, a._terms, b._terms),
                        max(self.bound, a.bound + b.bound))

    def __neg__(self):
        return self._of({k: -c for k, c in self._terms.items()}, self.bound)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._of(_sparse_addmul(self._terms, {0: -1}, other._terms),
                        max(self.bound, other.bound))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return _laurent_mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("polynomial powers take integer exponents")
        if n < 0 and len(self._terms) != 1:
            raise ValueError("only monomials have Laurent inverses")
        if not n or len(self._terms) != 1:
            return _power(self, n) if n else self._of({0: 1}, 0)
        (k, c), = self._terms.items()  # a monomial's power is one term
        if n < 0 and c * c != 1:
            raise ValueError("coefficient %d is not invertible" % c)
        bound = self.bound * abs(n)
        if bound >= _EXP_LIMIT:  # n times the exact largest |exponent|
            bound = abs(n) * max(map(abs, _unpack(k, _EXP_BITS, self.nvars)))
        return self._of({k * n: c ** abs(n)}, bound)

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

    def __hash__(self):  # a constant (key 0) hashes like the int it equals
        t = self._terms
        return hash(t.get(0, 0)) if t.keys() <= {0} else hash((self.nvars, frozenset(t.items())))

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


class UniLaurent(MultiLaurent):
    """Sparse Laurent polynomial in the one variable q with integer
    coefficients: the one-variable MultiLaurent, whose key is the exponent,
    so ``coeffs`` maps exponent -> coefficient.  It never mixes with a
    MultiLaurent in one variable."""

    __slots__ = ()

    def __init__(self, coeffs=None):
        terms = {e: c for e, c in (coeffs or {}).items() if c}
        self._set(1, terms, max(map(abs, terms), default=0))

    @classmethod
    def monomial(cls, coeff=1, power=1):
        return cls({power: coeff})

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def constant(cls, c, nvars):
        # MultiLaurent's constant, which variable builds through, at q
        if nvars != 1:
            raise ValueError("q is the one variable of a UniLaurent: need nvars = 1")
        return cls({0: c})

    @property
    def coeffs(self):
        return dict(self._terms)

    # never through MultiLaurent.__mul__, so a traced run counts q products apart
    def __mul__(self, other):
        return _laurent_mul(self, other)

    __rmul__ = __mul__

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms):
            c = self._terms[e]
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append("%d*q" % c)
            else:
                parts.append("%d*q^%d" % (c, e))
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
        return num._of({}, 0)
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


def _identity(x):
    return x


_PLAIN = (_identity,) * 3  # (lift, fold, read) of a ring that computes on its own values


def _residues(rows):
    """(norms, at) for the matrix rows, from the static ``residues`` of the
    first entry type that has one (``CycInt``): norms[i][j] bounds every
    evaluation of rows[i][j], and at(bound) is the (lift, fold, read) of a
    ring of int residues, one per slot width, where lift maps an entry in,
    fold shortens a sum of products, and read is exact on a value whose
    every evaluation is at most bound.  Other rings: zero norms, ``_PLAIN``."""
    hook = next((type(x).residues for row in rows for x in row
                 if hasattr(type(x), "residues")), None)
    return hook(rows) if hook else ([[0] * len(row) for row in rows], lambda bound: _PLAIN)


def _dot_rows(M, v, fold=_identity):
    # [fold(row . v) for each row of M], a sum of ring products per row; a
    # row shorter than v stops at its own length
    return [fold(sum(map(mul, row[1:], v[1:]), row[0] * v[0])) for row in M]


def _char_poly(rows):
    """[c_1, ..., c_n], det(x I - A) = x^n + c_1 x^(n-1) + ... + c_n for the
    nonempty n x n matrix A = rows, by Berkowitz's division-free algorithm
    (IPL 18, 1984) in O(n^4) ring operations: walking up the trailing
    principal submatrices, the one of [[a, R], [C, A]] is the Toeplitz
    product of the one of A with (1, -a, -RC, -RAC, ..., -RA^(s-2)C).

    A step applies fixed matrices to vectors: [R; A] (R alone at the last)
    to A^t C in the Krylov pass, and the reversed prefixes of c to [a, RC,
    RAC, ...] in the Toeplitz product.  Each level runs on ``_residues`` at
    its own width: a c_i of the block on rows k.. is a sum of principal
    minors, so by Hadamard's inequality it is at most the product over those
    rows of 1 + their 2-norm.  A width packs the widest block it serves
    once, and c is read and lifted again only where the width changes.
    """
    n = len(rows)
    norms, at = _residues(rows)
    views, bound = [], 1
    for row in reversed(norms):  # levels n - 1, ..., 0; 1 + isqrt >= the 2-norm
        bound *= 2 + math.isqrt(sum(x * x for x in row))
        views.insert(0, at(bound))
    # c[i - 1] is the coefficient c_i of x^(s-i) in det(x I - B) for the
    # trailing s x s submatrix B; c_0 = 1 stays implicit, so no ring one is
    # needed
    c = view = None
    for k in range(n - 1, -1, -1):
        if views[k] is not view:
            lo, (lift, fold, read) = views.index(views[k]), views[k]
            M = [[lift(x) for x in row[lo:]] for row in rows[lo:]]
            c = c and [lift(view[2](x)) for x in c]  # read at the old width
            view = views[k]
        j = k - lo
        a, R = M[j][j], M[j][j + 1:]
        if c is None:
            c = [-a]
            continue
        A = [row[j + 1:] for row in M[j + 1:]]
        v, d = [row[j] for row in M[j + 1:]], []
        for _ in A[1:]:  # d[t] = R A^t C, and v becomes A^(t+1) C
            Rv, *v = _dot_rows([R, *A], v, fold)
            d.append(Rv)
        d += _dot_rows([R], v, fold)  # the last R A^t C needs no A^(t+1) C
        # Toeplitz step: c'_i = c_i - a c_(i-1) - sum_(t <= i-2) d[t] c_(i-2-t),
        # the row (c_(i-1), ..., c_1) times [a] + d, plus d[i-2] c_0
        toeplitz = _dot_rows([c[i::-1] for i in range(len(c))], [a] + d, fold)
        sums = [x + dt for x, dt in zip(toeplitz, d)]
        c = [c[0] - a] + [ci - x for ci, x in zip(c[1:], sums)] + [-sums[-1]]
    return [read(x) for x in c]


def first_row_cofactors(rest):
    """(rows, K) for the rows `rest` below row 0 of an n x n matrix, K the
    row-0 cofactors from one characteristic polynomial: with B = rest less
    its column C, s = n - 1 and c_i the coefficients of B, K_0 = det B =
    (-1)^s c_s and K_(j+1) = -(adj(B) C)_j = (-1)^s [(B^(s-1) + c_1 B^(s-2)
    + ... + c_(s-1)) C]_j (Cayley-Hamilton), by Horner: each step applies
    [B | C] to v + [c_i]; K = [1] if n = 1.

    The steps run on ``_residues``.  After step i, v = H_i C for H_i the
    coefficient of x^(s-1-i) in adj(x I - B), so by Cramer an entry is a
    sum of (i+1)-minors of [B | C] up to sign, at most e_(i+1) of the row
    2-norms (Hadamard).  Steps i .. 2i share one width."""
    rows = [list(row) for row in rest]
    if any(len(row) != len(rows) + 1 for row in rows):
        raise ValueError("need the n - 1 rows below row 0 of an n x n matrix")
    if not rows:
        return rows, [1]
    c, v = _char_poly([row[1:] for row in rows]), [row[0] for row in rows]
    norms, at = _residues(rows)
    e = [1]  # e[i]: the i-th elementary symmetric polynomial of the row 2-norms
    for rho in (1 + math.isqrt(sum(x * x for x in row)) for row in norms):
        e = [x + rho * y for x, y in zip(e + [0], [0] + e)]
    M, lift, read, until = [row[1:] + row[:1] for row in rows], None, _identity, 0
    for i, ci in enumerate(c[:-1], 1):  # v = B v + c_i C
        if i > until:
            until = 2 * i
            view = at(max(e[i + 1:until + 2]))
            if view[0] is not lift:
                lift, fold = view[:2]
                P = [[lift(x) for x in row] for row in M]
                v = [lift(read(x)) for x in v]
                read = view[2]
        v = _dot_rows(P, v + [lift(ci)], fold)
    return rows, [-x if len(rows) % 2 else x for x in [c[-1]] + list(map(read, v))]


def det_cofactor(rows, below=None):
    """Determinant over any commutative ring, division free: (-1)^n times
    the constant term of ``_char_poly``, or, given below =
    ``first_row_cofactors(rows[1:])``, row 0 times its K (ValueError if
    rows[1:] are not the rows below was built from) on ``_residues``, where
    every evaluation is at most sum_j |row_0j| |K_j|."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("need a nonempty square matrix")
    if below is not None:
        if [list(row) for row in rows[1:]] != below[0]:
            raise ValueError("rows[1:] are not the rows the cofactors were built from")
        norms, at = _residues([rows[0], below[1]])
        lift, fold, read = at(sum(map(mul, *norms)))
        return read(_dot_rows([list(map(lift, rows[0]))], list(map(lift, below[1])), fold)[0])
    c = _char_poly(rows)
    return -c[-1] if n % 2 else c[-1]


def det_fraction_free(rows):
    """Determinant of an int matrix by fraction-free (Bareiss) elimination
    over the ints, where every Bareiss quotient is exact; TypeError on an
    entry that is not an int, which a floor division would get wrong."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("need a nonempty square matrix")
    if not all(isinstance(x, int) for row in rows for x in row):
        raise TypeError("need int entries")
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
