"""Exact arithmetic in Z[x]/Phi_m(x) and the root-of-unity evaluation
points built from it.

Working modulo the cyclotomic polynomial (rather than x^m - 1) keeps the
ring an integral domain, so "this element is a rational integer" is
decidable by looking at the coordinates.

Products run on the Kronecker-substitution kernel of ``exactalg``: each
pair of operands is packed into big ints, and a dot product
``CycInt.dot(xs, ys)`` adds the big-int products of all its pairs before
one unpack, so it is reduced once rather than once per product (a single
product is the one-pair dot).  A product with a one-term factor c x^e is
not packed: the other operand is rotated by e modulo x^m - 1 and scaled
by c.  Either way the result is folded modulo x^m - 1 (which Phi_m
divides) and the remaining degrees m-1 .. deg Phi_m are cancelled against
the nonzero terms of Phi_m, leaving the canonical remainder.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from .exactalg import _int_poly_dot, _power, det_cofactor
from .symfun import PointVector


def _poly_divide_exact(num, den):
    # dense ascending coefficient lists over Z, den monic-led; exact division
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1]:
            raise ValueError("inexact polynomial division")
        f = c // den[-1]
        q[i] = f
        if f:
            for j, d in enumerate(den):
                num[i + j] -= f * d
    if any(num):
        raise ValueError("inexact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple:
    """Coefficients (ascending) of the m-th cyclotomic polynomial, obtained
    by dividing x^m - 1 by the product of the lower-order ones."""
    if m < 1:
        raise ValueError("cyclotomic polynomials are indexed from 1")
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            phi_d = cyclotomic_poly(d)
            out = [0] * (len(den) + len(phi_d) - 1)
            for i, a in enumerate(den):
                if a:
                    for j, b in enumerate(phi_d):
                        out[i + j] += a * b
            den = out
    return tuple(_poly_divide_exact(num, den))


class CycField:
    """The ring Z[x]/Phi_m(x); elements are CycInt values in the power basis."""

    __slots__ = ("m", "phi", "degree", "_tail")

    def __init__(self, m: int):
        self.m = m
        self.phi = cyclotomic_poly(m)
        self.degree = len(self.phi) - 1
        # nonzero lower terms of the monic Phi_m, the only ones a reduction
        # step touches
        self._tail = tuple((j, c) for j, c in enumerate(self.phi[:-1]) if c)

    def _reduce(self, coeffs: list) -> tuple:
        """Canonical coordinates of sum_i coeffs[i] x^i; may consume coeffs."""
        m, d = self.m, self.degree
        if len(coeffs) > m:
            out = coeffs[:m]
            for i in range(m, len(coeffs)):
                out[i % m] += coeffs[i]
        else:
            out = coeffs
        for top in range(len(out) - 1, d - 1, -1):
            c = out[top]
            if c:
                shift = top - d
                for j, p in self._tail:
                    out[shift + j] -= c * p
        if len(out) > d:
            del out[d:]
        else:
            out.extend([0] * (d - len(out)))
        return tuple(out)

    def _dot(self, xs, ys) -> tuple:
        """Canonical coordinates of sum_i xs[i] * ys[i] for coordinate
        vectors of length at most the degree: one packed sum, one reduction."""
        return self._reduce(_int_poly_dot(xs, ys, 2 * self.degree - 1))

    def _rotate(self, coords, mono) -> tuple:
        """Canonical coordinates of coords times the one-term mono = c x^e:
        coords padded to length m, shifted cyclically by e (x^m = 1 modulo
        Phi_m), scaled by c and reduced."""
        c = sum(mono)  # the only nonzero coordinate
        e = mono.index(c)
        out = list(coords) + [0] * (self.m - len(coords))
        if e:
            out = out[-e:] + out[:-e]
        if c != 1:
            out = [c * a for a in out]
        return self._reduce(out)

    def element(self, coords) -> "CycInt":
        return CycInt(self, self._reduce(list(coords)))

    def from_int(self, c: int) -> "CycInt":
        return self.element([c])

    @property
    def zero(self) -> "CycInt":
        return self.from_int(0)

    @property
    def one(self) -> "CycInt":
        return self.from_int(1)

    def zeta(self, j: int = 1) -> "CycInt":
        """The class of x^j, a primitive m-th root of unity for gcd(j,m)=1."""
        j %= self.m
        return self.element([0] * j + [1])

    def __eq__(self, other):
        return isinstance(other, CycField) and other.m == self.m

    def __hash__(self):
        return hash(("CycField", self.m))

    def __repr__(self):
        return "CycField(%d)" % self.m


class CycInt:
    """Element of Z[x]/Phi_m(x), stored as power-basis coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field: CycField, coords):
        self.field = field
        self.coords = tuple(coords)
        if len(self.coords) != field.degree:
            raise ValueError("coordinate vector of wrong length")

    def _coerce(self, other):
        if isinstance(other, CycInt):
            if other.field != self.field:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycInt(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.field, tuple(a * other for a in self.coords))
        if not isinstance(other, CycInt):
            return NotImplemented
        field = self.field
        if other.field != field:
            raise ValueError("mixed cyclotomic orders")
        a, b, d = self.coords, other.coords, field.degree
        if a.count(0) == d - 1:
            return CycInt(field, field._rotate(b, a))
        if b.count(0) == d - 1:
            return CycInt(field, field._rotate(a, b))
        return CycInt(field, field._dot((a,), (b,)))

    __rmul__ = __mul__

    @staticmethod
    def dot(xs, ys):
        """sum_i xs[i] * ys[i] for two equally long, nonempty sequences of
        CycInt values of one field and ints, reduced modulo Phi_m once;
        an int when no entry is a CycInt."""
        field = next((v.field for v in chain(xs, ys) if isinstance(v, CycInt)), None)
        if field is None:
            return sum(x * y for x, y in zip(xs, ys))
        return CycInt(field, field._dot([_coords_in(field, x) for x in xs],
                                        [_coords_in(field, y) for y in ys]))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("cyclotomic powers take nonnegative integer exponents")
        return _power(self, n) if n else self.field.one

    def is_rational_integer(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def __eq__(self, other):
        if isinstance(other, int):  # the class of c is (c, 0, ..., 0)
            return self.coords[0] == other and self.is_rational_integer()
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((self.field.m, self.coords))

    def __repr__(self):
        return "CycInt(m=%d, %r)" % (self.field.m, self.coords)


def _coords_in(field: CycField, x):
    # coordinates of a CycInt of `field`, or of an int, for CycField._dot
    if isinstance(x, CycInt):
        if x.field is not field and x.field != field:
            raise ValueError("mixed cyclotomic orders")
        return x.coords
    if isinstance(x, int):
        return (x,)
    raise TypeError("cannot take a cyclotomic dot product with %r" % (x,))


def as_integer(x: CycInt) -> int:
    """Constant coordinate of x, provided every other coordinate vanishes."""
    if not x.is_rational_integer():
        raise ValueError("not a rational integer: coordinates %r in Z[x]/Phi_%d"
                         % (x.coords, x.field.m))
    return x.coords[0]


# ---------------------------------------------------------------------------
# evaluation points


def shifted_roots_vector(r: int) -> PointVector:
    """Entries -zeta^j - zeta^(-j) for j = 1..r with zeta of order 2r+1;
    exact versions of -2 cos(2 pi j / (2r+1))."""
    if r < 1:
        raise ValueError("need r >= 1")
    field = CycField(2 * r + 1)
    m = field.m
    entries = [-(field.zeta(j) + field.zeta(m - j)) for j in range(1, r + 1)]
    return PointVector(entries)


def doubled_roots_vector(r: int) -> PointVector:
    """Entries -zeta^j and -zeta^(-j) for j = 1..r, length 2r."""
    if r < 1:
        raise ValueError("need r >= 1")
    field = CycField(2 * r + 1)
    m = field.m
    plus = [-field.zeta(j) for j in range(1, r + 1)]
    minus = [-field.zeta(m - j) for j in range(1, r + 1)]
    return PointVector(plus + minus)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def discriminant_square_check(r: int) -> bool:
    """Exact check that the squared Vandermonde determinant of the shifted
    roots equals (2r+1)^(r-1); needs 2r+1 prime.

    The square is checked (rather than the determinant itself) because the
    unsquared value is a square root of an integer whose sign depends on
    the ordering of the conjugates.
    """
    p = 2 * r + 1
    if not _is_prime(p):
        raise ValueError("2r+1 = %d is not prime" % p)
    vals = shifted_roots_vector(r)
    field = vals[0].field
    rows = [[vals[i] ** (r - j) for j in range(1, r + 1)] for i in range(r)]
    det = det_cofactor(rows)
    return det * det == field.from_int(p ** (r - 1))
