"""Exact arithmetic in Z[x]/Phi_m(x) and the root-of-unity evaluation
points built from it.

Working modulo the cyclotomic polynomial (rather than x^m - 1) keeps the
ring an integral domain, so "this element is a rational integer" is
decidable by looking at the coordinates.

Products run on the Kronecker-substitution kernel of ``exactalg``: each
pair of operands is packed into big ints, and a dot product
``CycInt.dot(xs, ys)`` adds the big-int products of all its pairs before
one unpack, so it is reduced once rather than once per product (a single
product, or a determinant from its row-0 cofactors, is one dot), and
``CycInt.krylov`` runs the Krylov pass of a Berkowitz step on the same
kernel (``exactalg._int_poly_krylov``).  A packed sum is folded modulo
x^m - 1 (which Phi_m divides) before it is unpacked.  A product with a
sparse factor is not packed: when the factor is a signed root of unity
+-x^e (e < m; looked up by its coordinates, which are dense for e >= deg
Phi_m) or has at most two nonzero coordinates, the product is the sum
over its terms c x^e of c times the other operand shifted cyclically by
e modulo x^m - 1, reduced once.

The remaining degrees m-1 .. deg Phi_m are then cancelled, if any is
nonzero, leaving the canonical remainder.  For m a power of a prime p,
Phi_m = 1 + x^w + ... + x^(m-w) with w = m/p (all ones for prime m), and
one pass cancels them; for other m each is cancelled in turn against the
nonzero terms of Phi_m.  Sums, differences and negations map over the
coordinate tuples, and results are built without re-validating their
coordinates.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, cycle
from operator import add, neg, sub

from .exactalg import _int_poly_dot, _int_poly_krylov, _power, _unpack, det_cofactor
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

    __slots__ = ("m", "phi", "degree", "_tail", "_period", "_units")

    def __init__(self, m: int):
        self.m = m
        self.phi = cyclotomic_poly(m)
        self.degree = len(self.phi) - 1
        # nonzero lower terms of the monic Phi_m, the only ones a reduction
        # step touches
        self._tail = tuple((j, c) for j, c in enumerate(self.phi[:-1]) if c)
        # w = m - deg Phi_m when Phi_m is 1 + x^w + x^(2w) + ... + x^(m-w),
        # as for m a power of a prime p (w = m/p); else 0
        w = m - self.degree
        self._period = w if w and self.phi == tuple(
            int(j % w == 0) for j in range(self.degree + 1)) else 0
        # canonical coordinates of +-x^e -> ((e, +-1),); + wins where
        # -x^e = x^(e + m/2)
        d = self.degree
        units = [tuple(int(i == e) for i in range(d)) for e in range(d)]
        units += [self._reduce([0] * e + [1]) for e in range(d, m)]
        self._units = {tuple(map(neg, u)): ((e, -1),) for e, u in enumerate(units)}
        self._units.update({u: ((e, 1),) for e, u in enumerate(units)})

    def _reduce(self, coeffs: list) -> tuple:
        """Canonical coordinates of sum_i coeffs[i] x^i; may consume coeffs."""
        m, d, w = self.m, self.degree, self._period
        if len(coeffs) > m:  # fold modulo x^m - 1
            out = coeffs[:m]
            for i in range(m, len(coeffs), m):
                hi = coeffs[i:i + m]
                out[:len(hi)] = map(add, out, hi)
        else:
            out = coeffs
        if w and len(out) > d:
            # m is a prime power, so d = m - w and, in one pass, x^(d+j) =
            # -(x^j + x^(w+j) + ... + x^(d-w+j)) for j < w
            out.extend([0] * (m - len(out)))
            return tuple(map(sub, out[:d], cycle(out[d:])))
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

    def _unpack(self, packed: int, k: int) -> tuple:
        """Canonical coordinates of a polynomial packed at slot width k, of
        degree below 2m - 1, whose coefficients and whose sums of two
        coefficients m apart are all below 2^(k-1) in absolute value.

        It is folded modulo x^m - 1 while packed: with B = 2^k, the low m
        slots, taken as a signed residue modulo B^m, are exactly the
        polynomial's terms of degree below m, and the rest of the int its
        higher terms divided by x^m.  Then m slots are unpacked and
        reduced."""
        shift = k * self.m
        low, high = packed & ((1 << shift) - 1), packed >> shift
        if low >> (shift - 1):  # a negative residue
            low -= 1 << shift
            high += 1
        return self._reduce(_unpack(low + high, k, self.m))

    def _dot(self, xs, ys) -> tuple:
        """Canonical coordinates of sum_i xs[i] * ys[i] for coordinate
        vectors of length at most the degree: one packed sum, one reduction.
        The slot width covers the folded sums too: a coefficient of degree
        i of the folded product of two such vectors collects at most the
        shorter one's length of products, as one of the two degrees i and
        i + m is fixed by each coordinate of the other."""
        return _int_poly_dot(xs, ys, self._unpack)

    def _rotate(self, coords, factor):
        """Canonical coordinates of coords times a sparse factor (see the
        module header), or None for any other factor."""
        terms = self._units.get(factor)
        if terms is None:
            if factor.count(0) < len(factor) - 2:
                return None
            terms = [(e, c) for e, c in enumerate(factor) if c]
        m, d = self.m, self.degree
        pad = list(coords) + [0] * (m - d)
        out = None
        for e, c in terms:
            t = pad[-e:] + pad[:-e]
            if out is None:
                out = t if c == 1 else list(map(neg, t)) if c == -1 else [c * a for a in t]
            else:
                out = list(map(add, out, t) if c == 1 else map(sub, out, t) if c == -1
                           else (a + c * b for a, b in zip(out, t)))
        if out is None:  # the zero factor
            return (0,) * d
        return self._reduce(out) if any(out[d:]) else tuple(out[:d])

    def element(self, coords) -> "CycInt":
        return _cyc(self, self._reduce(list(coords)))

    def from_int(self, c: int) -> "CycInt":
        return self.element([c])

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

    def _same_field(self, other: "CycInt") -> CycField:
        field = self.field
        if other.field is not field and other.field != field:
            raise ValueError("mixed cyclotomic orders")
        return field

    def __add__(self, other):
        if isinstance(other, CycInt):
            return _cyc(self._same_field(other), tuple(map(add, self.coords, other.coords)))
        if isinstance(other, int):  # the class of c is (c, 0, ..., 0)
            return _cyc(self.field, (self.coords[0] + other,) + self.coords[1:])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.field, tuple(map(neg, self.coords)))

    def __sub__(self, other):
        if isinstance(other, CycInt):
            return _cyc(self._same_field(other), tuple(map(sub, self.coords, other.coords)))
        if isinstance(other, int):
            return _cyc(self.field, (self.coords[0] - other,) + self.coords[1:])
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return _cyc(self.field, tuple([a * other for a in self.coords]))
        if not isinstance(other, CycInt):
            return NotImplemented
        field = self._same_field(other)
        a, b = self.coords, other.coords
        out = field._rotate(b, a)
        if out is None:
            out = field._rotate(a, b)
        return _cyc(field, field._dot((a,), (b,)) if out is None else out)

    __rmul__ = __mul__

    @staticmethod
    def dot(xs, ys):
        """sum_i xs[i] * ys[i] for two equally long, nonempty sequences of
        CycInt values of one field and ints, reduced modulo Phi_m once;
        an int when no entry is a CycInt."""
        field = _field_of(chain(xs, ys))
        if field is None:
            return sum(x * y for x, y in zip(xs, ys))
        return _cyc(field, field._dot(_coords_in(field, xs), _coords_in(field, ys)))

    @staticmethod
    def krylov(R, A, v):
        """[R v, R A v, ..., R A^(s-1) v] for a row R, an s x s matrix A
        and a column v of CycInt values of one field and ints, as each
        Berkowitz step of ``exactalg._char_poly`` asks for, by
        ``exactalg._int_poly_krylov`` with each value reduced modulo Phi_m
        once (the slot widths cover the folded sums as in
        ``CycField._dot``).  At least one entry must be a CycInt."""
        field = _field_of(chain(R, v, chain.from_iterable(A)))
        return [_cyc(field, x) for x in _int_poly_krylov(
            _coords_in(field, R), [_coords_in(field, row) for row in A], _coords_in(field, v),
            field._unpack)]

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("cyclotomic powers take nonnegative integer exponents")
        return _power(self, n) if n else self.field.one

    def is_rational_integer(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def __eq__(self, other):
        if isinstance(other, int):  # the class of c is (c, 0, ..., 0)
            return self.coords[0] == other and self.is_rational_integer()
        if not isinstance(other, CycInt):
            return NotImplemented
        self._same_field(other)
        return self.coords == other.coords

    def __hash__(self):  # a rational integer hashes like the int it equals
        c = self.coords
        return hash((self.field.m, c)) if any(c[1:]) else hash(c[0])

    def __repr__(self):
        return "CycInt(m=%d, %r)" % (self.field.m, self.coords)


def _cyc(field: CycField, coords: tuple) -> CycInt:
    # a CycInt from canonical coordinates, without CycInt.__init__'s check
    x = object.__new__(CycInt)
    x.field, x.coords = field, coords
    return x


def _field_of(values):
    # the field of the first CycInt among values, or None
    return next((v.field for v in values if isinstance(v, CycInt)), None)


def _coords_in(field: CycField, xs) -> list:
    # coordinates of each of xs, a CycInt of `field` or an int, for the
    # packed kernels
    out = []
    for x in xs:
        if isinstance(x, CycInt):
            if x.field is not field and x.field != field:
                raise ValueError("mixed cyclotomic orders")
            out.append(x.coords)
        elif isinstance(x, int):
            out.append((x,))
        else:
            raise TypeError("cannot take a cyclotomic dot product with %r" % (x,))
    return out


# ---------------------------------------------------------------------------
# evaluation points


@lru_cache(maxsize=None)
def shifted_roots_vector(r: int) -> PointVector:
    """Entries -zeta^j - zeta^(-j) for j = 1..r with zeta of order 2r+1;
    exact versions of -2 cos(2 pi j / (2r+1)).  Built once per r: the
    vector and its entries are immutable, and every route at one r shares
    it."""
    if r < 1:
        raise ValueError("need r >= 1")
    field = CycField(2 * r + 1)
    m = field.m
    entries = [-(field.zeta(j) + field.zeta(m - j)) for j in range(1, r + 1)]
    return PointVector(entries)


def doubled_roots_vector(r: int) -> PointVector:
    """Entries -zeta^j and -zeta^(-j) for j = 1..r, length 2r, in the field
    of the shifted roots."""
    field = shifted_roots_vector(r)[0].field
    plus = [-field.zeta(j) for j in range(1, r + 1)]
    minus = [-field.zeta(-j) for j in range(1, r + 1)]
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


def discriminant_square(r: int) -> CycInt:
    """The squared Vandermonde determinant of the shifted roots, for 2r+1
    prime, where it equals (2r+1)^(r-1).

    The square is taken (rather than the determinant itself) because the
    unsquared value is a square root of an integer whose sign depends on
    the ordering of the conjugates.
    """
    p = 2 * r + 1
    if not _is_prime(p):
        raise ValueError("2r+1 = %d is not prime" % p)
    vals = shifted_roots_vector(r).entries
    field = vals[0].field
    rows = [[field.one] for _ in vals]
    for _ in range(r - 1):
        rows = [[row[0] * v] + row for row, v in zip(rows, vals)]
    det = det_cofactor(rows)
    return det * det
