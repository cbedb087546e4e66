"""Exact arithmetic in Z[x]/Phi_m(x) and the root-of-unity evaluation
points built from it.

Working modulo the cyclotomic polynomial (rather than x^m - 1) keeps the
ring an integral domain, so "this element is a rational integer" is
decidable by looking at the coordinates.

A value is stored as any polynomial of degree below m in its class modulo
x^m - 1, which Phi_m divides.  It is reduced modulo Phi_m only when it is
observed (==, hash, ``coords``, repr, ``is_rational_integer``, or as an
input of a dense product), and the canonical coordinates are kept.  Sums,
differences, negations and int multiples map over the stored tuples, and a
product with a factor of at most two nonzero stored coordinates is the sum
over its terms c x^e of c times the other operand shifted cyclically by e;
none of these is reduced.  ``field.zeta(j)`` is the one term x^j, so a
doubled root has one stored term, a shifted root two, and the e, h and p
prefixes of ``symfun`` rotate the slots of one int per stored term of an
entry (``CycInt.packed``), unpacked once, unreduced.

A dense product is one big-int multiply of canonical coordinates
(``exactalg._int_poly_mul``), folded modulo x^m - 1 before it is unpacked
and reduced.  The determinants of ``exactalg`` run on ``CycInt.residues``:
x -> 2^k maps Z[x]/(x^m - 1) onto the ints modulo 2^(km) - 1, kept modulo
a divisor, so an entry is one int, a product one multiply and a sum one
fold, and a value is unpacked only where it is read.  A reduction cancels
the degrees m-1 .. deg Phi_m: in one pass for m a power of a prime p, where
Phi_m = 1 + x^w + ... + x^(m-w) with w = m/p, and else each in turn
against the nonzero terms of Phi_m.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import compress, cycle, repeat
from operator import add, mul, neg, sub

from .exactalg import _int_poly_mul, _pack, _power, _slot_bias, _unpack, det_cofactor
from .symfun import point_vectors


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
            den = _int_poly_mul(den, phi_d, partial(_unpack, slots=len(den) + len(phi_d) - 1))
    return tuple(_poly_divide_exact(num, den))


class CycField:
    """The ring Z[x]/Phi_m(x); elements are CycInt values."""

    __slots__ = ("m", "phi", "degree", "_tail", "_period", "_pad")

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
        self._pad = (0,) * w  # the stored coordinates d .. m-1 of a canonical value

    def _reduce(self, out: list) -> tuple:
        """Canonical coordinates of sum_i out[i] x^i, for m coefficients;
        may consume out."""
        d, w = self.degree, self._period
        if w:
            # m is a prime power, so d = m - w and, in one pass, x^(d+j) =
            # -(x^j + x^(w+j) + ... + x^(d-w+j)) for j < w
            return tuple(map(sub, out[:d], cycle(out[d:])))
        for top in range(self.m - 1, d - 1, -1):
            c = out[top]
            if c:
                shift = top - d
                for j, p in self._tail:
                    out[shift + j] -= c * p
        del out[d:]
        return tuple(out)

    def _unpack(self, packed: int, k: int) -> tuple:
        """Canonical coordinates of a polynomial packed at slot width k, of
        degree below 2m - 1, whose coefficients and whose sums of two
        coefficients m apart are all below 2^(k-1) in absolute value, as
        the slot widths of ``exactalg`` give for coordinate vectors of length
        at most the degree: a folded coefficient of degree i collects at most
        the shorter vector's length of products, as each coordinate of the
        other fixes one of the degrees i and i + m.

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

    def _shifted(self, a, b):
        """a * b modulo x^m - 1 on stored coordinates, in one pass over
        cyclic shifts of b when a has at most two nonzero coordinates, else
        of a when b has; None when neither has."""
        m = self.m
        if a.count(0) < m - 2:
            a, b = b, a
            if a.count(0) < m - 2:
                return None
        out = None
        for e in compress(range(m), a):
            c, t = a[e], b[-e:] + b[:-e]  # t = b x^e
            if out is None:
                out = t if c == 1 else map(neg, t) if c == -1 else map(mul, t, repeat(c))
            else:
                out = map(add, out, t) if c == 1 else map(sub, out, t) if c == -1 \
                    else map(add, out, map(mul, t, repeat(c)))
        return (0,) * m if out is None else tuple(out)

    def element(self, coords) -> "CycInt":
        """The class of sum_i coords[i] x^i, stored folded modulo x^m - 1."""
        out = [0] * self.m
        for i, c in enumerate(coords):
            out[i % self.m] += c
        return _cyc(self, tuple(out))

    def from_int(self, c: int) -> "CycInt":
        return self.element([c])

    @property
    def one(self) -> "CycInt":
        return self.from_int(1)

    def zeta(self, j: int = 1) -> "CycInt":
        """The class of x^j, stored as that one term; a primitive m-th root
        of unity for gcd(j,m)=1."""
        j %= self.m
        return self.element([0] * j + [1])

    def __eq__(self, other):
        return isinstance(other, CycField) and other.m == self.m

    def __hash__(self):
        return hash(("CycField", self.m))

    def __repr__(self):
        return "CycField(%d)" % self.m


class CycInt:
    """Element of Z[x]/Phi_m(x).  ``rep`` holds the m coefficients of one
    polynomial of its class modulo x^m - 1; ``coords``, the canonical
    power-basis coordinates (the remainder modulo Phi_m), are computed when
    first read and kept."""

    __slots__ = ("field", "rep", "_coords")

    @property
    def coords(self) -> tuple:
        c = self._coords
        if c is None:
            rep, field = self.rep, self.field
            d = field.degree
            c = self._coords = field._reduce(list(rep)) if any(rep[d:]) else rep[:d]
        return c

    def _same_field(self, other: "CycInt") -> CycField:
        field = self.field
        if other.field is not field and other.field != field:
            raise ValueError("mixed cyclotomic orders")
        return field

    def __add__(self, other):
        if isinstance(other, CycInt):
            return _cyc(self._same_field(other), tuple(map(add, self.rep, other.rep)))
        if isinstance(other, int):  # the class of c is (c, 0, ..., 0)
            return _cyc(self.field, (self.rep[0] + other,) + self.rep[1:])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.field, tuple(map(neg, self.rep)))

    def __sub__(self, other):
        if isinstance(other, CycInt):
            return _cyc(self._same_field(other), tuple(map(sub, self.rep, other.rep)))
        if isinstance(other, int):
            return _cyc(self.field, (self.rep[0] - other,) + self.rep[1:])
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return _cyc(self.field, tuple([a * other for a in self.rep]))
        if not isinstance(other, CycInt):
            return NotImplemented
        field = self._same_field(other)
        out = field._shifted(self.rep, other.rep)
        if out is None:
            c = _int_poly_mul(self.coords, other.coords, field._unpack)  # canonical
            return _cyc(field, c + field._pad, c)
        return _cyc(field, out)

    __rmul__ = __mul__

    @staticmethod
    def packed(entries, bound):
        """The prefix recurrences' view of CycInt values of one field and ints
        (the class of c): (``_Packed`` ints, a map of packed results to CycInt
        values, unreduced).  A slot holds bound(the entries' 1-norms): a
        product folded modulo x^m - 1 has at most the product of 1-norms."""
        field = next(x.field for x in entries if isinstance(x, CycInt))
        m, reps = field.m, _stored(field, entries)
        k = bound([sum(map(abs, c)) for c in reps]).bit_length() + 1
        bias, mask = _slot_bias(k, m), (1 << k * m) - 1
        out = [_Packed(_pack(c, k)) for c in reps]
        for x, c in zip(out, reps):
            x.kernel = ([(k * e, k * (m - e), ce) for e, ce in enumerate(c) if ce],
                        bias, mask, -sum(c) * bias)
        return out, lambda xs: [_cyc(field, tuple(_unpack(x, k, m))) for x in xs]

    @staticmethod
    def residues(rows):
        """``exactalg._residues`` of a matrix of CycInt values of one field
        and ints (the class of c).  A norm is the 1-norm of the stored
        coordinates, at least |f(x)| for each ring map f: x -> u, u^m = 1, of
        Z[x]/(x^m - 1), and a stored coefficient is a mean of such images.
        at(bound) works in the image of Z[x]/M(x) under x -> 2^k, where Phi_m
        divides M = (x^m - 1)/(x^w - 1) = 1 + x^w + ... + x^(m-w), w = m/p for
        p the least prime factor of m (M = x - 1 for m = 1): lift packs the
        stored coordinates, fold takes a sum modulo 2^(km) - 1, then M(2^k),
        and read unpacks the balanced residue into the remainder modulo M,
        whose coefficients are differences of two stored ones, so k is
        bit_length(bound) + 2."""
        field = next(x.field for row in rows for x in row if isinstance(x, CycInt))
        m, views = field.m, {}
        w = m // next((p for p in range(2, m + 1) if m % p == 0), m + 1)

        def at(bound):
            k = bound.bit_length() + 2
            if k not in views:
                km, kd = k * m, k * (m - w)
                N, D = (1 << km) - 1, (1 << kd) - 1
                G = D // ((1 << k * w) - 1) if w else -1  # 2^(kd) is -G modulo M(2^k)
                M = D + 1 + G
                half = M >> 1

                def fold(t):
                    t = (t & N) + (t >> km)
                    return (t & D) - (t >> kd) * G
                views[k] = (lambda x: x % M if isinstance(x, int) else fold(_pack(x.rep, k)), fold,
                            lambda x: _cyc(field, tuple(_unpack((x + half) % M - half, k, m))))
            return views[k]
        return [[sum(map(abs, c)) for c in _stored(field, row)] for row in rows], at

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


def _cyc(field: CycField, rep: tuple, coords=None) -> CycInt:
    # a CycInt from m stored coordinates and, if known, its canonical ones;
    # every value is made here
    x = object.__new__(CycInt)
    x.field, x.rep, x._coords = field, rep, coords
    return x


def _stored(field: CycField, xs) -> list:
    # the stored coordinates of each of xs, a CycInt of `field` or an int
    out = []
    for x in xs:
        if isinstance(x, CycInt):
            if x.field is not field and x.field != field:
                raise ValueError("mixed cyclotomic orders")
            out.append(x.rep)
        elif isinstance(x, int):
            out.append((x,))
        else:
            raise TypeError("not a cyclotomic value or an int: %r" % (x,))
    return out


class _Packed(int):
    """A ``CycInt.packed`` entry.  Its product with a packed x is the sum
    over its terms c x^e of c times x's slots rotated by e: with bias in
    every slot no borrow crosses one, so a rotation is two shifts and a mask."""

    def __mul__(self, x):
        terms, bias, mask, offset = self.kernel
        x += bias
        for left, right, c in terms:
            rot = ((x << left) & mask) | (x >> right)
            offset = offset - rot if c == -1 else offset + c * rot  # the roots' c is -1
        return offset

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# evaluation points


@lru_cache(maxsize=None)
def roots_vectors(r: int) -> tuple:
    """(doubled, shifted) at z_j = -zeta^j for j = 1..r with zeta of order
    2r+1: the doubled -zeta^j and -zeta^(-j), length 2r, and the shifted
    -zeta^j - zeta^(-j), exact versions of -2 cos(2 pi j / (2r+1)).  Built
    once per r: the vectors and their entries are immutable, and every
    route at one r shares them."""
    if r < 1:
        raise ValueError("need r >= 1")
    field = CycField(2 * r + 1)
    return point_vectors([-field.zeta(j) for j in range(1, r + 1)],
                         [-field.zeta(-j) for j in range(1, r + 1)])


def vandermonde_rows(points) -> list:
    """The Vandermonde rows [a^(k-1)], ..., [a], [1] over k CycInt points
    a (the shifted roots, say), one column per point; the ones row is each
    point's field.one, and each row above is the one below times a."""
    rows = [[a.field.one for a in points]]
    for _ in range(len(points) - 1):
        rows = [[x * a for x, a in zip(rows[0], points)]] + rows
    return rows


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
    det = det_cofactor(vandermonde_rows(roots_vectors(r)[1].entries))
    return det * det
