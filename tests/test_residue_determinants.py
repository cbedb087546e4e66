"""The Berkowitz determinants over Z[zeta_m] on int residues
(``CycInt.residues``): x -> 2^k maps Z[x]/(x^m - 1) onto the ints modulo
2^(km) - 1, and they are kept modulo its divisor M(2^k), M = (x^m - 1)/
(x^w - 1), which Phi_m divides; a value is read back exactly when the
coefficients of its remainder modulo M are below 2^(k-1).  Checked against
the Leibniz sum, at the edge of the slot width, and against the stored
coefficients the bounds must hold: those of the same Berkowitz run in
Z[x]/(x^m - 1) itself."""

import math
import random
from fractions import Fraction
from operator import add, neg, sub

import pytest

from symident import cyclotomic, exactalg
from symident.cyclotomic import CycField, CycInt, roots_vectors, vandermonde_rows
from symident.exactalg import det_cofactor, first_row_cofactors

from oracles import det_permutation_expansion


ORDERS = (1, 2, 9, 15, 21, 25, 33)  # x - 1, x + 1, a prime power, composites


def _dense_entries(f, t):
    # every stored coordinate +-(2^t - 1), over the degree and over all m
    # slots, and ints of the same size
    top = 2 ** t - 1
    return [f.element([top] * f.degree), f.element([-top] * f.degree),
            f.element([(-1) ** i * top for i in range(f.degree)]),
            f.element([top] * f.m), f.element([(-1) ** i * top for i in range(f.m)]),
            top, -top, 0, 1]


@pytest.mark.parametrize("m", ORDERS)
def test_det_cofactor_against_permutation_expansion(m):
    f = CycField(m)
    rng = random.Random(33 + m)
    for t in (1, 7, 64):
        entries = _dense_entries(f, t)
        for n in range(1, 6):
            rows = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
            rows[0][0] = entries[n % 5]  # at least one CycInt
            want = det_permutation_expansion(rows)
            assert det_cofactor(rows) == want, (m, t, n)
            assert det_cofactor(rows, first_row_cofactors(rows[1:])) == want, (m, t, n)


def test_int_matrices_give_ints():
    rows = [[2, 3, -1], [5, -7, 4], [0, 9, 2 ** 70]]
    for got in (det_cofactor(rows), det_cofactor(rows, first_row_cofactors(rows[1:]))):
        assert type(got) is int and got == det_permutation_expansion(rows)
    assert all(type(x) is int for x in first_row_cofactors(rows[1:])[1])


def test_mixed_fields_and_other_entry_types_are_refused():
    a, b = CycField(5).zeta(1), CycField(7).zeta(1)
    for rows in ([[a, b], [1, 2]], [[1, 2], [a, b]], [[3, a], [b, 1]]):
        with pytest.raises(ValueError):
            det_cofactor(rows)
        with pytest.raises(ValueError):
            det_cofactor(rows, ([rows[1]], [a, b]))
    with pytest.raises(ValueError):
        first_row_cofactors([[a, b, 1], [1, 2, 3]])
    for other in (Fraction(1, 2), 0.5):
        with pytest.raises(TypeError):
            det_cofactor([[a, other], [1, 2]])
        with pytest.raises(TypeError):
            first_row_cofactors([[a, other]])


class TestSlotEdge:
    """A coefficient as large as its width holds.  The width is
    bit_length(bound) + 2; the extra bit is for the remainder modulo
    M = 1 + x^w + x^(2w) (m = 3w) that read unpacks, whose coefficients are
    differences of two stored ones.  Entry (i, j) is
    c x^(w F[i][j]): the exponents of every even permutation add up to 2w
    and those of every odd one to w, modulo 3w, so the determinant is
    3 c^3 (x^(2w) - x^w), with the remainder -3 c^3 (1 + 2 x^w).  For c in
    711 .. 744 the bound (2 + isqrt(3 c^2))^3 has 31 bits and 6 c^3 >= 2^31,
    so one bit less reads it wrong; a sign flips it, for the balanced
    residue."""

    F = ((0, 0, 0), (0, 1, 2), (0, 2, 1))

    @pytest.mark.parametrize("m", (3, 9, 15, 33))
    @pytest.mark.parametrize("sign", (1, -1))
    def test_a_remainder_past_the_bound(self, m, sign):
        f, w = CycField(m), m // 3
        for c in (711, 744):
            bound = (2 + math.isqrt(3 * c * c)) ** 3
            assert bound.bit_length() == 31 and 6 * c ** 3 >= 2 ** 31
            rows = [[f.zeta(w * e) * c for e in row] for row in self.F]
            rows[0] = [x * sign for x in rows[0]]
            assert det_cofactor(rows) == (f.zeta(2 * w) - f.zeta(w)) * (3 * sign * c ** 3), (m, c)


class Cyclic:
    """Z[x]/(x^m - 1) on m stored coefficients, never reduced modulo Phi_m:
    the ring whose images the residues are, and whose coefficients the
    bounds must hold.  A product is a schoolbook convolution folded modulo
    x^m - 1, by one big-int multiply at slots twice as wide as the
    operands' coefficients plus the log of the terms."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = tuple(c)

    def _other(self, o):
        return o if isinstance(o, Cyclic) else Cyclic((o,) + (0,) * (len(self.c) - 1))

    def __add__(self, o):
        return Cyclic(map(add, self.c, self._other(o).c))

    __radd__ = __add__

    def __sub__(self, o):
        return Cyclic(map(sub, self.c, self._other(o).c))

    def __neg__(self):
        return Cyclic(map(neg, self.c))

    def __mul__(self, o):
        a, b, m = self.c, self._other(o).c, len(self.c)
        k = 2 * max(map(abs, a + b)).bit_length() + m.bit_length() + 2
        p = sum(x << (k * i) for i, x in enumerate(a)) * sum(y << (k * i) for i, y in enumerate(b))
        out, half = [0] * m, 1 << (k - 1)
        for i in range(2 * m - 1):
            low = ((p + half) & ((1 << k) - 1)) - half
            out[i % m] += low
            p = (p - low) >> k
        assert p == 0
        return Cyclic(out)

    __rmul__ = __mul__

    def top(self):
        return max(map(abs, self.c))


def _spy_bounds(monkeypatch):
    # every bound that CycInt.residues is asked for a width at, in order
    bounds, residues = [], CycInt.residues

    def spy(rows):
        norms, at = residues(rows)
        return norms, lambda bound: bounds.append(bound) or at(bound)

    monkeypatch.setattr(CycInt, "residues", staticmethod(spy))
    return bounds


@pytest.mark.parametrize("r", range(1, 11))
def test_level_bounds_hold_the_stored_coefficients(monkeypatch, r):
    # _char_poly asks for one bound per level, levels n - 1 .. 0, and each
    # must hold the stored coefficients of that level's c, the char poly of
    # the trailing block computed in Z[x]/(x^m - 1); K_0 = +-c_s of B is read
    # at B's top level, and K_1.. at the last width of the Horner steps
    rows = vandermonde_rows(roots_vectors(r)[1].entries)
    n, cyc = len(rows), [[Cyclic(x.rep) for x in row] for row in rows]
    bounds = _spy_bounds(monkeypatch)
    exactalg._char_poly(rows)
    assert len(bounds) == n
    for k, bound in zip(range(n - 1, -1, -1), bounds):
        c = exactalg._char_poly([row[k:] for row in cyc[k:]])
        assert bound >= max(x.top() for x in c), (r, k)
    if n > 1:
        del bounds[:]
        first_row_cofactors(rows[1:])
        _, K = first_row_cofactors(cyc[1:])
        assert bounds[n - 2] >= K[0].top(), r
        if n > 2:  # else K_1 = -C is an entry, read nowhere
            assert bounds[-1] >= max(x.top() for x in K[1:]), r


@pytest.mark.parametrize("r", (8, 12))
def test_char_poly_packs_each_value_once_per_width(monkeypatch, r):
    # counts, not times: each width packs the block it serves once, and c
    # is lifted once where the width changes; the Toeplitz rows, the
    # reversed prefixes of c, are slices of lifted values and pack nothing
    rows = vandermonde_rows(roots_vectors(r)[1].entries)
    seen, pack = [], cyclotomic._pack

    def spy(coords, k):
        seen.append((coords, k))  # kept alive, so no id is reused
        return pack(coords, k)

    monkeypatch.setattr(cyclotomic, "_pack", spy)
    exactalg._char_poly(rows)
    widths = {k for _, k in seen}
    assert len({(id(c), k) for c, k in seen}) == len(seen), r
    assert len(widths) > 1 and len(seen) <= len(widths) * (r * r + r), (r, len(seen))
