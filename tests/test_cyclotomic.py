import random

import pytest

from symident.combinat import ballot, binom
from symident.cyclotomic import (CycField, CycInt, as_integer, cyclotomic_poly,
                                 discriminant_square_check,
                                 doubled_roots_vector, shifted_roots_vector)
from symident.exactalg import det_cofactor
from symident.symfun import complete_prefix, elementary_prefix, power

from oracles import brute_cyclotomic_dot, brute_cyclotomic_mul, det_permutation_expansion


def totient(m):
    count = 0
    for k in range(1, m + 1):
        a, b = k, m
        while b:
            a, b = b, a % b
        if a == 1:
            count += 1
    return count


class TestCyclotomicPoly:
    def test_small(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(5) == (1, 1, 1, 1, 1)
        assert cyclotomic_poly(9) == (1, 0, 0, 1, 0, 0, 1)

    def test_degree_and_divisibility(self):
        for m in range(1, 31):
            phi = cyclotomic_poly(m)
            assert phi[-1] == 1
            assert len(phi) - 1 == totient(m)
            # product over divisors rebuilds x^m - 1
            prod = [1]
            for d in range(1, m + 1):
                if m % d == 0:
                    p = cyclotomic_poly(d)
                    out = [0] * (len(prod) + len(p) - 1)
                    for i, a in enumerate(prod):
                        for j, b in enumerate(p):
                            out[i + j] += a * b
                    prod = out
            want = [0] * (m + 1)
            want[0], want[m] = -1, 1
            assert prod == want, m


class TestCycField:
    def test_root_relations(self):
        for r in range(1, 9):
            f = CycField(2 * r + 1)
            z = f.zeta(1)
            assert z ** f.m == f.one
            total = f.zero
            for k in range(f.m):
                total = total + z ** k
            assert total == f.zero

    def test_as_integer(self):
        f = CycField(5)
        assert as_integer(f.from_int(1)) == 1
        with pytest.raises(ValueError):
            as_integer(f.zeta(1))

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError):
            CycField(5).one + CycField(7).one


class TestProductOracle:
    """CycInt products against schoolbook convolution and remainder by a
    Phi_m the oracle builds for itself."""

    ORDERS = range(1, 31)

    @staticmethod
    def rand_coords(rng, d, bits, density=1.0):
        return [rng.randint(-2 ** bits, 2 ** bits) if rng.random() < density else 0
                for _ in range(d)]

    def check(self, f, a, b):
        want = brute_cyclotomic_mul(f.m, a, b)
        assert list((f.element(a) * f.element(b)).coords) == want, (f.m, a, b)

    def test_zero_operands(self):
        rng = random.Random(11)
        for m in self.ORDERS:
            f = CycField(m)
            a = self.rand_coords(rng, f.degree, 40)
            zero = [0] * f.degree
            self.check(f, zero, a)
            self.check(f, a, zero)
            self.check(f, zero, zero)

    def test_signed_monomials(self):
        rng = random.Random(12)
        for m in self.ORDERS:
            f = CycField(m)
            for _ in range(6):
                mono = [0] * f.degree
                mono[rng.randrange(f.degree)] = rng.choice((1, -1))
                dense = self.rand_coords(rng, f.degree, rng.choice((1, 20, 200)))
                self.check(f, mono, dense)
                self.check(f, dense, mono)
                self.check(f, mono, mono)

    def test_mixed_signs_up_to_2_pow_200(self):
        rng = random.Random(13)
        for m in self.ORDERS:
            f = CycField(m)
            for bits in (1, 7, 64, 200):
                for density in (1.0, 0.4):
                    self.check(f, self.rand_coords(rng, f.degree, bits, density),
                               self.rand_coords(rng, f.degree, bits, density))
            # every product coefficient at its largest: d terms of (2^200-1)^2
            top = 2 ** 200 - 1
            for extreme in ([top] * f.degree, [(-1) ** i * top for i in range(f.degree)]):
                self.check(f, extreme, extreme)
                self.check(f, extreme, [-c for c in extreme])

    def test_unequal_operand_sizes(self):
        # one operand's slot share is tiny, the other's huge: the slot
        # width must still cover every product coefficient
        rng = random.Random(14)
        for m in self.ORDERS:
            f = CycField(m)
            for small_bits, big_bits in ((1, 200), (0, 150), (3, 90)):
                small = self.rand_coords(rng, f.degree, small_bits)
                big = self.rand_coords(rng, f.degree, big_bits)
                big[-1] = -(2 ** big_bits)
                self.check(f, small, big)
                self.check(f, big, small)

    def test_integer_scalars(self):
        rng = random.Random(15)
        for m in self.ORDERS:
            f = CycField(m)
            a = self.rand_coords(rng, f.degree, 50)
            for c in (0, 1, -1, 3 ** 90, -(2 ** 130)):
                want = brute_cyclotomic_mul(m, a, [c] + [0] * (f.degree - 1))
                assert list((f.element(a) * c).coords) == want
                assert list((c * f.element(a)).coords) == want

    def test_associativity(self):
        rng = random.Random(16)
        for m in self.ORDERS:
            f = CycField(m)
            for _ in range(4):
                x, y, z = (f.element(self.rand_coords(rng, f.degree, rng.choice((2, 60))))
                           for _ in range(3))
                assert (x * y) * z == x * (y * z)

    def test_element_reduces_long_vectors(self):
        # lengths past the degree, up to m (one fold-free reduction pass for
        # prime powers), and past m
        rng = random.Random(17)
        for m in self.ORDERS:
            f = CycField(m)
            for length in sorted({f.degree + 1, m, 2 * m - 1, 3 * m + 2}):
                coords = self.rand_coords(rng, length, 30)
                want = brute_cyclotomic_mul(m, coords, [1])
                assert list(f.element(coords).coords) == want, (m, length)


def coords_of(x):
    return list(x.coords) if isinstance(x, CycInt) else [x]


class TestDotOracle:
    """CycInt.dot, one packed sum and one reduction, against the sum of
    schoolbook products."""

    ORDERS = range(1, 31)
    rand_coords = staticmethod(TestProductOracle.rand_coords)

    def check(self, f, xs, ys):
        want = brute_cyclotomic_dot(f.m, [coords_of(x) for x in xs],
                                    [coords_of(y) for y in ys])
        got = CycInt.dot(xs, ys)
        assert isinstance(got, CycInt) and got.field == f
        assert list(got.coords) == want, (f.m, xs, ys)

    def test_random_vectors(self):
        rng = random.Random(21)
        for m in self.ORDERS:
            f = CycField(m)
            for length in range(1, 9):
                bits = rng.choice((1, 9, 64, 200))
                xs, ys = ([f.element(self.rand_coords(rng, f.degree, bits, 0.7))
                           for _ in range(length)] for _ in range(2))
                self.check(f, xs, ys)

    def test_zero_vectors(self):
        rng = random.Random(22)
        for m in self.ORDERS:
            f = CycField(m)
            for length in (1, 3, 8):
                zeros = [f.zero] * length
                dense = [f.element(self.rand_coords(rng, f.degree, 30)) for _ in range(length)]
                self.check(f, zeros, zeros)
                self.check(f, zeros, dense)
                self.check(f, dense, zeros)

    def test_all_coordinates_at_the_slot_edge(self):
        # every coordinate +-(2^t - 1): each sum coefficient is as large as
        # the slot width allows, len * d terms of (2^t - 1)^2 in the middle
        for m in self.ORDERS:
            f = CycField(m)
            for t in (1, 7, 64, 200):
                top = 2 ** t - 1
                plus = f.element([top] * f.degree)
                minus = f.element([-top] * f.degree)
                alternating = f.element([(-1) ** i * top for i in range(f.degree)])
                for length in range(1, 9):
                    self.check(f, [plus] * length, [plus] * length)
                    self.check(f, [plus] * length, [minus] * length)
                    self.check(f, [alternating] * length, [alternating] * length)

    def test_int_entries(self):
        rng = random.Random(23)
        for m in self.ORDERS:
            f = CycField(m)
            for length in range(1, 6):
                xs = [rng.choice((0, 1, -5, 2 ** 90,
                                  f.element(self.rand_coords(rng, f.degree, 40))))
                      for _ in range(length)]
                ys = [f.element(self.rand_coords(rng, f.degree, 40)) for _ in range(length)]
                self.check(f, xs, ys)
                self.check(f, ys, xs)
        assert CycInt.dot([2, 3], [5, -7]) == -11

    def test_mixed_fields_rejected(self):
        a, b = CycField(5).zeta(1), CycField(7).zeta(1)
        for xs, ys in (([a], [b]), ([a, b], [a, a]), ([a, a], [a, b]), ([3, b], [a, 1])):
            with pytest.raises(ValueError):
                CycInt.dot(xs, ys)


def assert_canonical(x, f):
    # a result built without CycInt.__init__ still has its invariants
    assert type(x) is CycInt and x.field == f
    assert type(x.coords) is tuple and len(x.coords) == f.degree


class TestRotation:
    """Products with a factor c x^e, which are a cyclic shift, on every
    order to 30: Phi_m is x - 1 (m = 1), all ones (m prime, reduced in one
    pass), ones spaced w apart (m = p^k, one pass too), or has gaps and
    terms of both signs (15, 21)."""

    def test_against_schoolbook(self):
        rng = random.Random(24)
        for m in range(1, 31):
            f = CycField(m)
            for c in (1, -1, 3, -(2 ** 70)):
                for e in range(f.degree):
                    mono = [0] * f.degree
                    mono[e] = c
                    dense = TestProductOracle.rand_coords(rng, f.degree, rng.choice((3, 80)))
                    want = brute_cyclotomic_mul(m, mono, dense)
                    x, y = f.element(mono), f.element(dense)
                    assert list((x * y).coords) == want, (m, c, e)
                    assert list((y * x).coords) == want, (m, c, e)
                    assert list((x * x).coords) == brute_cyclotomic_mul(m, mono, mono)
                    assert_canonical(x * y, f)

    def test_units_past_the_degree(self):
        # c x^e with e from deg Phi_m to m - 1 has dense coordinates, so a
        # product with it is an ordinary packed product, not a rotation
        rng = random.Random(30)
        for m in range(1, 31):
            f = CycField(m)
            for e in range(f.degree, m):
                for c in (1, -1, 3):
                    u = f.zeta(e) * c
                    dense = TestProductOracle.rand_coords(rng, f.degree, rng.choice((3, 80)))
                    want = brute_cyclotomic_mul(m, [0] * e + [c], dense)
                    y = f.element(dense)
                    assert list((u * y).coords) == want, (m, c, e)
                    assert list((y * u).coords) == want, (m, c, e)
                    assert_canonical(u * y, f)


class TestAddSubNeg:
    """+, - and negation map over the coordinate tuples; against the
    oracle's reduction of the coordinate-wise sums, on every order to 30."""

    def test_against_schoolbook(self):
        rng = random.Random(27)
        for m in range(1, 31):
            f = CycField(m)
            for bits in (1, 70):
                a, b = (TestProductOracle.rand_coords(rng, f.degree, bits) for _ in range(2))
                x, y = f.element(a), f.element(b)
                cases = [(x + y, [p + q for p, q in zip(a, b)]),
                         (x - y, [p - q for p, q in zip(a, b)]),
                         (-x, [-p for p in a])]
                for c in (0, 3, -(2 ** 80)):
                    shifted = [a[0] + c] + a[1:]
                    cases += [(x + c, shifted), (c + x, shifted),
                              (x - c, [a[0] - c] + a[1:]),
                              (c - x, [c - a[0]] + [-p for p in a[1:]])]
                for got, coeffs in cases:
                    assert_canonical(got, f)
                    assert list(got.coords) == brute_cyclotomic_mul(m, coeffs, [1]), (m, coeffs)

    def test_mixed_orders_rejected(self):
        x, y = CycField(9).zeta(1), CycField(7).zeta(1)
        for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x == y):
            with pytest.raises(ValueError):
                op()


def brute_krylov(m, R, A, v):
    """[R v, R A v, ..., R A^(s-1) v] on coordinate lists: every dot
    product a sum of schoolbook products, reduced by the oracle's Phi_m."""
    out = []
    for _ in range(len(A)):
        out.append(brute_cyclotomic_dot(m, R, v))
        v = [brute_cyclotomic_dot(m, row, v) for row in A]
    return out


class TestKrylovPass:
    """CycInt.krylov, the packed Krylov pass of one Berkowitz step, and
    det_cofactor on top of it, on prime and composite orders.  Coordinates
    up to 2^100 make A^t v grow by about 100 bits a step, so the rows are
    packed again within a step."""

    ORDERS = (7, 9, 15, 21, 25)

    @staticmethod
    def entry(rng, f, bits):
        return rng.choice((0, 1, -3, 2 ** 90, f.zero, f.element(
            TestProductOracle.rand_coords(rng, f.degree, bits, 0.8))))

    def check(self, f, R, A, v):
        if all(isinstance(x, int) for x in R + v + sum(A, [])):
            v = [f.element(coords_of(x)) for x in v]  # krylov needs a CycInt entry
        got = CycInt.krylov(R, A, v)
        want = brute_krylov(f.m, [coords_of(x) for x in R],
                            [[coords_of(x) for x in row] for row in A], [coords_of(x) for x in v])
        assert len(got) == len(A)
        for t, (g, w) in enumerate(zip(got, want)):
            assert_canonical(g, f)
            assert list(g.coords) == w, (f.m, t)

    def test_against_schoolbook(self):
        rng = random.Random(28)
        for m in self.ORDERS:
            f = CycField(m)
            for s in range(1, 6):
                for bits in (3, 100):
                    R = [self.entry(rng, f, bits) for _ in range(s)]
                    A = [[self.entry(rng, f, bits) for _ in range(s)] for _ in range(s)]
                    v = [self.entry(rng, f, bits) for _ in range(s)]
                    self.check(f, R, A, v)

    def test_all_coordinates_at_the_slot_edge(self):
        # every coordinate 2^100 - 1: the first step's sums are as large as
        # its slot width allows, and every later step widens the slots
        top = 2 ** 100 - 1
        for m in self.ORDERS:
            f = CycField(m)
            plus = f.element([top] * f.degree)
            minus = f.element([-top] * f.degree)
            for s in (1, 3, 5):
                self.check(f, [plus] * s, [[plus] * s for _ in range(s)], [plus] * s)
                self.check(f, [plus] * s, [[minus] * s for _ in range(s)], [plus] * s)

    def test_int_entries_and_zero_columns(self):
        f = CycField(15)
        z = f.zeta(1)
        self.check(f, [z, 2], [[1, z], [0, -3]], [0, 0])
        self.check(f, [0, 0], [[z, z], [z, z]], [z, 1])
        # the steps whose R, A and C are all ints take the generic Krylov pass
        rows = [[z, 1, 0, 2], [1, 2, 3, 4], [0, 4, 5, 6], [z, 7, -1, 2]]
        assert det_cofactor(rows) == det_permutation_expansion(rows)

    def test_det_cofactor_against_permutation_expansion(self):
        rng = random.Random(29)
        for m in self.ORDERS:
            f = CycField(m)
            for n in range(1, 7):
                rows = [[self.entry(rng, f, 100) for _ in range(n)] for _ in range(n)]
                assert det_cofactor(rows) == det_permutation_expansion(rows), (m, n)
                if n > 1:  # the outermost step's Krylov vector is zero
                    for row in rows:
                        row[0] = 0
                    assert det_cofactor(rows) == det_permutation_expansion(rows) == 0, (m, n)


class TestRingDeterminant:
    def test_int_entries_in_a_cyclotomic_matrix(self):
        f = CycField(9)
        z = f.zeta(1)
        assert det_cofactor([[z, 0, 1], [1, z, 0], [0, 2, z]]) == z ** 3 + 2
        rng = random.Random(25)
        for m in (9, 11, 25):
            f = CycField(m)
            for n in range(1, 6):
                for _ in range(4):
                    rows = [[rng.choice((0, 1, -3, 17, f.element(
                                TestProductOracle.rand_coords(rng, f.degree, 12))))
                             for _ in range(n)] for _ in range(n)]
                    assert det_cofactor(rows) == det_permutation_expansion(rows), (m, rows)


class TestShiftedVector:
    def test_order_three_collapses_to_one(self):
        v = shifted_roots_vector(1)
        assert v[0] == CycField(3).one

    def test_first_power_sum(self):
        for r in range(1, 9):
            assert as_integer(power(1, shifted_roots_vector(r))) == 1

    def test_first_elementary(self):
        for r in range(2, 9):
            assert as_integer(elementary_prefix(1, shifted_roots_vector(r))[1]) == 1

    def test_complete_six_gives_table_value(self):
        assert as_integer(complete_prefix(6, shifted_roots_vector(3))[6]) == 28


class TestDoubledVector:
    def test_elementary_window(self):
        for r in range(1, 9):
            es = elementary_prefix(2 * r + 4, doubled_roots_vector(r))
            for n in range(2 * r + 5):
                assert as_integer(es[n]) == (1 if n <= 2 * r else 0), (r, n)

    def test_complete_pattern(self):
        for r in range(1, 5):
            p = 2 * r + 1
            hs = complete_prefix(3 * p, doubled_roots_vector(r))
            for n in range(3 * p + 1):
                m = n % (2 * p)
                want = 1 if m in (0, 1) else (-1 if m in (p, p + 1) else 0)
                assert as_integer(hs[n]) == want, (r, n)

    def test_power_pattern(self):
        v = doubled_roots_vector(2)
        assert as_integer(power(5, v)) == -4
        for r in (1, 3):
            p = 2 * r + 1
            w = doubled_roots_vector(r)
            for n in range(1, 3 * p + 1):
                want = (-1 if n % 2 else 1) * (-1 + p * (n % p == 0))
                assert as_integer(power(n, w)) == want, (r, n)

    def test_complete_three_at_order_five(self):
        assert as_integer(complete_prefix(3, doubled_roots_vector(2))[3]) == 0


class TestThirdResult:
    def test_elementary_closed_form(self):
        # e_m of the shifted roots equals the telescoped ballot sum and the
        # signed binomial, for every m up to r
        for r in range(1, 9):
            es = elementary_prefix(r, shifted_roots_vector(r))
            for m in range(r + 1):
                val = as_integer(es[m])
                assert val == sum(ballot(m - r - 1, k) for k in range(m // 2 + 1))
                assert val == binom(m - r - 1, m // 2)
                sign = -1 if (m // 2) % 2 else 1
                assert val == sign * binom(r - (m + 1) // 2, m // 2)


class TestDiscriminant:
    def test_small_values(self):
        assert discriminant_square_check(1)   # det^2 = 1 = 3^0
        assert discriminant_square_check(2)   # det^2 = 5
        assert discriminant_square_check(3)   # det^2 = 49

    def test_all_prime_orders_to_eight(self):
        for r in (1, 2, 3, 5, 6, 8):
            assert discriminant_square_check(r)

    def test_composite_order_rejected(self):
        with pytest.raises(ValueError):
            discriminant_square_check(4)
