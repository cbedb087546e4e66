import random
from functools import partial

import pytest

from symident import cyclotomic
from symident.combinat import ballot, binom
from symident.cyclotomic import (CycField, CycInt, cyclotomic_poly, discriminant_square,
                                 roots_vectors, vandermonde_rows)
from symident.exactalg import det_cofactor
from symident.symfun import PointVector, complete_prefix, elementary_prefix, power, power_prefix

from symident.sequences import (_doubled_roots_h, _doubled_roots_p, fib_recurrence,
                                lucas_recurrence)

from oracles import (brute_cyclotomic_dot, brute_cyclotomic_mul, brute_cyclotomic_prefixes,
                     brute_cyclotomic_reduce, det_permutation_expansion, two_step_prefixes)


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
            total = f.from_int(0)
            for k in range(f.m):
                total = total + z ** k
            assert total == 0

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError):
            CycField(5).one + CycField(7).one

    def test_rational_integers_hash_like_ints(self):
        for m in (1, 2, 7, 15):
            f = CycField(m)
            for c in (0, 3, -(2 ** 70)):
                x = f.from_int(c)
                assert x == c and len({x, c}) == 1 and c in {x} and x in {c}, (m, c)
        f = CycField(7)
        assert len({f.zeta(1), f.zeta(8), f.from_int(3), 3}) == 2


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

    def test_all_coordinates_at_the_slot_edge(self):
        # dense products of full-length vectors, every coordinate
        # +-(2^t - 1): a folded coefficient collects d products of
        # (2^t - 1)^2, as large as the slot width allows; prime, prime-power
        # and composite orders
        for m in (9, 17, 25, 33):
            f = CycField(m)
            for t in (1, 7, 64, 200):
                top = 2 ** t - 1
                plus, minus = [top] * f.degree, [-top] * f.degree
                alternating = [(-1) ** i * top for i in range(f.degree)]
                for a, b in ((plus, plus), (plus, minus), (minus, minus),
                             (alternating, alternating), (alternating, plus)):
                    assert f._shifted(f.element(a).rep, f.element(b).rep) is None
                    self.check(f, a, b)

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
    """A one-row CycInt.matvec, one packed sum and one reduction, against
    the sum of schoolbook products."""

    ORDERS = range(1, 31)
    rand_coords = staticmethod(TestProductOracle.rand_coords)

    def check(self, f, xs, ys):
        want = brute_cyclotomic_dot(f.m, [coords_of(x) for x in xs],
                                    [coords_of(y) for y in ys])
        (got,) = CycInt.matvec([xs])(ys)
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
                zeros = [f.from_int(0)] * length
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
        (got,) = CycInt.matvec([[2, 3]])([5, -7])
        assert type(got) is int and got == -11

    def test_mixed_fields_rejected(self):
        a, b = CycField(5).zeta(1), CycField(7).zeta(1)
        for xs, ys in (([a], [b]), ([a, b], [a, a]), ([a, a], [a, b]), ([3, b], [a, 1]),
                       ([3, 4], [a, b])):
            with pytest.raises(ValueError):
                CycInt.matvec([xs])(ys)


def assert_canonical(x, f):
    # a result built by cyclotomic._cyc has the invariants of a value
    assert type(x) is CycInt and x.field == f
    assert type(x.coords) is tuple and len(x.coords) == f.degree


class TestRotation:
    """Products with a sparse factor, which are at most two cyclic shifts
    reduced once, on every order to 30: Phi_m is x - 1 (m = 1), all ones (m
    prime, reduced in one pass), ones spaced w apart (m = p^k, one pass
    too), or has gaps and terms of both signs (15, 21).  The sparse factors
    are the signed roots of unity +-x^e for every e < m (dense past the
    degree) and the values with at most two nonzero coordinates."""

    COEFFS = (1, -1, 3, -(2 ** 70))

    @staticmethod
    def check(f, x, y, want):
        for got in (x * y, y * x):
            assert_canonical(got, f)
            assert list(got.coords) == want, (f.m, x, y)

    def test_against_schoolbook(self):
        rng = random.Random(24)
        for m in range(1, 31):
            f = CycField(m)
            for c in self.COEFFS:
                for e in range(f.degree):
                    mono = [0] * f.degree
                    mono[e] = c
                    dense = TestProductOracle.rand_coords(rng, f.degree, rng.choice((3, 80)))
                    x, y = f.element(mono), f.element(dense)
                    self.check(f, x, y, brute_cyclotomic_mul(m, mono, dense))
                    assert list((x * x).coords) == brute_cyclotomic_mul(m, mono, mono)

    def test_every_signed_root_of_unity(self):
        rng = random.Random(31)
        for m in range(1, 31):
            f = CycField(m)
            for e in range(m):
                for c in (1, -1):
                    unit = [0] * e + [c]
                    u = f.element(unit)
                    dense = TestProductOracle.rand_coords(rng, f.degree, rng.choice((3, 80)))
                    self.check(f, u, f.element(dense), brute_cyclotomic_mul(m, unit, dense))
                    self.check(f, u, u, brute_cyclotomic_mul(m, unit, unit))

    def test_every_two_coordinate_factor(self):
        # the oracle is linear in each operand, so the product by
        # c1 x^i + c2 x^j is c1 and c2 times its products by x^i and x^j
        rng = random.Random(32)
        for m in range(1, 31):
            f = CycField(m)
            d = f.degree
            dense = TestProductOracle.rand_coords(rng, d, rng.choice((3, 80)))
            y = f.element(dense)
            by_unit = [brute_cyclotomic_mul(m, [0] * i + [1], dense) for i in range(d)]
            for i in range(d):
                for j in range(i + 1, d):
                    for c1 in self.COEFFS:
                        for c2 in self.COEFFS:
                            factor = [0] * d
                            factor[i], factor[j] = c1, c2
                            want = [c1 * p + c2 * q for p, q in zip(by_unit[i], by_unit[j])]
                            self.check(f, f.element(factor), y, want)

    def test_zero_factor(self):
        rng = random.Random(33)
        for m in range(1, 31):
            f = CycField(m)
            zero = [0] * f.degree
            dense = TestProductOracle.rand_coords(rng, f.degree, 80)
            for other in (dense, [0] * (f.degree - 1) + [-(2 ** 70)], zero):
                self.check(f, f.from_int(0), f.element(other), zero)

    def test_units_past_the_degree(self, monkeypatch):
        # c x^e with e from deg Phi_m to m - 1 has dense coordinates; for
        # c = +-1 it is still found among the roots of unity, and a product
        # with it is a rotation, not a packed product
        rng = random.Random(30)
        packed = []
        mul = cyclotomic._int_poly_mul
        monkeypatch.setattr(cyclotomic, "_int_poly_mul",
                            lambda a, b, unpack: packed.append(unpack) or mul(a, b, unpack))
        for m in range(1, 31):
            f = CycField(m)
            for e in range(f.degree, m):
                for c in (1, -1, 3):
                    u = f.zeta(e) * c
                    dense = TestProductOracle.rand_coords(rng, f.degree, rng.choice((3, 80)))
                    want = brute_cyclotomic_mul(m, [0] * e + [c], dense)
                    y = f.element(dense)
                    del packed[:]
                    assert list((u * y).coords) == want, (m, c, e)
                    assert list((y * u).coords) == want, (m, c, e)
                    assert_canonical(u * y, f)
                    assert not packed or c == 3, (m, c, e)


def test_doubled_root_prefixes_make_no_packed_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("a packed product")

    vectors = [roots_vectors(r)[0] for r in range(1, 13)]
    monkeypatch.setattr(cyclotomic, "_int_poly_mul", refuse)
    for r, v in enumerate(vectors, 1):
        n = 2 * r + 3
        assert elementary_prefix(n, v)[n] == 0
        assert len(complete_prefix(n, v)) == len(power_prefix(n, v)) + 1 == n + 1


def test_root_prefixes_make_no_packed_product_and_no_reduction(monkeypatch):
    # a doubled root is one stored term and a shifted root two, so every
    # step of the h and p prefixes is cyclic shifts and sums, exact modulo
    # x^m - 1; only reading a value reduces it
    cases = [(r, roots_vectors(r)[0], roots_vectors(r)[1]) for r in (9, 10, 12)]
    calls = []
    for owner, name in ((cyclotomic, "_int_poly_mul"), (CycField, "_reduce")):
        method = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, name=name, method=method:
                            calls.append(name) or method(*args))
    # the suite_roots and cross_oracle windows
    prefixes = [(r, top, complete_prefix(top, doubled), power_prefix(top, doubled),
                 complete_prefix(59, shifted), power_prefix(60, shifted))
                for r, doubled, shifted in cases for top in [6 * (2 * r + 1)]]
    assert calls == []
    for r, top, dh, dp, sh, sp in prefixes:
        F, L = fib_recurrence(r, 60), lucas_recurrence(r, 60)
        assert dh == [_doubled_roots_h(r, n) for n in range(top + 1)], r
        assert dp == [_doubled_roots_p(r, n) for n in range(1, top + 1)], r
        assert sh == [F[n] for n in range(1, 61)] and sp == [L[n] for n in range(1, 61)], r


def packed_addmul(acc, a, b):
    """acc + a * b on the packed view of CycInt.packed, at the width of the
    bound on the 1-norms that the prefix recurrences would give."""
    (pa, pb, pacc), unpack = CycInt.packed([a, b, acc], lambda s: max(s[1], s[2] + s[0] * s[1]))
    (got,) = unpack([pacc + pa * pb])
    assert_canonical(got, a.field)
    return got


class TestPackedPrefixes:
    """The e, h and p prefixes of CycInt vectors on CycInt.packed, against
    the acc + z * x recurrences and the powers of CycInt arithmetic, and
    against the same recurrences on coordinate lists with schoolbook
    products: entries of one, two and three or more stored terms and int
    entries, at prime, prime-power and composite orders, m = 2 included."""

    ORDERS = (2, 7, 9, 25, 33)
    COEFFS = (1, -1, 2, -(2 ** 40))

    @staticmethod
    def entry(rng, f, terms, coeffs):
        # c_1 x^(e_1) + ... stored as such, and its coefficient list
        stored = [0] * f.m
        for e in rng.sample(range(f.m), min(terms, f.m)):
            stored[e] = rng.choice(coeffs)
        return f.element(stored), stored

    def check(self, f, entries, nmax):
        v = PointVector([x for x, _ in entries])
        got = elementary_prefix(nmax, v), complete_prefix(nmax, v), power_prefix(nmax, v)
        for values in got:
            for x in values:
                assert_canonical(x, f)
        e, h = two_step_prefixes(nmax, v)
        assert got == (e, h, [power(n, v) for n in range(1, nmax + 1)]), (f.m, nmax)
        want = brute_cyclotomic_prefixes(f.m, [c for _, c in entries], nmax)
        assert [[list(x.coords) for x in values] for values in got] == list(want), (f.m, nmax)

    def test_against_two_oracles(self):
        rng = random.Random(61)
        for m in self.ORDERS:
            f = CycField(m)
            r = (m - 1) // 2
            # one and two stored terms of coefficients +-1, as the roots have
            roots = [self.entry(rng, f, t, (1, -1)) for t in (1, 2, 2)]
            # one, two and three or more terms of every coefficient, and ints
            mixed = [self.entry(rng, f, t, self.COEFFS) for t in (1, 2, 3, 5)]
            mixed += [(c, [c]) for c in (3, -(2 ** 40))]
            for entries, tops in ((roots, (0, 1, 6 * (2 * r + 1))), (mixed, (0, 1, 7)),
                                  (mixed[::-1][:3], (1, 7))):
                for nmax in tops:
                    self.check(f, entries, nmax)

    def test_power_prefix_below_one_is_empty(self):
        v = roots_vectors(3)[1]
        assert power_prefix(0, v) == power_prefix(-2, v) == []

    def test_mixed_fields_rejected(self):
        a, b = CycField(5).zeta(1), CycField(7).zeta(2)
        for entries in ([a, b], [a, 3, b], [2, a, b]):
            for prefix in (elementary_prefix, complete_prefix, power_prefix):
                with pytest.raises(ValueError):
                    prefix(3, PointVector(entries))

    def test_values_at_the_slot_edge(self):
        # every family's largest stored coefficient equals its bound on the
        # 1-norms: at nmax = 1 it is 2^40 - 1, the largest value the width
        # holds; and (n + 1) 2^n for h_n at 2 x^3, 2 x^3.  A slot one bit
        # narrower cannot hold either
        f = CycField(7)
        top = 2 ** 40 - 1
        for sign in (1, -1):
            for nmax, stored in ((1, ([0, 0, 0, sign], [0, 0, 0, sign * (top - 1)])),
                                 (6 * 7, ([0, 0, 0, 2 * sign], [0, 0, 0, 2 * sign]))):
                self.check(f, [(f.element(c), c) for c in stored], nmax)
        v = PointVector([f.zeta(3) * 2] * 2)
        assert complete_prefix(42, v)[42].rep == (43 * 2 ** 42,) + (0,) * 6  # x^126 = 1
        assert power_prefix(1, PointVector([f.zeta(3), f.zeta(3) * (top - 1)]))[0].rep[3] == top


class TestStoredRepresentative:
    """A value is stored as any polynomial of its class modulo x^m - 1 and
    reduced modulo Phi_m only when observed, so no observation may depend
    on which representative a chain of operations left stored.  Prime,
    prime-power and composite orders."""

    ORDERS = (7, 9, 15, 21, 25)

    @staticmethod
    def sparse(rng, f):
        # c x^e or c1 x^i + c2 x^j, e < m, stored as such, and its
        # coefficient list
        x, coeffs = f.from_int(0), [0] * f.m
        for _ in range(rng.choice((1, 2))):
            e, c = rng.randrange(f.m), rng.choice((1, -1, 2, -(2 ** 40)))
            x, coeffs[e] = x + f.zeta(e) * c, coeffs[e] + c
        return x, coeffs

    def test_chains_against_reduction_after_every_step(self):
        rng = random.Random(51)
        for m in self.ORDERS:
            f = CycField(m)
            reduced, mul = partial(brute_cyclotomic_reduce, m), partial(brute_cyclotomic_mul, m)
            # (value, its oracle coordinates, reduced after every step)
            start = []
            for _ in range(4):
                x, coeffs = self.sparse(rng, f)
                dense = TestProductOracle.rand_coords(rng, f.degree, 30)
                start += [(x, reduced(coeffs)), (f.element(dense), dense)]
            pool = list(start)
            for _ in range(80):
                (x, a), (y, b) = rng.choice(pool), rng.choice(pool)
                c = rng.choice((0, 1, -1, 5, -(3 ** 30)))
                s, sc = self.sparse(rng, f)
                op = rng.randrange(8)
                if op == 0:
                    z, want = x + y, [p + q for p, q in zip(a, b)]
                elif op == 1:
                    z, want = x - y, [p - q for p, q in zip(a, b)]
                elif op == 2:
                    z, want = -x, [-p for p in a]
                elif op == 3:
                    z, want = rng.choice([(x * c, [c * p for p in a]),
                                          (x + c, [a[0] + c] + a[1:]),
                                          (x - c, [a[0] - c] + a[1:]),
                                          (c - x, [c - a[0]] + [-p for p in a[1:]])])
                elif op == 4:
                    z, want = (s * x if rng.random() < 0.5 else x * s), mul(sc, a)
                elif op == 5:  # a dense product; y is from the start, so sizes stay small
                    (y, b) = rng.choice(start[1::2])
                    z, want = x * y, mul(a, b)
                elif op == 6:
                    z, want = packed_addmul(x, s, y), [p + q for p, q in zip(a, mul(sc, b))]
                else:
                    z, want = packed_addmul(y, x, s), [p + q for p, q in zip(b, mul(a, sc))]
                pool.append((z, reduced(want)))
            assert sum(any(x.rep[f.degree:]) for x, _ in pool) > 20, m  # not canonical
            for x, want in pool:
                assert list(x.coords) == want, m
                assert x == f.element(want) and hash(x) == hash(f.element(want)), m

    def test_packed_step_of_dense_operands(self):
        # a and b with three or more nonzero stored coordinates each leave
        # the one-pass shift of CycInt.__mul__ (_shifted gives None); the
        # packed step rotates b once per stored term of a; self is a
        # nonzero, unreduced value
        rng = random.Random(53)
        for m in self.ORDERS:
            f = CycField(m)
            for _ in range(10):
                x, _ = self.sparse(rng, f)
                x = x + f.element(TestProductOracle.rand_coords(rng, f.degree, 30))
                a, b = (f.element(TestProductOracle.rand_coords(rng, m, 20)) for _ in range(2))
                assert x != 0
                assert m - a.rep.count(0) >= 3 and m - b.rep.count(0) >= 3
                assert f._shifted(a.rep, b.rep) is None
                want = [p + q for p, q in zip(x.coords, brute_cyclotomic_mul(
                    m, a.coords, b.coords))]
                got = packed_addmul(x, a, b)
                assert list(got.coords) == want == list((x + a * b).coords), m
                assert got == f.element(want), m

    def test_two_representatives_of_one_class(self):
        rng = random.Random(52)
        for m in self.ORDERS:
            f = CycField(m)
            if m == 7:  # prime: 1 + x + ... + x^(m-1) is Phi_m
                zeros = [sum((f.zeta(k) for k in range(m)), f.from_int(0))]
            else:  # x^j Phi_m
                zeros = [sum((f.zeta(j + k) * c for k, c in enumerate(cyclotomic_poly(m))),
                             f.from_int(0)) for j in range(m)]
            for zero in zeros:
                assert any(zero.rep), m
                assert zero == 0 and zero == f.from_int(0) and hash(zero) == hash(0), m
                assert zero.is_rational_integer() and zero.coords == (0,) * f.degree
                y = f.element(TestProductOracle.rand_coords(rng, f.degree, 40))
                other = y + zero * rng.choice((1, -7, 2 ** 50))
                assert other.rep != y.rep and other == y and y == other, m
                assert hash(other) == hash(y) and len({other, y}) == 1 and repr(other) == repr(y)
                c = rng.randint(-99, 99)
                assert other - y + c == c and hash(other - y + c) == hash(c), m


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
    """The Krylov pass of one Berkowitz step on one CycInt.matvec map of
    [R; A], applied to v, A v, ..., and det_cofactor on top of it, on prime
    and composite orders.  Coordinates up to 2^100 make A^t v grow by about
    100 bits a step, so the map packs its rows again within a pass."""

    ORDERS = (7, 9, 15, 21, 25)

    @staticmethod
    def entry(rng, f, bits):
        return rng.choice((0, 1, -3, 2 ** 90, f.from_int(0), f.element(
            TestProductOracle.rand_coords(rng, f.degree, bits, 0.8))))

    @staticmethod
    def krylov(R, A, v):
        step, out = CycInt.matvec([R, *A]), []
        for _ in A:
            Rv, *v = step(v)
            out.append(Rv)
        return out

    def check(self, f, R, A, v):
        want = brute_krylov(f.m, [coords_of(x) for x in R],
                            [[coords_of(x) for x in row] for row in A], [coords_of(x) for x in v])
        if all(isinstance(x, int) for x in R + v + sum(A, [])):
            got = self.krylov(R, A, v)  # ints only: ints out
            assert all(type(g) is int for g in got)
            assert [list(f.from_int(g).coords) for g in got] == want
            v = [f.element(coords_of(x)) for x in v]  # an all-int block, a CycInt v
        got = self.krylov(R, A, v)
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
        # the steps whose R, A and C are all ints take the ring-generic map
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


def test_roots_vectors_are_built_once_from_single_root_terms():
    for r in range(1, 9):
        doubled, shifted = roots_vectors(r)
        assert roots_vectors(r)[0] is doubled and roots_vectors(r)[1] is shifted
        f = doubled[0].field
        assert f.m == 2 * r + 1 and shifted[0].field is f
        js = list(range(1, r + 1))
        # the same stored coordinates as -zeta^j, -zeta^-j and -(zeta^j +
        # zeta^(m-j)) built directly
        assert [x.rep for x in doubled] == [(-f.zeta(j)).rep for j in js + [-j for j in js]]
        assert [x.rep for x in shifted] == [(-(f.zeta(j) + f.zeta(f.m - j))).rep for j in js]


class TestShiftedVector:
    def test_order_three_collapses_to_one(self):
        v = roots_vectors(1)[1]
        assert v[0] == CycField(3).one

    def test_first_power_sum(self):
        for r in range(1, 9):
            assert power(1, roots_vectors(r)[1]) == 1

    def test_first_elementary(self):
        for r in range(2, 9):
            assert elementary_prefix(1, roots_vectors(r)[1])[1] == 1

    def test_complete_six_gives_table_value(self):
        assert complete_prefix(6, roots_vectors(3)[1])[6] == 28


class TestDoubledVector:
    def test_elementary_window(self):
        for r in range(1, 9):
            es = elementary_prefix(2 * r + 4, roots_vectors(r)[0])
            for n in range(2 * r + 5):
                assert es[n] == (1 if n <= 2 * r else 0), (r, n)

    def test_complete_pattern(self):
        for r in range(1, 5):
            p = 2 * r + 1
            hs = complete_prefix(3 * p, roots_vectors(r)[0])
            for n in range(3 * p + 1):
                m = n % (2 * p)
                want = 1 if m in (0, 1) else (-1 if m in (p, p + 1) else 0)
                assert hs[n] == want, (r, n)

    def test_power_pattern(self):
        v = roots_vectors(2)[0]
        assert power(5, v) == -4
        for r in (1, 3):
            p = 2 * r + 1
            w = roots_vectors(r)[0]
            for n in range(1, 3 * p + 1):
                want = (-1 if n % 2 else 1) * (-1 + p * (n % p == 0))
                assert power(n, w) == want, (r, n)

    def test_complete_three_at_order_five(self):
        assert complete_prefix(3, roots_vectors(2)[0])[3] == 0


class TestThirdResult:
    def test_elementary_closed_form(self):
        # e_m of the shifted roots equals the telescoped ballot sum and the
        # signed binomial, for every m up to r
        for r in range(1, 9):
            es = elementary_prefix(r, roots_vectors(r)[1])
            for m in range(r + 1):
                val = binom(m - r - 1, m // 2)
                assert es[m] == val
                assert val == sum(ballot(m - r - 1, k) for k in range(m // 2 + 1))
                sign = -1 if (m // 2) % 2 else 1
                assert val == sign * binom(r - (m + 1) // 2, m // 2)


class TestDiscriminant:
    def test_vandermonde_rows_match_both_constructions(self):
        for r in range(1, 9):
            alphas = roots_vectors(r)[1].entries
            rows = vandermonde_rows(alphas)
            # one row per power, highest first, as the bialternant reads them
            assert rows == [[a ** k for a in alphas] for k in range(r - 1, -1, -1)], r
            # one row per root, each built up from field.one as the
            # discriminant once built them: the transpose
            per_root = [[a.field.one] for a in alphas]
            for _ in range(r - 1):
                per_root = [[row[0] * a] + row for row, a in zip(per_root, alphas)]
            assert rows == [list(col) for col in zip(*per_root)], r

    def test_small_values(self):
        assert discriminant_square(1) == 1   # 3^0
        assert discriminant_square(2) == 5
        assert discriminant_square(3) == 49

    def test_all_prime_orders_to_eight(self):
        for r in (1, 2, 3, 5, 6, 8):
            assert discriminant_square(r) == (2 * r + 1) ** (r - 1)

    def test_composite_order_rejected(self):
        with pytest.raises(ValueError):
            discriminant_square(4)
