import math
import random
from fractions import Fraction
from functools import partial

import pytest

from symident.cyclotomic import CycField
from symident.exactalg import (MultiLaurent, Series, UniLaurent, _int_poly_mul, _unpack,
                               det_cofactor, det_fraction_free, series_compose, series_sqrt)

from oracles import (brute_laurent_mul, brute_series_compose, brute_series_inverse,
                     brute_series_mul, det_permutation_expansion)


def rand_series(rng, order):
    return Series([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                   for _ in range(order + 1)], order)


def rand_unilaurent(rng, terms=4):
    return UniLaurent({rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(terms)})


def rand_multilaurent(rng, nvars, terms=4):
    d = {}
    for _ in range(terms):
        key = tuple(rng.randint(-4, 4) for _ in range(nvars))
        d[key] = rng.randint(-9, 9)
    return MultiLaurent(nvars, d)


class TestSeries:
    def test_sqrt_identity(self):
        one = Series.one(5)
        assert series_sqrt(one) == one

    def test_sqrt_1_minus_4x(self):
        s = Series([1, -4], 3)
        t = series_sqrt(s)
        # derived by squaring back: these are the unique coefficients
        assert t == Series([1, -2, -2, -4], 3)
        assert t * t == s

    def test_sqrt_squares_back(self):
        s = Series([1, 1, 1], 10)
        t = series_sqrt(s)
        assert t * t == s

    def test_sqrt_requires_unit_constant(self):
        with pytest.raises(ValueError):
            series_sqrt(Series([2, 1], 4))

    def test_compose_identity(self):
        rng = random.Random(1)
        for _ in range(5):
            f = rand_series(rng, 8)
            assert series_compose(f, Series.x(8)) == f

    def test_compose_geometric(self):
        geom = Series([1, -1], 8).inverse()
        sq = series_compose(geom, Series([0, 0, 1], 8))
        assert sq == Series([1, 0, 1, 0, 1, 0, 1, 0, 1], 8)

    def test_compose_rejects_constant_term(self):
        with pytest.raises(ValueError):
            series_compose(Series.one(4), Series.one(4))

    def test_mixed_order_equality_refused(self):
        with pytest.raises(ValueError):
            Series.one(3) == Series.one(4)

    def test_order_is_min_of_operands(self):
        a = Series.one(3)
        b = Series.one(7)
        assert (a * b).order == 3
        assert (a + b).order == 3

    def test_inverse(self):
        rng = random.Random(2)
        for _ in range(5):
            s = rand_series(rng, 6)
            if s[0] == 0:
                continue
            assert s * s.inverse() == Series.one(6)

    def test_divided_by_x(self):
        s = Series([0, 0, 3, 5], 3)
        assert s.divided_by_x(2) == Series([3, 5], 1)
        with pytest.raises(ValueError):
            Series([1, 2], 3).divided_by_x(1)

    def test_truncation_bounds(self):
        s = Series([1, 2, 3], 2)
        with pytest.raises(ValueError, match="cannot extend"):
            s.truncated(3)
        with pytest.raises(ValueError, match="nonnegative"):
            s.truncated(-1)
        with pytest.raises(ValueError, match="not divisible"):
            Series.zero(2).divided_by_x(3)

    def test_ring_laws(self):
        rng = random.Random(3)
        for _ in range(20):
            a, b, c = (rand_series(rng, 5) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def big_fraction(rng, bits=200):
    return Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** bits))


def oracle_series(rng):
    """Series operands for the product oracles: random rationals with
    numerators and denominators up to 2^200 (some given with fewer
    coefficients than their order), the zero series, series with an
    all-zero prefix, and integer series whose coefficients all sit at
    +-(2^t - 1), which fill a Kronecker slot as far as it can be filled."""
    out = [Series.zero(0), Series.zero(7), Series.one(5), Series([big_fraction(rng)], 0)]
    for order in (1, 2, 3, 6, 9, 12):
        out.append(Series([big_fraction(rng) for _ in range(order + 1)], order))
        out.append(Series([big_fraction(rng) for _ in range(rng.randint(1, order))], order))
        zeros = rng.randint(1, order)
        out.append(Series([0] * zeros + [big_fraction(rng, 60) for _ in range(order + 1 - zeros)],
                          order))
        for t in (1, 64, 200):
            sign = rng.choice((1, -1))
            out.append(Series([sign * (2 ** t - 1)] * (order + 1), order))
    return out


def assert_canonical(s):
    """The stored form: order + 1 int numerators over den > 0, with
    gcd(den, *num) = 1."""
    assert len(s.num) == s.order + 1 and all(type(c) is int for c in s.num), s
    assert type(s.den) is int and s.den > 0 and math.gcd(s.den, *s.num) == 1, s


def one_operand_results(a):
    """(result, expected Fraction coefficients) for each one-operand
    operation on a: negation, scaling by a Fraction given with a negative
    denominator and by 0, every truncation and every exact division by x^j."""
    c = list(a.coeffs)
    yield -a, [-x for x in c]
    yield a * Fraction(3, -4), [x * Fraction(3, -4) for x in c]
    yield 0 * a, [Fraction(0)] * len(c)
    for j in range(a.order + 1):
        yield a.truncated(j), c[: j + 1]
    j = 1
    while j <= a.order and not any(c[:j]):
        yield a.divided_by_x(j), c[j:]
        j += 1


class TestSeriesOracle:
    """Series arithmetic against the schoolbook Fraction convolution, each
    result in the stored form of ``assert_canonical``."""

    def test_mul(self):
        rng = random.Random(11)
        ops = oracle_series(rng)
        for a in ops:
            assert_canonical(a)
            for got, want in one_operand_results(a):
                assert list(got.coeffs) == want, a
                assert_canonical(got)
            for b in ops:
                k = min(a.order, b.order)
                got = a * b
                assert got.order == k
                assert list(got.coeffs) == brute_series_mul(a.coeffs, b.coeffs, k), (a, b)
                assert_canonical(got)
                total = a + b
                assert list(total.coeffs) == [x + y for x, y in zip(a.coeffs, b.coeffs)]
                assert_canonical(total)
                # equal values built by different routes are equal and hash equal
                j = k // 2
                for x, y in ((got.truncated(j), a.truncated(j) * b.truncated(j)),
                             (Series(got.coeffs, k), got), (total - b, a.truncated(k))):
                    assert x == y and hash(x) == hash(y), (a, b)

    def test_mul_coeffs_unequal_lengths(self):
        rng = random.Random(12)
        for _ in range(60):
            a = [big_fraction(rng) for _ in range(rng.randint(1, 9))]
            b = [big_fraction(rng) for _ in range(rng.randint(1, 9))]
            order = rng.randint(0, 20)
            got = Series(a, order) * Series(b, order)
            assert list(got.coeffs) == brute_series_mul(a, b, order)

    def test_int_kernel_at_full_slots(self):
        # every product coefficient as large as the slot width allows
        for la in range(1, 10):
            for lb in range(1, 10):
                for t in (1, 2, 7, 64, 200):
                    for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                        a = [sa * (2 ** t - 1)] * la
                        b = [sb * (2 ** t - 1)] * lb
                        want = brute_series_mul(a, b, la + lb - 2)
                        assert _int_poly_mul(a, b, partial(_unpack, slots=la + lb - 1)) == want

    def test_pow(self):
        rng = random.Random(13)
        for s in oracle_series(rng)[::3]:
            want = [Fraction(1)] + [Fraction(0)] * s.order
            for n in range(6):
                assert list((s ** n).coeffs) == want, (s, n)
                assert_canonical(s ** n)
                want = brute_series_mul(want, s.coeffs, s.order)

    def test_compose(self):
        rng = random.Random(14)
        ops = oracle_series(rng)
        inners = [Series([0] + list(s.coeffs[1:]), s.order) for s in ops[::4]]
        for outer in ops[::2]:
            for inner in inners:
                k = min(outer.order, inner.order)
                got = series_compose(outer, inner)
                assert got.order == k
                assert list(got.coeffs) == brute_series_compose(outer.coeffs, inner.coeffs, k)
                assert_canonical(got)

    def test_sqrt_and_inverse(self):
        rng = random.Random(15)
        for s in oracle_series(rng):
            unit = Series([1] + list(s.coeffs[1:]), s.order)
            t = series_sqrt(unit)
            assert t[0] == 1
            assert brute_series_mul(t.coeffs, t.coeffs, s.order) == list(unit.coeffs)
            assert_canonical(t)
            if s[0]:
                one = [Fraction(1)] + [Fraction(0)] * s.order
                assert brute_series_mul(s.coeffs, s.inverse().coeffs, s.order) == one
                assert_canonical(s.inverse())

    def test_inverse_against_the_recurrence(self):
        rng = random.Random(16)
        for c0 in (Fraction(3, 7), Fraction(-3, 7), Fraction(-1), big_fraction(rng)):
            for order in (0, 1, 5, 17):
                for coeffs in ([c0] + [big_fraction(rng) for _ in range(order)],
                               [c0] + [Fraction(rng.randint(-9, 9), 7) for _ in range(order)],
                               [c0, big_fraction(rng)]):
                    want = brute_series_inverse(coeffs, order)
                    one = [Fraction(1)] + [Fraction(0)] * order
                    got = Series(coeffs, order).inverse()
                    assert list(got.coeffs) == want, (coeffs, order)
                    assert_canonical(got)
                    assert brute_series_mul(coeffs, want, order) == one
        for zero_constant in ([], [Fraction(0), Fraction(1)]):
            with pytest.raises(ValueError, match="series inverse needs a nonzero constant term"):
                Series(zero_constant, 3).inverse()


class TestUniLaurent:
    def test_basic_algebra(self):
        q = UniLaurent.monomial(1, 1)
        assert (q + q ** -1) * (q - q ** -1) == q ** 2 - q ** -2
        # q is not the one-variable MultiLaurent z: they never mix
        z = MultiLaurent.variable(0, 1)
        assert (q == z) is False
        with pytest.raises(TypeError):
            q + z
        # the inherited constructors, at the one variable q
        assert UniLaurent.constant(3, 1) == 3 and type(UniLaurent.constant(3, 1)) is UniLaurent
        assert UniLaurent.variable(0, 1) == q and UniLaurent.variable(0, 1, -2) == q ** -2
        for bad in (lambda: UniLaurent.constant(3, 2), lambda: UniLaurent.variable(0, 2)):
            with pytest.raises(ValueError, match="need nvars = 1"):
                bad()

    def test_ring_laws(self):
        rng = random.Random(4)
        for _ in range(30):
            a, b, c = (rand_unilaurent(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_no_zero_coefficients_stored(self):
        p = UniLaurent({2: 5, 3: 0, -1: 1})
        assert 3 not in p.coeffs
        q = p - p
        assert q.coeffs == {}

    def test_canonical_idempotent(self):
        p = UniLaurent({0: 1, 2: -4})
        assert UniLaurent(p.coeffs) == p


class TestMultiLaurent:
    def test_difference_of_squares(self):
        z = MultiLaurent.variable(0, 1)
        zi = z ** -1
        assert (z + zi) * (z - zi) == z ** 2 - zi ** 2

    def test_commutativity_random(self):
        rng = random.Random(5)
        for _ in range(100):
            a = rand_multilaurent(rng, 3)
            b = rand_multilaurent(rng, 3)
            assert a * b == b * a

    def test_ring_laws(self):
        rng = random.Random(6)
        for _ in range(25):
            a, b, c = (rand_multilaurent(rng, 2) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_exact_division_roundtrip(self):
        rng = random.Random(8)
        for _ in range(25):
            a = rand_multilaurent(rng, 2)
            b = rand_multilaurent(rng, 2)
            if b.is_zero():
                continue
            assert (a * b) / b == a

    def test_inexact_division_raises(self):
        z1 = MultiLaurent.variable(0, 2)
        z2 = MultiLaurent.variable(1, 2)
        with pytest.raises(ValueError):
            (z1 + z2) / (z1 - z2)

    def test_canonical_idempotent(self):
        z1 = MultiLaurent.variable(0, 2)
        p = z1 ** 3 - z1 + 2
        assert MultiLaurent(2, p.coeffs) == p

    @pytest.mark.parametrize("cls, i, nvars", [(MultiLaurent, 2, 2), (UniLaurent, 1, 1),
                                               (MultiLaurent, -1, 2), (UniLaurent, -1, 1)])
    def test_variable_index_outside_the_variables_is_refused(self, cls, i, nvars):
        # past the end no longer raises IndexError, and a negative index no
        # longer counts from the end
        with pytest.raises(ValueError, match="variable index %d outside 0..%d" % (i, nvars - 1)):
            cls.variable(i, nvars)


def laurent_operands(rng, nvars):
    """Seeded MultiLaurent operands: zero, one-term values with coefficients
    other than 1, and sparse values with big and negative coefficients."""
    ops = [MultiLaurent.zero(nvars), MultiLaurent.one(nvars)]
    for c in (-1, 3, -7, 2 ** 70):
        ops.append(MultiLaurent(nvars, {tuple(rng.randint(-5, 5) for _ in range(nvars)): c}))
    for terms in (2, 3, 5, 9):
        ops.append(MultiLaurent(nvars, {
            tuple(rng.randint(-3, 3) for _ in range(nvars)):
            rng.choice((1, -1, rng.randint(-9, 9), rng.randint(-2 ** 80, 2 ** 80)))
            for _ in range(terms)}))
    return ops


def as_multi(p):
    """A UniLaurent as a one-variable MultiLaurent coefficient dict."""
    return {(e,): c for e, c in p.coeffs.items()}


class TestPackedLaurent:
    """Packed-key MultiLaurent and int-keyed UniLaurent against the
    tuple-keyed schoolbook product."""

    def test_products_match_schoolbook(self):
        rng = random.Random(21)
        for nvars in range(1, 7):
            ops = laurent_operands(rng, nvars)
            for a in ops:
                for b in ops:
                    assert (a * b).coeffs == brute_laurent_mul(a.coeffs, b.coeffs), (a, b)

    def test_unilaurent_products_match_schoolbook(self):
        rng = random.Random(22)
        ops = [UniLaurent.zero(), UniLaurent.monomial(-5, 3), UniLaurent.monomial(2 ** 70, -4)]
        ops += [rand_unilaurent(rng, terms) for terms in (2, 3, 6, 10) for _ in range(3)]
        for a in ops:
            for b in ops:
                assert as_multi(a * b) == brute_laurent_mul(as_multi(a), as_multi(b)), (a, b)

    def test_cancellation(self):
        rng = random.Random(23)
        for nvars in range(1, 7):
            for a in laurent_operands(rng, nvars):
                assert (a + (-a)).coeffs == {} and (a - a).is_zero()
                assert (a * 0).is_zero() and a * 0 == 0
                # a product whose middle terms cancel: (z1 + z2)(z1 - z2)
                z = [MultiLaurent.variable(i, nvars) for i in range(nvars)]
                w = z[-1] ** -2
                assert (z[0] + w) * (z[0] - w) == z[0] ** 2 - w ** 2
        q = UniLaurent.monomial(1, 1)
        assert ((q + 1) * (q - 1)).coeffs == {2: 1, 0: -1}
        assert (q - q).coeffs == {}

    def test_ring_axioms(self):
        rng = random.Random(24)
        for nvars in range(1, 7):
            ops = laurent_operands(rng, nvars)
            for _ in range(15):
                a, b, c = (rng.choice(ops) for _ in range(3))
                assert a + b == b + a and a * b == b * a
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert a * 1 == a and a + 0 == a

    def test_exact_division_roundtrip(self):
        rng = random.Random(25)
        for nvars in range(1, 7):
            ops = laurent_operands(rng, nvars)
            for a in ops:
                for b in ops:
                    if not b.is_zero():
                        assert (a * b) / b == a, (a, b)

    def test_coeffs_roundtrip(self):
        rng = random.Random(26)
        for nvars in range(1, 7):
            for p in laurent_operands(rng, nvars):
                assert MultiLaurent(nvars, p.coeffs) == p
                d = {tuple(rng.randint(-9, 9) for _ in range(nvars)): rng.randint(-3, 3)
                     for _ in range(8)}
                assert MultiLaurent(nvars, d).coeffs == {e: c for e, c in d.items() if c}

    def test_repr_sorts_by_exponent_tuple(self):
        # the packed keys order these the other way round
        p = MultiLaurent(2, {(1, -1): 2, (-1, 1): 3, (0, 0): -1, (-1, 2): 5})
        assert repr(p) == "3*z1^-1*z2^1 + 5*z1^-1*z2^2 + -1 + 2*z1^1*z2^-1"
        p = MultiLaurent(3, {(0, 0, 1): 1, (0, 1, 0): 2, (1, 0, 0): 3, (0, 0, -1): 4})
        assert repr(p) == "4*z3^-1 + 1*z3^1 + 2*z2^1 + 3*z1^1"

    def test_packing_edge(self):
        top = 2 ** 31 - 1
        edge = MultiLaurent(3, {(top, -top, 0): 1, (0, top, -top): -2, (-top, 0, top): 3})
        assert edge.bound == top
        assert edge.coeffs == {(top, -top, 0): 1, (0, top, -top): -2, (-top, 0, top): 3}
        a = MultiLaurent(3, {(top - 3, 3 - top, 0): 2, (0, 0, 3 - top): -1, (1, 2, 3): 4})
        b = MultiLaurent(3, {(3, 3, -3): 5, (-3, 0, 3): 1, (0, 0, 0): -1})
        assert (a * b).coeffs == brute_laurent_mul(a.coeffs, b.coeffs)
        assert (a * b).bound == top
        assert (edge * 7 * MultiLaurent.one(3)).coeffs == {e: 7 * c for e, c in edge.coeffs.items()}
        z = MultiLaurent.variable(1, 3, top)
        assert (z ** -1).coeffs == {(0, -top, 0): 1}
        assert ((a * b) / b) == a
        # a bound of 2^31 could let two exponent vectors share a key
        with pytest.raises(ValueError):
            edge * MultiLaurent.variable(0, 3)
        with pytest.raises(ValueError):
            UniLaurent.monomial(1, 2 ** 30) ** 2
        with pytest.raises(ValueError):
            edge * MultiLaurent.variable(0, 3, -1)
        with pytest.raises(ValueError):
            a * b * MultiLaurent.variable(2, 3)
        with pytest.raises(ValueError):
            MultiLaurent(2, {(0, 2 ** 31): 1})
        with pytest.raises(ValueError):
            MultiLaurent.variable(0, 1, 2 ** 30) ** 2
        # products whose true exponent reaches 2^31 although the summed key
        # wraps its slot to a small value
        for nvars, i, e in ((1, 0, 3 * 2 ** 29), (2, 0, top), (2, 1, -3 * 2 ** 29), (3, 1, top)):
            with pytest.raises(ValueError):
                MultiLaurent.variable(i, nvars, e) ** 2
            with pytest.raises(ValueError):
                MultiLaurent.variable(i, nvars, e) * MultiLaurent.variable(i, nvars, e)
        assert (edge + MultiLaurent.variable(0, 3)).bound == top


def terms_sum(x, y):
    """Two coefficient dicts added key by key, zeros dropped."""
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def const_terms(c, nvars):
    return {(0,) * nvars: c} if c else {}


class TestFusedAddMul:
    """acc.addmul(a, b) is acc + a * b in one pass: checked against the
    tuple-keyed schoolbook product and against the two-step expression."""

    INTS = (0, 1, -1, 3)

    def test_multilaurent_matches_schoolbook(self):
        rng = random.Random(31)
        for nvars in (1, 3):
            ops = laurent_operands(rng, nvars)
            for acc in ops:
                for a in ops + list(self.INTS):
                    at = a.coeffs if isinstance(a, MultiLaurent) else const_terms(a, nvars)
                    for b in ops:
                        got = acc.addmul(a, b)
                        want = terms_sum(acc.coeffs, brute_laurent_mul(at, b.coeffs))
                        assert got.coeffs == want, (acc, a, b)
                        assert got == acc + a * b and hash(got) == hash(acc + a * b)
                for b in ops:
                    negated = {e: -c for e, c in b.coeffs.items()}
                    assert (acc - b).coeffs == terms_sum(acc.coeffs, negated), (acc, b)

    def test_unilaurent_matches_schoolbook(self):
        rng = random.Random(32)
        ops = [UniLaurent.zero(), UniLaurent.one(), UniLaurent.monomial(-5, 3),
               UniLaurent.monomial(2 ** 70, -4)]
        ops += [rand_unilaurent(rng, terms) for terms in (2, 3, 6, 10) for _ in range(2)]
        for acc in ops:
            for a in ops + list(self.INTS):
                at = as_multi(a) if isinstance(a, UniLaurent) else const_terms(a, 1)
                for b in ops:
                    got = acc.addmul(a, b)
                    want = terms_sum(as_multi(acc), brute_laurent_mul(at, as_multi(b)))
                    assert as_multi(got) == want, (acc, a, b)
                    assert got == acc + a * b and hash(got) == hash(acc + a * b)
            for b in ops:
                negated = {e: -c for e, c in as_multi(b).items()}
                assert as_multi(acc - b) == terms_sum(as_multi(acc), negated), (acc, b)

    def test_cancels_to_zero(self):
        z = [MultiLaurent.variable(i, 2) for i in range(2)]
        x, y = z[0] + 3 * z[1] ** -1, z[0] - z[1]
        q = UniLaurent.monomial(1, 1)
        u, w = q + 2, q ** -3 - 5 * q
        for acc, a, b in ((-(x * y), x, y), (-(x * 3), 3, x), (x, -1, x),
                          (-(u * w), u, w), (u, -1, u), (w * -3, w, 3)):
            got = acc.addmul(a, b)
            assert got == 0 and hash(got) == hash(0) and len({got, 0}) == 1, (acc, a, b)
            assert got.coeffs == {}, (acc, a, b)

    def test_running_sum_passes_through_zero(self):
        # acc = q and (q - 1)(q + 1): the q^1 coefficient goes 1 -> 0 -> 1 when
        # the -1 term of a meets b first, so the key is dropped and put back
        want = {2: 1, 1: 1, 0: -1}
        for a, b in (({0: -1, 1: 1}, {1: 1, 0: 1}), ({1: 1, 0: -1}, {0: 1, 1: 1})):
            for x, y in ((a, b), (b, a)):
                got = UniLaurent({1: 1}).addmul(UniLaurent(x), UniLaurent(y))
                assert got.coeffs == want, (x, y)
                m = MultiLaurent(2, {(e, -e): c for e, c in x.items()})
                n = MultiLaurent(2, {(e, -e): c for e, c in y.items()})
                got = MultiLaurent(2, {(1, -1): 1}).addmul(m, n)
                assert got.coeffs == {(e, -e): c for e, c in want.items()}, (x, y)

    def test_bound_rule(self):
        def v(i, e):
            return MultiLaurent.variable(i, 3, e)
        for acc, a, b in ((v(0, 5), v(1, -2), v(0, 1)), (v(0, 1), v(1, 3), v(2, -4)),
                          (v(2, 6), 7, v(1, -2)), (v(2, 1), 0, v(1, 9)),
                          (MultiLaurent.zero(3), v(0, 2), v(0, -2))):
            a_bound = a.bound if isinstance(a, MultiLaurent) else 0
            assert acc.addmul(a, b).bound == max(acc.bound, a_bound + b.bound), (acc, a, b)
        # a bound that reaches 2^31 is refused, as for a product
        with pytest.raises(ValueError):
            v(0, 1).addmul(v(1, 2 ** 30), v(1, 2 ** 30))
        with pytest.raises(ValueError):
            MultiLaurent.zero(3).addmul(v(0, 2 ** 31 - 1), v(2, 1))

    def test_mixed_variable_counts_rejected(self):
        z2, z3 = MultiLaurent.variable(0, 2), MultiLaurent.variable(0, 3)
        for acc, a, b in ((z2, z3, z3), (z2, z2, z3), (z2, z3, z2), (z3, 2, z2)):
            with pytest.raises(ValueError, match="mixed variable counts"):
                acc.addmul(a, b)

    def test_subtraction_builds_no_negation(self, monkeypatch):
        def refuse(self):
            raise AssertionError("__sub__ negated its operand")
        z = MultiLaurent.variable(0, 2)
        q = UniLaurent.monomial(1, 1)
        monkeypatch.setattr(MultiLaurent, "__neg__", refuse)
        monkeypatch.setattr(UniLaurent, "__neg__", refuse)
        assert (z - z ** 2 - 4).coeffs == {(1, 0): 1, (2, 0): -1, (0, 0): -4}
        assert (q - q ** 2 - 4).coeffs == {1: 1, 2: -1, 0: -4}


class TestPower:
    """One binary powering routine serves every ring; a one-term Laurent
    base is raised in one step."""

    def _values(self):
        z = MultiLaurent.variable(0, 2)
        return [Series([1, 2, Fraction(1, 3)], 6), UniLaurent({-1: 2, 3: 1}),
                z + 3 * MultiLaurent.variable(1, 2, -1), CycField(9).element([1, -2, 0, 5])]

    def test_fifth_power_takes_three_products(self, monkeypatch):
        for x in self._values():
            ring = type(x)
            mul, calls = ring.__mul__, []

            def counted(a, b, mul=mul, calls=calls):
                calls.append(1)
                return mul(a, b)

            want = x * x * x * x * x
            monkeypatch.setattr(ring, "__mul__", counted)
            assert x ** 5 == want
            assert len(calls) == 3, ring
            assert x ** 1 == x and len(calls) == 3
            monkeypatch.undo()

    def test_small_exponents(self):
        for x in self._values():
            want = x ** 0
            assert want * x == x
            for n in range(1, 12):
                want = want * x
                assert x ** n == want, (type(x), n)

    def test_largest_exponent_power_decodes(self):
        z = MultiLaurent.variable(0, 1)
        assert (z ** 2 ** 30).coeffs == {(2 ** 30,): 1}
        w = MultiLaurent(3, {(0, -1, 1): 1})
        assert (w ** (2 ** 30 + 2 ** 29 + 7)).coeffs == \
            {(0, -(2 ** 30 + 2 ** 29 + 7), 2 ** 30 + 2 ** 29 + 7): 1}
        with pytest.raises(ValueError):
            z ** 2 ** 31

    def test_product_built_monomial_power_decodes(self):
        # z2^-1 * z3 has every |exponent| 1, so its 2^30-th power still fits
        w = MultiLaurent.variable(1, 3, -1) * MultiLaurent.variable(2, 3)
        assert (w ** 2 ** 30).bound == 2 ** 30
        assert (w ** 2 ** 30).coeffs == {(0, -(2 ** 30), 2 ** 30): 1}
        with pytest.raises(ValueError):
            w ** 2 ** 31

    MONOMIALS = (UniLaurent.monomial(-3, 2), UniLaurent.monomial(1, -1), UniLaurent.monomial(7, 0),
                 MultiLaurent(3, {(0, -1, 4): -2}), MultiLaurent.constant(5, 2),
                 MultiLaurent.variable(1, 3, -1) * MultiLaurent.variable(2, 3))  # bound 2, not 1

    def test_monomial_powers_take_no_product(self, monkeypatch):
        for x in self.MONOMIALS:
            want = [x]
            for _ in range(8):
                want.append(want[-1] * x)
            monkeypatch.setattr(type(x), "__mul__", lambda a, b: pytest.fail("a product"))
            for n, value in enumerate(want, 1):
                got = x ** n
                assert got == value and len(got.coeffs) == 1, (x, n)
                if isinstance(x, MultiLaurent):
                    assert got.bound == value.bound == n * x.bound, (x, n)
            monkeypatch.undo()

    def test_monomial_powers_at_the_packing_edge(self):
        top = 2 ** 31 - 1
        for e in (1, -3, 2 ** 15 + 1, -(2 ** 30 - 1)):
            x = MultiLaurent.variable(1, 2, e) * -1
            n = top // abs(e)  # |e| n < 2^31 <= |e| (n + 1)
            got = x ** n
            assert got.coeffs == {(0, e * n): (-1) ** n} and got.bound == abs(e) * n, e
            with pytest.raises(ValueError):
                x ** (n + 1)
        x = MultiLaurent.variable(0, 2, 2 ** 30 - 1)
        assert x ** 2 == x * x
        with pytest.raises(ValueError):
            x * x * x
        with pytest.raises(ValueError):
            x ** 3
        # a bound above the exact one: n times the exact one still fits
        w = self.MONOMIALS[-1]
        assert (w ** top).coeffs == {(0, -top, top): 1}
        assert UniLaurent.monomial(-2, 5) ** 40 == UniLaurent({200: 2 ** 40})


class TestDeterminants:
    def test_against_permutation_expansion(self):
        rng = random.Random(9)
        for n in (1, 2, 3, 4, 5, 6):
            for _ in range(10):
                m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                want = det_permutation_expansion(m)
                assert det_fraction_free(m) == want
                assert det_cofactor(m) == want
        # ring-valued entries, where only the division-free route applies
        for order in (9, 11):
            field = CycField(order)
            for n in (1, 2, 3, 4, 5):
                for _ in range(3):
                    m = [[field.element([rng.randint(-4, 4) for _ in range(field.degree)])
                          for _ in range(n)] for _ in range(n)]
                    assert det_cofactor(m) == det_permutation_expansion(m)

    def test_zero_pivots_and_rank_deficiency(self):
        m = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        assert det_cofactor(m) == det_permutation_expansion(m) == -1
        m = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [5, 0, 5, 0]]
        assert det_cofactor(m) == 0

    def test_rejects_empty_and_non_square(self):
        for bad in ([], [[1, 2]], [[1, 2], [3]], [[1], [2]]):
            with pytest.raises(ValueError):
                det_cofactor(bad)
            with pytest.raises(ValueError):
                det_fraction_free(bad)

    def test_integer_bareiss_against_permutation_expansion(self):
        rng = random.Random(16)
        big = 2 ** 100
        entries = (0, 0, 0, 1, -1, big, -big, big - 1)
        for n in range(1, 7):
            for trial in range(12):
                m = [[rng.choice(entries + (rng.randint(-big, big),)) for _ in range(n)]
                     for _ in range(n)]
                if trial % 3 == 1 and n > 1:
                    # rank deficient: one row is a combination of two others
                    c = rng.randint(-big, big)
                    m[-1] = [c * x + y for x, y in zip(m[0], m[1 % (n - 1)])]
                elif trial % 3 == 2:
                    m[0][0] = 0  # zero leading pivot
                got = det_fraction_free(m)
                assert type(got) is int
                assert got == det_permutation_expansion(m), m
        # a column that vanishes below a pivot ends the elimination early
        got = det_fraction_free([[1, 2, 3], [0, 0, 5], [0, 0, 7]])
        assert type(got) is int and got == 0
        # a floor division would get a rational entry wrong, even an
        # integral one, so any entry that is not an int is refused
        for bad in (Fraction(1, 2), Fraction(2), 2.0):
            with pytest.raises(TypeError):
                det_fraction_free([[1, 2], [3, bad]])

    def test_singular(self):
        assert det_fraction_free([[1, 2], [2, 4]]) == 0

    def test_ring_valued_cofactor(self):
        z1 = MultiLaurent.variable(0, 2)
        z2 = MultiLaurent.variable(1, 2)
        m = [[z1, z2], [z2, z1]]
        assert det_cofactor(m) == z1 * z1 - z2 * z2


class TestHashFollowsEquality:
    """A value that equals an int (or, for a series, a Fraction) hashes
    like it, so a set holds the two once."""

    def test_series(self):
        for c in (0, 3, -(2 ** 70), Fraction(-5, 3)):
            for order in (0, 4):
                s = Series.constant(c, order)
                assert s == c and len({s, c}) == 1 and c in {s} and s in {c}, (c, order)
        assert len({Series.x(4), Series.one(4), 1}) == 2

    def test_unilaurent(self):
        for c in (0, 3, -(2 ** 70)):
            u = UniLaurent({0: c})
            assert u == c and len({u, c}) == 1 and c in {u} and u in {c}, c
        assert len({UniLaurent.monomial(3, 1), UniLaurent.one(), 3, 1}) == 3

    def test_multilaurent(self):
        for c in (0, 3, -(2 ** 70)):
            for nvars in (1, 3):
                u = MultiLaurent.constant(c, nvars)
                assert u == c and len({u, c}) == 1 and c in {u} and u in {c}, (c, nvars)
        z = MultiLaurent.variable(0, 2)
        assert len({z, z * z ** -1, 1}) == 2
