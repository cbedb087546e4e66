import random
from fractions import Fraction

import pytest

from symident.combinat import ballot
from symident.cyclotomic import roots_vectors
from symident.exactalg import MultiLaurent, UniLaurent
from symident.symfun import (PointVector, complete_prefix, elementary_prefix, point_vectors,
                             power, power_prefix, prefix, schur, symbolic_vectors)

from oracles import (brute_complete, brute_elementary, brute_power,
                     count_standard_tableaux_two_rows, two_step_prefixes)


def rand_vector(rng, r):
    vals = set()
    while len(vals) < r:
        x = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        if rng.randint(0, 1):
            x = -x
        vals.add(x)
    return PointVector(tuple(vals))


def e_at(n, v):
    """e_n of v, read from its prefix."""
    return prefix("e", n, v)[n]


def h_at(n, v):
    """h_n of v, read from its prefix."""
    return prefix("h", n, v)[n]


class TestElementary:
    def test_unit_and_bounds(self):
        v = PointVector([Fraction(3), Fraction(5)])
        assert e_at(0, v) == 1
        assert e_at(3, v) == 0
        with pytest.raises(ValueError, match="defined for top >= 0"):
            prefix("e", -1, v)

    def test_full_product(self):
        v = PointVector([Fraction(1), Fraction(2), Fraction(3)])
        assert e_at(3, v) == 6

    def test_doubled_pair_cancels(self):
        _, doubled, _ = symbolic_vectors(1)
        assert e_at(2, doubled) == MultiLaurent.one(1)

    def test_against_enumeration(self):
        rng = random.Random(11)
        for r in (2, 3, 4):
            v = rand_vector(rng, r)
            for n in range(0, r + 2):
                assert e_at(n, v) == brute_elementary(n, v.entries)


class TestComplete:
    def test_two_variable(self):
        a, b = Fraction(2), Fraction(7)
        assert h_at(2, PointVector([a, b])) == a * a + a * b + b * b

    def test_unit(self):
        assert h_at(0, PointVector([Fraction(9)])) == 1

    def test_negative_index_rejected(self):
        v = PointVector([Fraction(1), Fraction(2), Fraction(3)])
        for n in (-1, -2, -4):
            with pytest.raises(ValueError, match="defined for top >= 0"):
                prefix("h", n, v)
        # nor is a family other than e, h and p read as h
        with pytest.raises(ValueError, match="^family must be e, h or p$"):
            prefix("x", 3, PointVector([1, 2]))

    def test_against_enumeration(self):
        rng = random.Random(12)
        for r in (2, 3):
            v = rand_vector(rng, r)
            for n in range(0, 6):
                assert h_at(n, v) == brute_complete(n, v.entries)


class TestPower:
    def test_examples(self):
        v = PointVector([Fraction(1), Fraction(2), Fraction(3)])
        assert power(2, v) == 14
        assert power(1, v) == e_at(1, v)

    def test_symbolic_laurent(self):
        _, doubled, _ = symbolic_vectors(1)
        z = MultiLaurent.variable(0, 1)
        assert power(3, doubled) == z ** 3 + z ** -3

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            power(0, PointVector([Fraction(1)]))

    def test_against_enumeration(self):
        rng = random.Random(13)
        v = rand_vector(rng, 4)
        for n in range(1, 7):
            assert power(n, v) == brute_power(n, v.entries)


class TestSchur:
    def test_one_row_is_complete(self):
        rng = random.Random(16)
        v = rand_vector(rng, 3)
        for n in range(0, 7):
            assert schur((n,), v) == h_at(n, v)

    def test_one_column_is_elementary(self):
        v = PointVector([Fraction(1), Fraction(2), Fraction(3)])
        assert schur((1, 1), v) == e_at(2, v)

    def test_int_entries_divide_exactly(self):
        v = PointVector([1, 2, 3])
        for lam, want in (((2,), 25), ((1, 1), 11), ((2, 1), 60)):
            got = schur(lam, v)
            assert got == want and isinstance(got, Fraction), lam

    def test_symbolic_jacobi_trudi_specials(self):
        for r in (2, 3, 4):
            plain, _, _ = symbolic_vectors(r)
            for n in range(0, 9):
                assert schur((n,), plain) == h_at(n, plain), (r, n)
                if 1 <= n <= r:
                    assert schur((1,) * n, plain) == e_at(n, plain), (r, n)

    def test_two_row_character_quotient(self):
        # against the sine-ratio form: s_(l1,l2)(z, 1/z) (z - 1/z) equals
        # z^(l1-l2+1) - z^-(l1-l2+1)
        z = MultiLaurent.variable(0, 1)
        v = PointVector([z, z ** -1])
        for l1, l2 in ((1, 0), (3, 1), (4, 4), (6, 2)):
            d = l1 - l2 + 1
            assert schur((l1, l2), v) * (z - z ** -1) == z ** d - z ** -d

    def test_repeated_entries_fail(self):
        v = PointVector([Fraction(2), Fraction(2), Fraction(3)])
        with pytest.raises(ZeroDivisionError):
            schur((2, 1), v)

    def test_general_negative_shape_rejected(self):
        v = PointVector([Fraction(1), Fraction(2)])
        for lam in ((1, -1), (-1,), (-2, 0)):
            with pytest.raises(ValueError):
                schur(lam, v)


class TestPointVectors:
    def test_doubled_and_shifted(self):
        plus, minus = [Fraction(2), Fraction(-1, 3)], [Fraction(1, 2), Fraction(-3)]
        doubled, shifted = point_vectors(plus, minus)
        assert doubled.entries == tuple(plus + minus)
        assert shifted.entries == (Fraction(5, 2), Fraction(-10, 3))


class TestGenfun:
    """The prefixes are the truncated generating functions prod (1 + z_j y),
    prod 1/(1 - z_j y) and sum_j 1/(1 - z_j y)."""

    def test_e_kind_coefficients(self):
        a, b = Fraction(2), Fraction(3)
        coeffs = elementary_prefix(2, PointVector([a, b]))
        assert coeffs == [1, a + b, a * b]

    def test_h_kind_frozen_value(self):
        coeffs = complete_prefix(4, PointVector([Fraction(1), Fraction(1)]))
        assert coeffs[3] == brute_complete(3, (1, 1)) == 4

    def test_p_kind_constant_is_arity(self):
        # power_prefix starts at p_1; prefix reads p_0 as the arity
        v = PointVector([Fraction(5), Fraction(7), Fraction(11)])
        assert power_prefix(0, v) == []
        assert prefix("p", 0, v) == [3]
        assert prefix("p", 2, v) == [3] + power_prefix(2, v)

    def test_matches_direct_values(self):
        rng = random.Random(18)
        for r in (2, 3, 4):
            v = rand_vector(rng, r)
            e = elementary_prefix(10, v)
            h = complete_prefix(10, v)
            p = power_prefix(10, v)
            for n in range(11):
                assert e[n] == e_at(n, v)
                assert h[n] == h_at(n, v)
                if n >= 1:
                    assert p[n - 1] == power(n, v)


class TestFusedPrefixSteps:
    """Laurent prefixes step with the fused addmul and cyclotomic ones on
    the packed ints of CycInt.packed; int and Fraction prefixes keep the acc
    + z * x step, and every ring keeps the values of that step."""

    def test_symbolic_against_enumeration(self):
        for r in (2, 3):
            for v in symbolic_vectors(r):
                es, hs = elementary_prefix(8, v), complete_prefix(8, v)
                for n in range(9):
                    assert es[n] == brute_elementary(n, v.entries, v.one), (r, v, n)
                    assert hs[n] == brute_complete(n, v.entries, v.one), (r, v, n)

    def test_other_rings_unchanged(self):
        rng = random.Random(41)
        plain = [PointVector([2, -3, 5, 1]), rand_vector(rng, 4)]
        for v in plain:
            assert getattr(type(v[0]), "addmul", None) is None
        for v in plain + [roots_vectors(3)[0], roots_vectors(4)[1]]:
            for nmax in (0, 3, 9):
                got = elementary_prefix(nmax, v), complete_prefix(nmax, v)
                want = two_step_prefixes(nmax, v)
                assert got == want, (v, nmax)
                assert [list(map(type, x)) for x in got] == \
                    [list(map(type, x)) for x in want], (v, nmax)

    def test_laurent_steps_make_no_products(self, monkeypatch):
        _, doubled, shifted = symbolic_vectors(3)
        q = UniLaurent.monomial(1, 1)
        q_vector = PointVector([q ** 2 + q ** -2, q + q ** -1])
        for v in (doubled, shifted, q_vector):
            want = two_step_prefixes(6, v)
            ring, calls = type(v[0]), []
            mul = ring.__mul__

            def counted(a, b, mul=mul):
                calls.append(1)
                return mul(a, b)

            monkeypatch.setattr(ring, "__mul__", counted)
            assert (elementary_prefix(6, v), complete_prefix(6, v)) == want
            assert calls == [], ring
            monkeypatch.undo()


class TestClebschGordan:
    def test_laurent_identity(self):
        # (z + 1/z)^n (z - 1/z) = sum_k ballot(n,k) (z^(n-2k+1) - z^(2k-n-1))
        z = UniLaurent.monomial(1, 1)
        zi = z ** -1
        for n in range(0, 21):
            lhs = (z + zi) ** n * (z - zi)
            rhs = UniLaurent.zero()
            for k in range(n // 2 + 1):
                d = n - 2 * k + 1
                rhs = rhs + (z ** d - z ** -d) * ballot(n, k)
            assert lhs == rhs, n


class TestKostka:
    def test_two_row_kostka_equals_ballot(self):
        for n in range(0, 11):
            for k in range(0, n // 2 + 1):
                want = count_standard_tableaux_two_rows(n - k, k)
                assert ballot(n, k) == want, (n, k)


class TestPrefixConsistency:
    def test_prefix_matches_pointwise(self):
        rng = random.Random(19)
        v = rand_vector(rng, 3)
        es = elementary_prefix(5, v)
        hs = complete_prefix(5, v)
        for n in range(6):
            assert es[n] == e_at(n, v)
            assert hs[n] == h_at(n, v)

    def test_power_prefix_matches_pointwise(self):
        rng = random.Random(23)
        _, doubled, shifted = symbolic_vectors(2)
        vectors = [rand_vector(rng, 4), doubled, shifted,
                   roots_vectors(3)[0], roots_vectors(4)[1]]
        for v in vectors:
            for top in (1, 2, 9):
                assert power_prefix(top, v) == [power(n, v) for n in range(1, top + 1)]

    def test_power_prefix_empty_below_one(self):
        v = PointVector([Fraction(2), Fraction(3)])
        assert power_prefix(0, v) == []
        assert power_prefix(-3, v) == []
