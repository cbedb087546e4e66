import math
from fractions import Fraction

import pytest

from symident.combinat import (ballot, ballot_series, binom,
                               centralizer_order, partitions_of, q_binom,
                               raising_factorial)
from symident.exactalg import Series, UniLaurent, series_compose, series_sqrt

from oracles import (brute_ballot_coefficient, brute_partitions,
                     permutation_count_by_cycle_type)


class TestBinom:
    def test_small(self):
        assert binom(5, 2) == 10
        assert binom(0, 0) == 1

    def test_negative_upper(self):
        assert binom(-2, 3) == -4
        # reflection: binom(n, k) = (-1)^k binom(k - n - 1, k)
        for n in range(-8, 0):
            for k in range(0, 8):
                assert binom(n, k) == (-1) ** k * binom(k - n - 1, k)

    def test_negative_lower_is_zero(self):
        for n in (-3, 0, 5):
            assert binom(n, -1) == 0


class TestBallot:
    def test_table_values(self):
        assert ballot(14, 5) == 1001
        assert ballot(21, 10) == 58786

    def test_catalan_diagonal(self):
        assert ballot(8, 4) == 14
        for n in range(0, 12):
            assert ballot(2 * n, n) == math.comb(2 * n, n) // (n + 1)

    def test_pascal_recursion(self):
        for n in range(1, 41):
            for k in range(1, n + 1):
                assert ballot(n, k) == ballot(n - 1, k - 1) + ballot(n - 1, k)

    def test_first_column(self):
        for n in range(0, 30):
            assert ballot(n, 0) == 1

    def test_wedge_matches_seeded_triangle(self):
        # triangle built only from the boundary rules and the recursion;
        # inside 0 <= 2k <= n it must agree with the defining difference
        top = 30
        tri = [[0] * (top + 1) for _ in range(top + 1)]
        for n in range(top + 1):
            tri[n][0] = 1
        for n in range(1, top + 1):
            for k in range(1, n // 2 + 1):
                tri[n][k] = tri[n - 1][k - 1] + (tri[n - 1][k] if 2 * k <= n - 1 else 0)
        for n in range(top + 1):
            for k in range(n // 2 + 1):
                assert ballot(n, k) == tri[n][k], (n, k)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            ballot(3, -1)


class TestRaisingFactorial:
    def test_factorial(self):
        assert raising_factorial(1, 4) == 24

    def test_empty_product(self):
        assert raising_factorial(Fraction(7, 3), 0) == 1

    def test_half(self):
        assert raising_factorial(Fraction(1, 2), 2) == Fraction(3, 4)


class TestQBinom:
    def test_small(self):
        q = UniLaurent.monomial(1, 1)
        assert q_binom(2, 1) == q + 1
        assert q_binom(4, 2) == 1 + q + q ** 2 * 2 + q ** 3 + q ** 4

    def test_edges(self):
        for n in range(8):
            assert q_binom(n, 0) == UniLaurent.one()
            assert q_binom(n, n + 1) == UniLaurent.zero()
            assert q_binom(n, -1) == UniLaurent.zero()

    def test_specialize_to_binomial(self):
        for n in range(10):
            for k in range(n + 1):
                # the value at q = 1 is the sum of the coefficients
                assert sum(q_binom(n, k).coeffs.values()) == math.comb(n, k)

    def test_symmetry(self):
        for n in range(12):
            for k in range(n + 1):
                assert q_binom(n, k) == q_binom(n, n - k)

    def test_product_formula(self):
        # prod_(j<n) (1 + q^j y) = sum_k [n,k]_q q^(k(k-1)/2) y^k,
        # handled as a polynomial in y with q-polynomial coefficients
        for n in range(13):
            coeffs = [UniLaurent.one()]
            for j in range(n):
                qj = UniLaurent.monomial(1, j)
                nxt = [UniLaurent.zero() for _ in range(len(coeffs) + 1)]
                for d, c in enumerate(coeffs):
                    nxt[d] = nxt[d] + c
                    nxt[d + 1] = nxt[d + 1] + c * qj
                coeffs = nxt
            for k in range(n + 1):
                want = q_binom(n, k) * UniLaurent.monomial(1, k * (k - 1) // 2)
                assert coeffs[k] == want, (n, k)

    def test_reciprocal_product_formula(self):
        # coefficients of prod_(j<n) 1/(1 - q^j y) up to y^12 are
        # [n+k-1, k]_q
        order = 12
        for n in range(1, 6):
            coeffs = [UniLaurent.one()] + [UniLaurent.zero()] * order
            for j in range(n):
                qj = UniLaurent.monomial(1, j)
                for d in range(1, order + 1):
                    coeffs[d] = coeffs[d] + coeffs[d - 1] * qj
            for k in range(order + 1):
                assert coeffs[k] == q_binom(n + k - 1, k), (n, k)


class TestBallotSeries:
    def test_catalan(self):
        s = ballot_series(1, 5)
        assert list(s.coeffs) == [1, 1, 2, 5, 14, 42]
        for k in range(6):
            assert s[k] == ballot(2 * k, k)

    def test_zero_index(self):
        assert ballot_series(0, 8) == Series.one(8)

    def test_coefficients_are_ballot_numbers(self):
        s = ballot_series(3, 10)
        for k in range(11):
            assert s[k] == ballot(3 + 2 * k - 1, k)

    def test_index_law(self):
        for a in range(1, 7):
            for b in range(1, 7):
                assert ballot_series(a, 30) * ballot_series(b, 30) == ballot_series(a + b, 30)

    def test_closed_form(self):
        order = 30
        root = series_sqrt(Series([1, -4], order + 1))
        base = (Series.one(order + 1) - root).divided_by_x(1) * Fraction(1, 2)
        for alpha in range(0, 7):
            assert base ** alpha == ballot_series(alpha, order)

    def test_quadratic_relation(self):
        order = 30
        x = Series.x(order)
        y = x * series_compose(ballot_series(1, order), Series([0, 0, 1], order))
        assert x * y * y - y + x == Series.zero(order)

    def test_substitution_lemma(self):
        order = 30
        x = Series.x(order)
        y = x * series_compose(ballot_series(1, order), Series([0, 0, 1], order))
        for n in range(0, 9):
            rhs = (x ** n) * series_compose(ballot_series(n, order), Series([0, 0, 1], order))
            assert y ** n == rhs
        # y/(1+y^2) composed with y(x) returns x
        inv = Series([0, 1], order) * Series([1, 0, 1], order).inverse()
        assert series_compose(inv, y.truncated(20)) == Series.x(20)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ballot_series(-2, 6)

    def test_against_ballot_numbers_all_orders(self):
        for alpha in range(13):
            for order in range(61):
                s = ballot_series(alpha, order)
                assert s.order == order
                assert list(s.coeffs) == [ballot(alpha + 2 * k - 1, k)
                                          for k in range(order + 1)], (alpha, order)

    @pytest.mark.parametrize("alpha", [-1, -2, -5])
    def test_zero_denominator_pinned(self, alpha):
        # the first vanishing denominator factor is alpha + k at k = -alpha
        with pytest.raises(ValueError, match=r"^zero denominator at x\^%d for alpha=%d$"
                           % (-alpha, alpha)):
            ballot_series(alpha, 8)
        below = ballot_series(alpha, -alpha - 1)
        assert list(below.coeffs) == [brute_ballot_coefficient(alpha, k)
                                      for k in range(-alpha)]


class TestPartitions:
    def test_examples(self):
        assert partitions_of(2) == [(2,), (1, 1)]
        assert partitions_of(0) == [()]

    def test_count_against_brute_force(self):
        for n in range(0, 9):
            got = partitions_of(n)
            assert len(got) == len(set(got)) and set(got) == brute_partitions(n, n), n
        assert len(partitions_of(6)) == 11

    def test_reverse_lexicographic_order(self):
        parts = partitions_of(7)
        assert parts == sorted(parts, reverse=True)


class TestCentralizerOrder:
    def test_examples(self):
        assert centralizer_order((1, 1)) == 2
        assert centralizer_order((2,)) == 2

    def test_class_sizes_sum_to_group_order(self):
        # n!/z_lambda is the size of the conjugacy class of cycle type
        # lambda; compared against direct enumeration of S_n
        for n in (3, 4, 5):
            counts = permutation_count_by_cycle_type(n)
            total = 0
            for lam in partitions_of(n):
                size = math.factorial(n) // centralizer_order(lam)
                assert counts[lam] == size, lam
                total += size
            assert total == math.factorial(n)
