import subprocess
import sys
import zipfile
from fractions import Fraction
from pathlib import Path

import pytest

import symident
from symident.combinat import centralizer_order
from symident.cyclotomic import roots_vectors
from symident.exactalg import det_fraction_free
from symident.sequences import (_fib_alternating_form, _fib_halved_form,
                                _lucas_case_sum, _lucas_delta_form,
                                char_coeffs, compare_with_golden,
                                congruence_check, fibonacci_sums_check,
                                lucas_sums_check, cross_oracle_check,
                                determinant_formulas_check,
                                fib_recurrence, sequence_genfun_check,
                                golden_table, initial_block_check,
                                inversion_check_F, inversion_check_L,
                                known_typos,
                                lucas_recurrence, partition_relations_check,
                                recurrence_coefficients, table)
from symident.symfun import complete_prefix, power_prefix

from oracles import genfun_denominator_binomials, genfun_numerator_L_binomials


class TestRecurrences:
    def test_classical_slices(self):
        F = fib_recurrence(2, 12)
        assert [F[n] for n in range(1, 13)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
        L = lucas_recurrence(2, 10)
        assert [L[n] for n in range(11)] == [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123]

    def test_published_coefficients(self):
        assert recurrence_coefficients(1) == [1]
        assert recurrence_coefficients(2) == [1, 1]
        assert recurrence_coefficients(3) == [1, 2, -1]
        assert recurrence_coefficients(4) == [1, 3, -2, -1]
        assert recurrence_coefficients(5) == [1, 4, -3, -3, 1]
        assert recurrence_coefficients(6) == [1, 5, -4, -6, 3, 1]

    def test_initial_zero_block(self):
        F = fib_recurrence(5, 6)
        assert [F[n] for n in range(-3, 2)] == [0, 0, 0, 0, 1]
        with pytest.raises(KeyError):
            F[-4]

    def test_table_spot_values(self):
        assert fib_recurrence(3, 7)[7] == 28
        assert fib_recurrence(4, 12)[12] == 988
        assert lucas_recurrence(5, 4)[4] == 25
        assert lucas_recurrence(3, 6)[6] == 38

    def test_order_one(self):
        F = fib_recurrence(1, 9)
        assert all(F[n] == 1 for n in range(1, 10))
        L = lucas_recurrence(1, 9)
        assert all(L[n] == 1 for n in range(10))


class TestExplicitForms:
    def test_table_values(self):
        for form in (_fib_halved_form, _fib_alternating_form):
            assert form(6, 14) == 9995
            assert form(2, 8) == 21
            assert all(form(r, 1) == 1 for r in range(1, 9))
        for form in (_lucas_delta_form, _lucas_case_sum):
            assert form(5, 4) == 25
            assert form(3, 6) == 38

    def test_agree_with_recurrence(self):
        for r in (1, 2, 3, 4):
            F = fib_recurrence(r, 30)
            L = lucas_recurrence(r, 30)
            for n in range(1, 31):
                assert _fib_halved_form(r, n) == _fib_alternating_form(r, n) == F[n], (r, n)
                assert type(_fib_halved_form(r, n)) is int, (r, n)
                assert _lucas_delta_form(r, n) == _lucas_case_sum(r, n) == L[n], (r, n)
            assert _lucas_delta_form(r, 0) == _lucas_case_sum(r, 0) == L[0] == r


def fib_cyclotomic_prefix(r, n_max):
    """[F_1, ..., F_(n_max+1)]: h_0..h_(n_max) of the shifted roots."""
    return complete_prefix(n_max, roots_vectors(r)[1])


class TestCyclotomicRoute:
    def test_examples(self):
        assert fib_cyclotomic_prefix(3, 6)[6] == 28
        assert power_prefix(3, roots_vectors(2)[1])[2] == 4
        assert fib_cyclotomic_prefix(1, 5) == [1] * 6

    def test_prefix_matches_recurrence(self):
        for r in (2, 3, 5):
            F = fib_recurrence(r, 20)
            pre = fib_cyclotomic_prefix(r, 19)
            assert pre == [F[n] for n in range(1, 21)]


class TestCharCoeffs:
    def test_values(self):
        assert list(char_coeffs(2)) == [1, 1, -1]
        # char_coeffs_check compares these with the ballot sums and the roots
        assert list(char_coeffs(4)) == [1, 1, -3, -2, 1]
        assert char_coeffs(3)[0] == 1

    def test_zero_outside_range(self):
        C = char_coeffs(3)
        assert C[-1] == 0 and C[4] == 0

    def test_recurrence_consistency(self):
        # lag-l recurrence coefficient is (-1)^(l-1) C_l
        for r in range(1, 9):
            C = char_coeffs(r)
            coeffs = recurrence_coefficients(r)
            for lag in range(1, r + 1):
                want = C[lag] if lag % 2 else -C[lag]
                assert coeffs[lag - 1] == want, (r, lag)


class TestInversion:
    def test_fifth_index_pattern(self):
        # 8 - 15 + 6 = -1 and 5 = 2r+1 mod 4r+2 selects the -1 branch
        rep = inversion_check_F(2, 5)
        assert rep.passed, rep.counterexample

    def test_base_case(self):
        for r in (1, 3, 6):
            assert inversion_check_F(r, 0).passed

    def test_lucas_fifth(self):
        rep = inversion_check_L(2, 5)
        assert rep.passed, rep.counterexample

    def test_sweep(self):
        for r in (1, 2, 3, 4):
            for n in range(0, 40):
                assert inversion_check_F(r, n).passed, (r, n)
                if n >= 1:
                    assert inversion_check_L(r, n).passed, (r, n)


class TestInitialBlock:
    def test_examples(self):
        F = fib_recurrence(2, 4)
        assert F[4] == 3  # binom(4,1) - binom(4,0)
        assert lucas_recurrence(5, 4)[4] == 25
        assert lucas_recurrence(4, 3)[3] == 4

    def test_sweep(self):
        for r in range(1, 9):
            rep = initial_block_check(r)
            assert rep.passed, (r, rep.counterexample)


class TestBinomialSums:
    def test_fibonacci_sums(self):
        rep = fibonacci_sums_check(60)
        assert rep.passed, rep.counterexample

    def test_fibonacci_sums_spot_values(self):
        from symident.combinat import binom
        # mod-6 pattern at n = 3
        assert sum((-1) ** k * binom(3 - k, k) for k in range(2)) == -1
        # mod-10 pattern at n = 5: 8 - 15 + 6
        F = fib_recurrence(2, 6)
        total = sum((-1) ** k * binom(5 - k + 1, k) * F[5 - 2 * k + 1] for k in range(3))
        assert total == -1
        # alternating ballot sum at n = 9 reproduces F_9 = 34
        assert _fib_alternating_form(2, 9) == 34

    def test_lucas_sums(self):
        rep = lucas_sums_check(60)
        assert rep.passed, rep.counterexample

    def test_lucas_sums_spot_values(self):
        from symident.combinat import binom
        assert Fraction(3, 2) * binom(4, 2) == 9 == 2 ** 3 + 1
        assert -(2 ** 5) + Fraction(5, 2) * (binom(6, 3)) == 18
        assert lucas_recurrence(2, 6)[6] == 18


class TestCongruence:
    def test_pisano_example(self):
        rep = congruence_check(2, 11, 120)
        assert rep.passed, rep.counterexample
        # F_10 = 55 = 5 * 11
        assert fib_recurrence(2, 10)[10] % 11 == 0

    def test_seven_thirteen(self):
        rep = congruence_check(3, 13, 200)
        assert rep.passed, rep.counterexample

    def test_hypothesis_validation(self):
        with pytest.raises(ValueError, match="not prime"):
            congruence_check(4, 11, 10)
        with pytest.raises(ValueError, match="odd prime"):
            congruence_check(2, 10, 10)
        with pytest.raises(ValueError, match="not \\+-1"):
            congruence_check(2, 13, 10)

    def test_residues_need_higher_order(self):
        # the all-ones order-1 sequence is periodic but breaks the residue
        # pattern, and the report says so instead of raising
        rep = congruence_check(1, 7, 30)
        assert not rep.passed
        assert "!= 0 mod" in rep.counterexample


class TestDeterminants:
    def test_three_by_three_example(self):
        C = char_coeffs(2)
        m = [[C[1 - i + j] for j in range(3)] for i in range(3)]
        assert m == [[1, -1, 0], [1, 1, -1], [0, 1, 1]]
        assert det_fraction_free(m) == 3 == fib_recurrence(2, 4)[4]

    def test_one_by_one_reduces_to_initial_values(self):
        for r in (1, 2, 3):
            rep = determinant_formulas_check(r, 1)
            assert rep.passed, (r, rep.counterexample)

    def test_sweep(self):
        for r in (1, 2, 3):
            rep = determinant_formulas_check(r, 8)
            assert rep.passed, (r, rep.counterexample)


class TestGenfun:
    def test_order_two_series(self):
        from symident.sequences import (sequence_genfun_denominator,
                                        sequence_genfun_numerator_L)
        D = sequence_genfun_denominator(2, 6)
        assert list(D.coeffs) == [1, -1, -1, 0, 0, 0, 0]
        N = sequence_genfun_numerator_L(2, 6)
        assert list(N.coeffs) == [1, 2, 0, 0, 0, 0, 0]
        lh = N * D.inverse()
        assert [int(c) for c in lh.coeffs[:4]] == [1, 3, 4, 7]

    def test_builders_match_the_binomial_sums(self):
        # D and N_L are built from char_coeffs; the two binomial sums of each
        # are the independent reference
        from symident.sequences import (sequence_genfun_denominator,
                                        sequence_genfun_numerator_L)
        for r in range(1, 13):
            for order in range(31):
                assert list(sequence_genfun_denominator(r, order).coeffs) == \
                    genfun_denominator_binomials(r, order), (r, order)
                assert list(sequence_genfun_numerator_L(r, order).coeffs) == \
                    genfun_numerator_L_binomials(r, order), (r, order)

    def test_offset_convention(self):
        # u^0 coefficient is F_1 = 1, not the zero at F_0
        from symident.sequences import sequence_genfun_denominator
        for r in (2, 3, 5):
            assert sequence_genfun_denominator(r, 4).inverse()[0] == 1

    def test_sweep(self):
        for r in (2, 3, 6):
            rep = sequence_genfun_check(r, 30)
            assert rep.passed, (r, rep.counterexample)


class TestPartitionRelations:
    def test_small_values_by_hand(self):
        L = lucas_recurrence(2, 2)
        F = fib_recurrence(2, 3)
        assert Fraction(L[1] * F[2] + L[2] * F[1], 2) == 2 == F[3]
        # partitions of 2: (2) and (1,1)
        assert Fraction(L[2], centralizer_order((2,))) \
            + Fraction(L[1] ** 2, centralizer_order((1, 1))) == 2
        assert -Fraction(L[2], 2) + Fraction(L[1] ** 2, 2) == -1 == char_coeffs(2)[2]

    def test_sweep(self):
        for r in (1, 2, 3):
            rep = partition_relations_check(r, 12)
            assert rep.passed, (r, rep.counterexample)


class TestCrossOracle:
    def test_moderate_orders(self):
        for r in (1, 2, 5):
            rep = cross_oracle_check(r, 25, det_max=6)
            assert rep.passed, (r, rep.counterexample)


class TestTables:
    def test_spot_cells(self):
        assert table("fib").get(9, 10) == 1700
        assert table("lucas").get(7, 13) == 4096
        assert table("cnk").get(18, 7) == 13260

    def test_cnk_blanks(self):
        t = table("cnk")
        assert t.get(3, 2) is None
        assert t.get(21, 10) == 58786

    def test_custom_ranges(self):
        t = table("fib", rows=[2], cols=[5, 6])
        assert t.rows == [2] and t.cols == [5, 6]
        assert t.get(2, 5) == 5

    def test_golden_comparison(self):
        for kind in ("cnk", "fib", "lucas"):
            rep = compare_with_golden(kind)
            assert rep.passed, (kind, rep.counterexample)

    def test_golden_tables_read_from_a_zipped_package(self, tmp_path):
        # the tables are package resources, so symident imported from a zip
        # (as from a zipped egg) reads them as it does from a directory
        package = Path(symident.__file__).parent
        archive = tmp_path / "symident.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for path in sorted(package.rglob("*")):
                if path.is_file() and "__pycache__" not in path.parts:
                    zf.write(path, path.relative_to(package.parent))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import symident; "
                "from symident import sequences; "
                "assert symident.__file__.startswith(sys.argv[1]), symident.__file__; "
                "print([sequences.compare_with_golden(k).status for k in ('cnk', 'fib', 'lucas')])")
        run = subprocess.run([sys.executable, "-I", "-c", code, str(archive)],
                             capture_output=True, text=True)
        assert (run.returncode, run.stdout) == (0, "['pass', 'pass', 'pass']\n"), run.stderr

    def test_documented_exception(self):
        gold = golden_table("lucas")
        assert gold.get(15, 12) == 11274
        assert table("lucas").get(15, 12) == 12274
        typos = known_typos()
        assert ("lucas", 15, 12, 11274, 12274) == typos[0][:5]
        # and it is the only deviation between computed and published
        comp = table("lucas", gold.rows, gold.cols)
        diffs = [(r, c) for r, c, v in gold.cells() if comp.get(r, c) != v]
        assert diffs == [(15, 12)]
