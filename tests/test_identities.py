import math
from fractions import Fraction

import pytest

from symident.combinat import ballot
from symident.exactalg import MultiLaurent, UniLaurent
from symident.identities import (CheckReport, VerifyMode,
                                 composition_consistency_check,
                                 principal_combination_check, first_kind_e, first_kind_h,
                                 first_kind_p, genfun_transfer_check,
                                 principal_spec, _drawn_points,
                                 unit_binomial_sum_check, second_kind_e,
                                 second_kind_h, second_kind_p)
import random

SYM = VerifyMode("symbolic")


class TestFirstKind:
    def test_degenerate_base_case(self):
        rep = first_kind_e(2, 0, SYM)
        assert rep.passed

    def test_ballot_weight_at_negative_upper_index(self):
        # the m=2, r=2 instance needs ballot(-1, 1) = -2 to cancel the
        # constant 2 hidden in e_2 of the doubled vector
        assert ballot(-1, 1) == -2
        assert first_kind_e(2, 2, SYM).passed

    def test_vanishing_rows(self):
        for m in range(3, 9):
            assert first_kind_e(2, m, SYM).passed, m

    def test_h_small(self):
        assert first_kind_h(1, 2, SYM).passed

    def test_p_confirms_arity_convention(self):
        # at m = 2, r = 1 the right side contains the degree-0 power sum of
        # the doubled vector, which must count its 2r entries
        assert first_kind_p(1, 2, SYM).passed
        assert first_kind_p(1, 1, SYM).passed

    def test_windows(self):
        for r in (1, 2, 3):
            for m in range(0, 3 * r + 3):
                assert first_kind_e(r, m, SYM).passed, (r, m)
                assert first_kind_h(r, m, SYM).passed, (r, m)
                if m >= 1:
                    assert first_kind_p(r, m, SYM).passed, (r, m)


class TestSecondKind:
    def test_e_example(self):
        assert second_kind_e(2, 2, SYM).passed

    def test_h_needs_alternating_sign(self):
        # direct expansion: h_2(z, 1/z) = z^2 + 1 + z^-2 while
        # h_2(z + 1/z) = z^2 + 2 + z^-2, so the k = 1 term must subtract
        z = MultiLaurent.variable(0, 1)
        lhs = z ** 2 + 1 + z ** -2
        rhs = (z + z ** -1) ** 2 - 1
        assert lhs == rhs
        assert second_kind_h(1, 2, SYM).passed

    def test_p_example(self):
        assert second_kind_p(1, 2, SYM).passed

    def test_windows(self):
        for r in (1, 2, 3):
            for n in range(0, 2 * r + 1):
                assert second_kind_e(r, n, SYM).passed, (r, n)
            for n in range(0, 2 * r + 7):
                assert second_kind_h(r, n, SYM).passed, (r, n)
                if n >= 1:
                    assert second_kind_p(r, n, SYM).passed, (r, n)

    def test_e_range_precondition(self):
        with pytest.raises(ValueError):
            second_kind_e(2, 5, SYM)


class TestGenfunTransfer:
    def test_small_orders(self):
        assert genfun_transfer_check(1, 6).passed
        assert genfun_transfer_check(2, 8).passed

    def test_constant_coefficient(self):
        # the y^0 coefficient of both sides is 1; a failing order-0 check
        # would say otherwise
        assert genfun_transfer_check(1, 0).passed


class TestPrincipal:
    def test_e_small(self):
        q = UniLaurent.monomial(1, 1)
        rep = principal_spec("e", 1, 1)
        assert rep.passed
        # and the shape is really q + 1/q
        from symident.symfun import elementary
        from symident.identities import _q_vectors
        doubled, _ = _q_vectors(1)
        assert elementary(1, doubled) == q + q ** -1

    def test_vanishing_beyond_window(self):
        for n in (3, 4, 5):
            assert principal_spec("e", 1, n).passed

    def test_h_and_p_small(self):
        assert principal_spec("h", 1, 0).passed
        assert principal_spec("p", 1, 1).passed

    def test_sweep(self):
        for r in (1, 2, 3):
            for n in range(0, 9):
                assert principal_spec("e", r, n).passed
                assert principal_spec("h", r, n).passed
                if n >= 1:
                    assert principal_spec("p", r, n).passed


class TestPrincipalCombination:
    def test_all_six_small(self):
        for r in (1, 2):
            rep = principal_combination_check(r, 8)
            assert rep.passed, rep.counterexample


class TestUnitBinomialSum:
    def test_example(self):
        from symident.combinat import binom
        total = sum(binom(3 - 4 + 2 * k, k) * binom(4 - 2 * k - 4, 2 - k)
                    for k in range(max((4 - 3) // 2, 0), 3))
        assert total == 1
        assert unit_binomial_sum_check(3).passed

    def test_sweep(self):
        for r in range(1, 9):
            assert unit_binomial_sum_check(r).passed


class TestComposition:
    def test_round_trip(self):
        for r in (1, 2):
            rep = composition_consistency_check(r, 6)
            assert rep.passed, rep.counterexample


class TestRandomMode:
    def test_points_are_distinct_nonzero_bounded(self):
        rng = random.Random(0)
        pts = _drawn_points(rng, 12)
        assert len(set(pts)) == 12
        for a, b in pts:
            assert math.gcd(a, b) == 1
            assert 1 <= abs(a) <= 10 ** 6
            assert 1 <= b <= 10 ** 6

    def test_deterministic_given_seed(self):
        mode = VerifyMode("random", trials=5, seed=99)
        a = first_kind_h(4, 9, mode)
        b = first_kind_h(4, 9, mode)
        assert a.status == b.status == "pass"
        assert a.params == b.params

    def test_random_sweep(self):
        for seed in (1, 2):
            mode = VerifyMode("random", trials=3, seed=seed)
            for r in (4, 5):
                assert first_kind_e(r, 10, mode).passed
                assert second_kind_h(r, 11, mode).passed
                assert second_kind_p(r, 9, mode).passed

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            VerifyMode("fuzzy")
        with pytest.raises(ValueError):
            VerifyMode("random", trials=0)


class TestCheckReport:
    def test_failure_carries_counterexample(self):
        from symident.identities import _report
        rep = _report("demo", {"r": 1}, ["lhs=1 rhs=2"])
        assert rep.status == "fail"
        assert rep.counterexample
        assert not rep.passed

    def test_long_laurent_sides_are_cut(self, monkeypatch):
        from symident import identities
        from symident.symfun import symbolic_vectors
        complete, prefix = identities.complete, identities.complete_prefix

        def off(n, v):
            # h_n of the doubled vector, the single side, one more
            out = prefix(n, v)
            if len(v) == 6:
                out[n] = out[n] + 1
            return out

        monkeypatch.setattr(identities, "complete_prefix", off)
        rep = second_kind_h(3, 8, SYM)
        lhs = complete(8, symbolic_vectors(3)[1]) + 1
        assert rep.status == "fail" and len(repr(lhs)) > 8000
        cut = "lhs=%s… (%d terms) rhs=" % (repr(lhs)[:identities._SHOWN], len(lhs.coeffs))
        assert rep.counterexample.startswith("n=8 r=3 symbolic: " + cut)
        assert rep.counterexample.endswith(" terms)")
        assert len(rep.counterexample) < 3 * identities._SHOWN
        # short sides, and sides that are not Laurent polynomials, stay whole
        p = UniLaurent.monomial(3, -2)
        big = Fraction(3 ** 700, 2 ** 700)
        assert identities._shown(p) == repr(p) and identities._shown(big) == repr(big)

    def test_check_id_is_stable(self):
        rep = CheckReport("demo", {"b": 2, "a": 1}, "pass")
        assert rep.check_id == "demo[a=1,b=2]"
