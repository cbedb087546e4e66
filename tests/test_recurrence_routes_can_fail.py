"""The checks that compare recurrence values with closed forms and
residues, shown able to fail: one recurrence value, or one closed-form
value, made wrong turns each check that reads it to `fail` with the index
named, and a closed form with the route named too."""

from fractions import Fraction

import pytest

from symident import sequences, suites

from test_can_fail_registry import _fib_off


# r = 2, q = 11: the period is q - 1 = 10 and the residues are read at
# i = 0, 10, 20, 30 (and i + 1, i + 2) for n_max = 30, k_max = 3; the
# registry row makes F_5 wrong, which only n = 5 reads
CONGRUENCE_CASES = [
    (20, "F period at n=10; F period at n=20; F[20] != 0 mod 11"),
]


@pytest.mark.parametrize("index, want", CONGRUENCE_CASES)
def test_congruence_fails_on_a_wrong_recurrence_value(monkeypatch, index, want):
    r, q = 2, 11
    assert sequences.congruence_check(r, q, 30).passed
    monkeypatch.setattr(sequences, "fib_recurrence", _fib_off(r, index)(sequences.fib_recurrence))
    rep = sequences.congruence_check(r, q, 30)
    assert rep.status == "fail"
    assert rep.counterexample == want


# closed form -> (its route in a counterexample, how much it is made wrong
# by at one n); a value that is not an integer is a miss, not an error
FORM_CASES = {
    "halved": ("_fib_halved_form", "F halved form", 1),
    "alternating": ("_fib_alternating_form", "F alternating form", 1),
    "delta": ("_lucas_delta_form", "L delta form", 1),
    "case_sum": ("_lucas_case_sum", "L case sum", 1),
    "halved_plus_half": ("_fib_halved_form", "F halved form", Fraction(1, 2)),
}


@pytest.mark.parametrize("case", sorted(FORM_CASES))
def test_cross_oracle_closed_form_fails_on_a_wrong_explicit_value(monkeypatch, case):
    form, route, step = FORM_CASES[case]
    r, index = 3, 7
    assert sequences.cross_oracle_check(r, 12, det_max=3).passed
    right = getattr(sequences, form)
    monkeypatch.setattr(sequences, form, lambda order, n: right(order, n) + step * (n == index))
    # through the guarded runner, where a raise would be an error report
    rep = suites._guarded(sequences.cross_oracle_check, r, 12, 3)
    assert rep.status == "fail"
    assert rep.counterexample == "%s vs recurrence n=%d" % (route, index)


def test_cross_oracle_fails_on_a_wrong_recurrence_value(monkeypatch):
    r, index = 3, 7
    monkeypatch.setattr(sequences, "fib_recurrence", _fib_off(r, index)(sequences.fib_recurrence))
    rep = sequences.cross_oracle_check(r, 12, det_max=3)
    assert rep.status == "fail"
    # every route compared with F misses at the index (the first three shown)
    assert rep.counterexample == ("F cyclotomic vs recurrence n=%d; F halved form vs recurrence "
                                  "n=%d; F alternating form vs recurrence n=%d" % ((index,) * 3))
