"""The series checks and the generating-function route of cross_oracle,
shown able to fail: one coefficient of one series made wrong turns each
check that reads it to `fail` with the index named.  A series that differs
in one coefficient must compare unequal, so these also show that series
equality tells such series apart."""

import re

import pytest

from symident import combinat, sequences, suites

from test_can_fail_registry import _plus_x_to_the

ORDER, ALPHA_MAX = 12, 8
K = 4  # the coefficient made wrong below


def _series_report(check):
    (rep,) = [x for x in suites.suite_series(order=ORDER, alpha_max=ALPHA_MAX)
              if x.check == check]
    return rep


# check -> (alpha whose ballot series is made wrong, the whole counterexample)
BALLOT_READERS = {
    "series_ballot_coefficients": (3, "alpha=3 k=%d" % K),
    "series_closed_form": (3, "alpha=3"),
    "series_index_law": (12, "a=6 b=6"),  # the only pair with a + b = 12
    "series_quadratic": (1, "quadratic relation"),
    "series_substitution": (3, "power N=3"),
}


@pytest.mark.parametrize("check", sorted(BALLOT_READERS))
def test_series_checks_fail_on_one_wrong_ballot_coefficient(monkeypatch, check):
    alpha, want = BALLOT_READERS[check]
    assert _series_report(check).passed
    monkeypatch.setattr(combinat, "ballot_series", _plus_x_to_the(K, alpha)(combinat.ballot_series))
    rep = _series_report(check)
    assert rep.status == "fail"
    assert rep.counterexample == want


def test_cross_oracle_generating_functions_fail_on_a_wrong_denominator(monkeypatch):
    r, n = 3, 5
    assert sequences.cross_oracle_check(r, 12, det_max=3).passed
    # 1/(D + u^n) first differs from 1/D at u^n, since D(0) = 1
    monkeypatch.setattr(sequences, "sequence_genfun_denominator",
                        _plus_x_to_the(n, r)(sequences.sequence_genfun_denominator))
    rep = sequences.cross_oracle_check(r, 12, det_max=3)
    assert rep.status == "fail"
    assert re.match(r"generating functions: F coefficient u\^%d: " % n, rep.counterexample), \
        rep.counterexample
