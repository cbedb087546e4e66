"""The generating-function route of cross_oracle, shown able to fail: one
coefficient of its denominator made wrong turns the check to `fail` with
the index named.  The series checks' own rows, one wrong ballot
coefficient each, are in the can-fail registry."""

import re

from symident import sequences

from test_can_fail_registry import _plus_x_to_the


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
