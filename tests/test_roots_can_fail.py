"""The suites that evaluate at roots of unity, shown able to fail: one root
swapped for another power of zeta, or one value shifted by one, turns each
of them to `fail` with the index named in the counterexample."""

import re

import pytest

from symident import cyclotomic, sequences, suites
from symident.symfun import PointVector

R = 3  # zeta of order 7
T = 4  # the index whose value is shifted below


def _swap_first(vector_fn, root):
    """vector_fn with its first entry replaced by root(field)."""
    def wrong(r):
        v = vector_fn(r)
        return PointVector((root(v[0].field),) + v.entries[1:])
    return wrong


def _shift_at(prefix_fn, index, arity):
    """prefix_fn with the value at `index` one more, for vectors of the
    given arity."""
    def wrong(n, v):
        out = prefix_fn(n, v)
        if len(v) == arity:
            out[index] = out[index] + 1
        return out
    return wrong


def _one(check, reports):
    (rep,) = [x for x in reports if x.check == check]
    return rep


def test_roots_patterns_fail_on_a_swapped_root(monkeypatch):
    for check in ("roots_e", "roots_h", "roots_p"):
        assert _one(check, suites.suite_roots([R])).passed
    # -zeta becomes -zeta^0 = -1: every pattern goes wrong from its index 1
    # on, where the sum of the entries first enters, and the value there is
    # not even a rational integer
    monkeypatch.setattr(cyclotomic, "doubled_roots_vector",
                        _swap_first(cyclotomic.doubled_roots_vector, lambda f: -f.one))
    reports = suites.suite_roots([R])
    for check, name in (("roots_e", "e"), ("roots_h", "h"), ("roots_p", "p")):
        rep = _one(check, reports)
        assert rep.status == "fail", check
        assert re.match(r"%s n=1(;|$)" % name, rep.counterexample), rep.counterexample


def test_char_coeffs_fail_on_a_shifted_elementary_value(monkeypatch):
    r = 6
    assert _one("roots_char_coeffs", suites.suite_roots([r])).passed
    monkeypatch.setattr(sequences, "elementary_prefix",
                        _shift_at(sequences.elementary_prefix, T, r))
    rep = _one("roots_char_coeffs", suites.suite_roots([r]))
    assert rep.status == "fail"
    assert rep.counterexample.endswith("at r=%d n=%d" % (r, T)), rep.counterexample


def test_discriminant_fails_on_a_swapped_root(monkeypatch):
    assert suites.suite_discriminant([R])[0].passed
    # -(zeta + zeta^-1) becomes -zeta
    monkeypatch.setattr(cyclotomic, "shifted_roots_vector",
                        _swap_first(cyclotomic.shifted_roots_vector, lambda f: -f.zeta(1)))
    rep = suites.suite_discriminant([R])[0]
    assert rep.status == "fail"
    # lhs is the squared Vandermonde determinant, rhs (2r+1)^(r-1) = 7^2
    assert rep.counterexample == "r=3: lhs=CycInt(m=7, (35, 4, -9, 31, 26, -24)) rhs=49"


def _cross_oracle():
    return sequences.cross_oracle_check(R, 12, det_max=6)


def test_cross_oracle_cyclotomic_route_can_fail(monkeypatch):
    assert _cross_oracle().passed
    # h_T of the shifted roots is F_(T+1)
    monkeypatch.setattr(sequences, "complete_prefix",
                        _shift_at(sequences.complete_prefix, T, R))
    rep = _cross_oracle()
    assert rep.status == "fail"
    assert rep.counterexample == "F cyclotomic vs recurrence n=%d" % (T + 1)
    monkeypatch.undo()
    # p_T sits at position T - 1 of the power prefix
    monkeypatch.setattr(sequences, "power_prefix",
                        _shift_at(sequences.power_prefix, T - 1, R))
    rep = _cross_oracle()
    assert rep.status == "fail"
    assert rep.counterexample == "L cyclotomic vs recurrence n=%d" % T


def test_cross_oracle_bialternant_route_can_fail(monkeypatch):
    assert _cross_oracle().passed
    det = sequences.det_cofactor

    def wrong(rows, below=None):
        # the bialternant numerator of index T: its top row holds the
        # (T + r - 1)-th powers of the roots, whose first powers are the
        # second-to-last row
        out = det(rows, below)
        if rows[0] == [a ** (T + R - 1) for a in rows[-2]]:
            out = out + 1
        return out

    monkeypatch.setattr(sequences, "det_cofactor", wrong)
    rep = _cross_oracle()
    assert rep.status == "fail"
    assert rep.counterexample == "determinants: bialternant n=%d" % T


def test_cross_oracle_fails_on_a_top_row_one_power_off(monkeypatch):
    det = sequences.det_cofactor

    def wrong(rows, below=None):
        # the numerator of index T with its top row one power too high
        if rows[0] == [a ** (T + R - 1) for a in rows[-2]]:
            rows = [[x * a for x, a in zip(rows[0], rows[-2])]] + rows[1:]
        return det(rows, below)

    monkeypatch.setattr(sequences, "det_cofactor", wrong)
    rep = _cross_oracle()
    assert rep.status == "fail"
    assert rep.counterexample == "determinants: bialternant n=%d" % T


@pytest.mark.parametrize("j", range(R))
def test_cross_oracle_fails_on_a_cofactor_of_the_wrong_sign(monkeypatch, j):
    # every numerator is top row . cofactors, so every index fails; the
    # report names the first three
    cofactors = sequences.first_row_cofactors

    def wrong(rest):
        rows, K = cofactors(rest)
        return rows, K[:j] + [-K[j]] + K[j + 1:]

    monkeypatch.setattr(sequences, "first_row_cofactors", wrong)
    rep = _cross_oracle()
    assert rep.status == "fail"
    assert rep.counterexample == "determinants: bialternant n=1; bialternant n=2; bialternant n=3"



def test_cross_oracle_fails_on_a_swapped_root(monkeypatch):
    # -(zeta + zeta^-1) becomes -zeta: the values from index 1 on are not
    # even rational integers, which is a failure, not a usage error
    monkeypatch.setattr(sequences, "shifted_roots_vector",
                        _swap_first(sequences.shifted_roots_vector, lambda f: -f.zeta(1)))
    rep = _cross_oracle()
    assert rep.status == "fail"
    assert rep.counterexample.startswith(
        "L cyclotomic vs recurrence n=1; F cyclotomic vs recurrence n=2;"), rep.counterexample
