"""The cross-oracle routes that evaluate at roots of unity, shown able to
fail: one root swapped for another power of zeta, or one value shifted by
one, turns the check to `fail` with the route and index named in the
counterexample.  The roots, discriminant and characteristic-coefficient
checks and the F half of the cyclotomic route have their rows in the
can-fail registry."""

import pytest

from symident import sequences

from test_can_fail_registry import _first_root, _prefix_shift

R = 3  # zeta of order 7
T = 4  # the index whose value is shifted below


def _cross_oracle():
    return sequences.cross_oracle_check(R, 12, det_max=6)


def test_cross_oracle_cyclotomic_route_can_fail(monkeypatch):
    assert _cross_oracle().passed
    # p_T sits at position T - 1 of the power prefix
    monkeypatch.setattr(sequences, "power_prefix",
                        _prefix_shift(T - 1, R)(sequences.power_prefix))
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
    monkeypatch.setattr(sequences, "roots_vectors",
                        _first_root(1, lambda f: -f.zeta(1))(sequences.roots_vectors))
    rep = _cross_oracle()
    assert rep.status == "fail"
    assert rep.counterexample.startswith(
        "L cyclotomic vs recurrence n=1; F cyclotomic vs recurrence n=2;"), rep.counterexample
