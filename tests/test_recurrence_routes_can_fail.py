"""The checks that compare recurrence values with closed forms and
residues, shown able to fail: one recurrence value, or one closed-form
value, made wrong turns each check that reads it to `fail` with the index
named."""

import pytest

from symident import sequences


def _fib_off_at(r, index):
    """fib_recurrence with F_index one more for order r, where stored."""
    fib = sequences.fib_recurrence

    def wrong(order, n_max):
        seq = fib(order, n_max)
        if order == r and index <= n_max:
            values = list(seq.values)
            values[index - seq.start] += 1
            seq = sequences.HigherSequence(seq.r, seq.start, values)
        return seq
    return wrong


# r = 2, q = 11: the period is q - 1 = 10 and the residues are read at
# i = 0, 10, 20, 30 (and i + 1, i + 2) for n_max = 30, k_max = 3
CONGRUENCE_CASES = [
    (5, "F period at n=5"),  # only n = 5 reads F_5
    (20, "F period at n=10; F period at n=20; F[20] != 0 mod 11"),
]


@pytest.mark.parametrize("index, want", CONGRUENCE_CASES)
def test_congruence_fails_on_a_wrong_recurrence_value(monkeypatch, index, want):
    r, q = 2, 11
    assert sequences.congruence_check(r, q, 30).passed
    monkeypatch.setattr(sequences, "fib_recurrence", _fib_off_at(r, index))
    rep = sequences.congruence_check(r, q, 30)
    assert rep.status == "fail"
    assert rep.counterexample == want


def test_initial_block_fails_on_a_wrong_recurrence_value(monkeypatch):
    r, index = 3, 4
    assert sequences.initial_block_check(r).passed
    right = sequences.fib_recurrence(r, index)[index]
    monkeypatch.setattr(sequences, "fib_recurrence", _fib_off_at(r, index))
    rep = sequences.initial_block_check(r)
    assert rep.status == "fail"
    assert rep.counterexample == "F[%d] r=%d: %d vs %d" % (index, r, right + 1, right)


def test_cross_oracle_closed_form_fails_on_a_wrong_explicit_value(monkeypatch):
    r, index = 3, 7
    assert sequences.cross_oracle_check(r, 12, det_max=3).passed
    explicit = sequences.fib_explicit
    monkeypatch.setattr(sequences, "fib_explicit",
                        lambda order, n: explicit(order, n) + (n == index))
    rep = sequences.cross_oracle_check(r, 12, det_max=3)
    assert rep.status == "fail"
    assert rep.counterexample == "F explicit vs recurrence n=%d" % index


def test_cross_oracle_fails_on_a_wrong_recurrence_value(monkeypatch):
    r, index = 3, 7
    monkeypatch.setattr(sequences, "fib_recurrence", _fib_off_at(r, index))
    rep = sequences.cross_oracle_check(r, 12, det_max=3)
    assert rep.status == "fail"
    assert rep.counterexample.startswith("F cyclotomic vs recurrence n=%d; "
                                         "F explicit vs recurrence n=%d; " % (index, index))
