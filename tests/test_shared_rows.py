"""A suite row builds its index-independent inputs once: a symbolic
expansion row the values of its vectors up to its top index, an inversion
row one F and one L per r, a principal row its q-vector sides and closed
q-forms per r.  The rows must give exactly the reports of the per-index
checks, still fail at the one index made wrong, and charge the shared build
to their first report."""

import time
import tracemalloc

import pytest

from symident import identities, sequences, suites

from oracles import laurent_values

SYM = identities.VerifyMode("symbolic")
RANDOM = identities.VerifyMode("random", trials=5, seed=7)
KINDS = [(d, f) for d in ("first", "second") for f in ("e", "h", "p")]
T = 5  # the index made wrong below


def _per_index(direction, family, rs, top, mode):
    """The reports of the per-index checks over a row's window."""
    out = []
    for r in rs:
        hi = top if top is not None else (3 * r + 2 if direction == "first" else 2 * r + 6)
        if (direction, family) == ("second", "e"):
            hi = min(hi, 2 * r)
        out += [identities.expansion_check(direction, family, r, n, mode)
                for n in range(1 if family == "p" else 0, hi + 1)]
    return out


@pytest.mark.parametrize("direction,family", KINDS)
@pytest.mark.parametrize("rs,top,mode", [((1, 2, 3), None, SYM), ((4, 5, 6), 16, RANDOM)],
                         ids=["symbolic", "random"])
def test_expansion_rows_equal_per_index_checks(direction, family, rs, top, mode):
    rows = suites.suite_expansion(direction, rs, top, (family,), mode)
    want = _per_index(direction, family, rs, top, mode)
    assert [rep.check_id for rep in rows] == [rep.check_id for rep in want]
    assert rows == want  # check, params, status and counterexample


def test_inversion_rows_equal_per_index_checks():
    rows = suites.suite_inversion(range(1, 9), 60)
    want = []
    for r in range(1, 9):
        for n in range(61):
            want.append(sequences.inversion_check_F(r, n))
            if n >= 1:
                want.append(sequences.inversion_check_L(r, n))
    assert [rep.check_id for rep in rows] == [rep.check_id for rep in want]
    assert rows == want


def _principal_checks(rs, n_max):
    """The reports of the standalone principal checks over a row's window."""
    out = []
    for r in rs:
        out += [identities.principal_spec(family, r, n)
                for n in range(n_max + 1) for family in ("ehp" if n else "eh")]
        out.append(identities.principal_combination_check(r, n_max))
    return out


# the principal windows of report --all and report --wide
@pytest.mark.parametrize("rs, n_max", [(range(1, 5), 10), (range(1, 9), 16)],
                         ids=["battery", "wide"])
def test_principal_rows_equal_standalone_checks(rs, n_max):
    rows = suites.suite_principal(rs, n_max)
    want = _principal_checks(rs, n_max)
    assert [rep.check_id for rep in rows] == [rep.check_id for rep in want]
    assert rows == want


def _kernel_off_at(kernel, direction, family, index):
    """kernel with its first coefficient one more at (direction, family,
    index), for every r."""
    def wrong(d, f, r, n):
        out = kernel(d, f, r, n)
        if (d, f, n) == (direction, family, index):
            (i, c), *rest = out
            out = [(i, c + 1)] + rest
        return out
    return wrong


def _only_failure(reports):
    failed = [rep for rep in reports if not rep.passed]
    assert len(failed) == 1, [rep.check_id for rep in failed]
    return failed[0]


@pytest.mark.parametrize("direction,family", KINDS)
@pytest.mark.parametrize("r,top,mode", [(3, None, SYM), (4, 8, RANDOM)],
                         ids=["symbolic", "random"])
def test_an_expansion_row_fails_at_the_wrong_index(monkeypatch, direction, family, r, top, mode):
    assert all(rep.passed for rep in suites.suite_expansion(direction, [r], top, (family,), mode))
    monkeypatch.setattr(identities, "expansion_kernel",
                        _kernel_off_at(identities.expansion_kernel, direction, family, T))
    rep = _only_failure(suites.suite_expansion(direction, [r], top, (family,), mode))
    index = "m" if direction == "first" else "n"
    assert rep.check == "%s_kind_%s" % (direction, family)
    assert rep.params[index] == T
    assert rep.counterexample.startswith("%s=%d r=%d " % (index, T, r)), rep.counterexample


@pytest.mark.parametrize("family,check", [("h", "inversion_F"), ("p", "inversion_L")])
def test_an_inversion_row_fails_at_the_wrong_kernel_index(monkeypatch, family, check):
    monkeypatch.setattr(sequences, "expansion_kernel",
                        _kernel_off_at(sequences.expansion_kernel, "second", family, T))
    rep = _only_failure(suites.suite_inversion([3], 12))
    assert (rep.check, rep.params) == (check, {"r": 3, "n": T})
    assert rep.counterexample.startswith("n=%d: " % T)


@pytest.mark.parametrize("family,check", [("h", "inversion_F"), ("p", "inversion_L")])
def test_an_inversion_row_fails_at_a_wrong_closed_value(monkeypatch, family, check):
    name = "_doubled_roots_%s" % family
    right = getattr(sequences, name)
    monkeypatch.setattr(sequences, name, lambda r, n: right(r, n) + (n == T))
    rep = _only_failure(suites.suite_inversion([3], 12))
    assert (rep.check, rep.params) == (check, {"r": 3, "n": T})
    assert rep.counterexample == "n=%d: sum=%d expected=%d" % (T, right(3, T), right(3, T) + 1)


def _slowed(fn, seconds):
    def slow(*args):
        time.sleep(seconds)
        return fn(*args)
    return slow


def test_a_row_charges_its_shared_build_to_its_first_report(monkeypatch):
    pause = 0.05
    monkeypatch.setattr(identities, "_symbolic_values",
                        _slowed(identities._symbolic_values, pause))
    rows = suites.suite_expansion("first", [1], 3, ("h",), SYM)
    assert rows[0].elapsed >= pause
    monkeypatch.setattr(sequences, "fib_recurrence", _slowed(sequences.fib_recurrence, pause))
    rows = suites.suite_inversion([1, 2], 3)
    firsts = [rep for rep in rows if rep.check == "inversion_F" and rep.params["n"] == 0]
    assert [rep.elapsed >= pause for rep in firsts] == [True, True]
    monkeypatch.setattr(identities, "_principal_values",
                        _slowed(identities._principal_values, pause))
    rows = suites.suite_principal([1, 2], 3)
    firsts = [rep for rep in rows if rep.check == "principal_spec_e" and rep.params["n"] == 0]
    assert [rep.elapsed >= pause for rep in firsts] == [True, True]


def test_series_builds_each_ballot_series_once_per_call(monkeypatch):
    from symident import combinat
    calls = []
    build = combinat.ballot_series
    monkeypatch.setattr(combinat, "ballot_series",
                        lambda alpha, order: calls.append((alpha, order)) or build(alpha, order))
    for _ in range(2):  # nothing is kept from one call to the next
        calls.clear()
        assert all(rep.passed for rep in suites.suite_series(order=10, alpha_max=8))
        assert sorted(calls) == [(alpha, 10) for alpha in range(13)]


def test_a_per_index_check_peaks_below_the_laurent_values_of_its_index():
    # a check that builds its own sides builds them in Z[E_1..E_r]; it
    # peaks at a small part of what f_0..f_n of the literal Laurent
    # vectors alone take, and gives the report it gives when handed a
    # row's values
    direction, family, r, n = "second", "h", 4, 10
    want = identities.expansion_check(direction, family, r, n)  # fills the caches

    def peak(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    own, own_peak = peak(lambda: identities.expansion_check(direction, family, r, n))
    _, laurent_peak = peak(lambda: laurent_values(direction, family, r, n))
    assert own_peak < 0.05 * laurent_peak, (own_peak, laurent_peak)
    held = identities.expansion_check(direction, family, r, n, values=identities._symbolic_values(
        direction, family, r, n + 4))
    assert own == held == want and want.passed
