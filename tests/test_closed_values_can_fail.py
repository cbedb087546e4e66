"""The checks that compare against a closed value written once, shown able
to fail: the values of h_n and p_n at the doubled roots, the closed q-forms
of the principal specialisations and the published tables (the
centralizer order behind the partition sums has its row in the can-fail
registry).  One value made wrong turns each
check that reads it to `fail` with the index named."""

import re

import pytest

from symident import identities, sequences, suites
from symident.exactalg import UniLaurent
from symident.identities import _shown

from test_can_fail_registry import _plus_at

R = 3  # zeta of order 7
T = 4  # the index whose closed value is made wrong below


def _one(check, reports):
    (rep,) = [x for x in reports if x.check == check]
    return rep


# family -> [(label, check, pattern the counterexample must match)]; the
# registry rows of inversion_F, inversion_L, fibonacci_sums (3) and
# lucas_sums (5) make the same value wrong
READERS = {
    "h": [
        ("roots_h", lambda: _one("roots_h", suites.suite_roots([R])), r"^h n=%d(;|$)" % T),
        ("fibonacci (4)", lambda: sequences.fibonacci_sums_check(10), r"\(4\) n=%d: " % T),
    ],
    "p": [
        ("roots_p", lambda: _one("roots_p", suites.suite_roots([R])), r"^p n=%d(;|$)" % T),
        ("lucas (6)", lambda: sequences.lucas_sums_check(10), r"\(6\) n=%d: " % T),
    ],
}


@pytest.mark.parametrize("family", sorted(READERS))
def test_every_reader_of_a_doubled_roots_value_can_fail(monkeypatch, family):
    cases = READERS[family]
    for _, check, _ in cases:
        assert check().passed
    name = "_doubled_roots_%s" % family
    monkeypatch.setattr(sequences, name, _plus_at(T)(getattr(sequences, name)))
    for label, check, pattern in cases:
        rep = check()
        assert rep.status == "fail", label
        assert re.search(pattern, rep.counterexample), (label, rep.counterexample)


q = UniLaurent.monomial(1, 1)


def _failed_principal_specs():
    return [rep for rep in suites.suite_principal([R], T)
            if rep.check.startswith("principal_spec") and not rep.passed]


@pytest.mark.parametrize("family, name", [("e", "_elem_q_closed"), ("h", "_complete_q_closed")])
def test_principal_spec_fails_on_a_wrong_closed_coefficient(monkeypatch, family, name):
    assert _failed_principal_specs() == []
    closed = getattr(identities, name)
    monkeypatch.setattr(identities, name, _plus_at(T, q)(closed))
    (rep,) = _failed_principal_specs()
    assert (rep.check, rep.params) == ("principal_spec_" + family, {"r": R, "n": T})
    # lhs is f_T of the doubled q-vector, rhs the closed form with its q^1
    # coefficient one more
    right = closed(R, T)
    assert rep.counterexample == "lhs=%s rhs=%s" % (_shown(right), _shown(right + q))


def test_principal_spec_p_fails_on_a_wrong_power_sum(monkeypatch):
    assert _failed_principal_specs() == []
    power = identities.power
    monkeypatch.setattr(identities, "power",
                        lambda n, v: power(n, v) + 1 if n == T else power(n, v))
    (rep,) = _failed_principal_specs()
    assert (rep.check, rep.params) == ("principal_spec_p", {"r": R, "n": T})
    # lhs is p_T one more; rhs is the closed p_T, sum_j q^((j-r)T) - 1
    rhs = sum(q ** ((j - R) * T) for j in range(2 * R + 1)) - 1
    assert rep.counterexample == "lhs=%s rhs=%s" % (_shown(rhs + 1), _shown(rhs))


def test_tables_fail_on_a_wrong_published_cell(monkeypatch):
    suite = suites.SUITES["tables"][0]
    assert all(rep.passed for rep in suite())
    golden = sequences.golden_table

    def wrong(kind):
        tab = golden(kind)  # a fresh table, read from its file
        if kind == "fib":
            tab.values[(R, T)] += 1
        return tab

    monkeypatch.setattr(sequences, "golden_table", wrong)
    reports = suite()
    assert [rep.passed for rep in reports] == [True, False, True]
    want = sequences.table("fib").get(R, T)
    assert reports[1].counterexample == \
        "cell (%d,%d): computed %d, published %d" % (R, T, want, want + 1)
