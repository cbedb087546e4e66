"""The six transfer kernels against the generating-function oracle, and every
check built on a kernel shown able to fail when that kernel is wrong."""

import re
import sys

import pytest

from symident import identities, sequences
from symident.combinat import expansion_kernel

from oracles import brute_transfer_coefficients

KINDS = [(d, f) for d in ("first", "second") for f in ("e", "h", "p")]


@pytest.mark.parametrize("direction,family", KINDS)
def test_kernel_matches_generating_functions(direction, family):
    for r in range(1, 9):
        for n in range(31):
            assert expansion_kernel(direction, family, r, n) == \
                brute_transfer_coefficients(direction, family, r, n), (r, n)


def test_kernel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        expansion_kernel("third", "e", 2, 3)
    with pytest.raises(ValueError):
        expansion_kernel("first", "s", 2, 3)
    with pytest.raises(ValueError):
        expansion_kernel("first", "e", 0, 3)
    with pytest.raises(ValueError):
        expansion_kernel("second", "h", 2, -1)


T = 4  # the kernel index n made wrong below


def _perturb(monkeypatch, direction, family):
    """Put one coefficient of the (direction, family) kernel at n = T off
    by one, in every module that holds the kernel."""
    def wrong(d, f, r, n):
        out = expansion_kernel(d, f, r, n)
        if (d, f, n) == (direction, family, T):
            (i, c), rest = out[0], out[1:]
            out = [(i, c + 1)] + rest
        return out

    holders = [mod for name, mod in sys.modules.items()
               if name.startswith("symident") and
               getattr(mod, "expansion_kernel", None) is expansion_kernel]
    assert {identities, sequences} <= set(holders)
    for mod in holders:
        monkeypatch.setattr(mod, "expansion_kernel", wrong)


SYM = identities.VerifyMode("symbolic")

# (direction, family) -> [(label, check, pattern the counterexample must match)]
USERS = {
    ("first", "e"): [
        ("first_kind_e", lambda: identities.first_kind_e(2, T, SYM), r"\bm=%d\b" % T),
        ("principal (1a)", lambda: identities.principal_combination_check(2, 10),
         r"\(1a\) m=%d\b" % T),
        # the ballot-sum route of the characteristic coefficients
        ("roots_char_coeffs", lambda: sequences.char_coeffs_check(T),
         r"^ballot sum disagrees with the closed form at r=%d n=%d$" % (T, T)),
    ],
    ("first", "h"): [
        ("first_kind_h", lambda: identities.first_kind_h(2, T, SYM), r"\bm=%d\b" % T),
        ("principal (2a)", lambda: identities.principal_combination_check(2, 10),
         r"\(2a\) m=%d\b" % T),
        ("composition", lambda: identities.composition_consistency_check(2, 6),
         r"\bm=%d\b" % T),
    ],
    ("first", "p"): [
        ("first_kind_p", lambda: identities.first_kind_p(2, T, SYM), r"\bm=%d\b" % T),
        ("principal (3a)", lambda: identities.principal_combination_check(2, 10),
         r"\(3a\) m=%d\b" % T),
    ],
    ("second", "e"): [
        ("second_kind_e", lambda: identities.second_kind_e(2, T, SYM), r"\bn=%d\b" % T),
        ("principal (1b)", lambda: identities.principal_combination_check(2, 10),
         r"\(1b\) n=%d\b" % T),
        ("unit sum", lambda: identities.unit_binomial_sum_check(2), r"\bn=%d\b" % T),
    ],
    ("second", "h"): [
        ("second_kind_h", lambda: identities.second_kind_h(2, T, SYM), r"\bn=%d\b" % T),
        ("principal (2b)", lambda: identities.principal_combination_check(2, 10),
         r"\(2b\) n=%d\b" % T),
        ("composition", lambda: identities.composition_consistency_check(2, 6),
         r"\bm=%d\b" % T),
        ("inversion_F", lambda: sequences.inversion_check_F(2, T), r"\bn=%d\b" % T),
        ("fibonacci (3)", lambda: sequences.fibonacci_sums_check(10), r"\(3\) n=%d\b" % T),
        ("fibonacci (4)", lambda: sequences.fibonacci_sums_check(10), r"\(4\) n=%d\b" % T),
    ],
    ("second", "p"): [
        ("second_kind_p", lambda: identities.second_kind_p(2, T, SYM), r"\bn=%d\b" % T),
        ("principal (3b)", lambda: identities.principal_combination_check(2, 10),
         r"\(3b\) n=%d\b" % T),
        ("inversion_L", lambda: sequences.inversion_check_L(2, T), r"\bn=%d\b" % T),
        ("lucas (5)", lambda: sequences.lucas_sums_check(10), r"\(5\) n=%d\b" % T),
        ("lucas (6)", lambda: sequences.lucas_sums_check(10), r"\(6\) n=%d\b" % T),
    ],
}


@pytest.mark.parametrize("direction,family", KINDS)
def test_every_kernel_user_can_fail(monkeypatch, direction, family):
    cases = USERS[direction, family]
    for _, check, _ in cases:
        assert check().passed
    _perturb(monkeypatch, direction, family)
    for label, check, pattern in cases:
        rep = check()
        assert rep.status == "fail", label
        assert re.search(pattern, rep.counterexample), (label, rep.counterexample)


@pytest.mark.parametrize("family,r", [("e", 4), ("h", 2)])
def test_genfun_transfer_is_its_own_route(monkeypatch, family, r):
    # genfun_transfer_check substitutes x = y/(1+y^2) itself: a wrong
    # second-kind kernel leaves it passing, and one of its own inputs e_T
    # or h_T of the shifted vector off by one makes it fail from y^T on
    _perturb(monkeypatch, "second", family)
    assert identities.genfun_transfer_check(r, 8).passed
    monkeypatch.undo()

    name = {"e": "elementary_prefix", "h": "complete_prefix"}[family]
    prefix = getattr(identities, name)

    def wrong(n, v):
        out = prefix(n, v)
        if len(v) == r:  # the shifted vector; the doubled one has 2r entries
            out[T] = out[T] + 1
        return out

    monkeypatch.setattr(identities, name, wrong)
    rep = identities.genfun_transfer_check(r, 8)
    assert rep.status == "fail"
    assert re.match(r"%s coefficient y\^%d\b" % (family, T), rep.counterexample), \
        rep.counterexample
