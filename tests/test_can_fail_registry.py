"""Every check that the seed-7 battery reports is registered as able to
fail: one row per check name, with the attribute to patch, how to make it
wrong, a small call of the check and the pattern its counterexample must
match once patched.  A check that reaches the battery without a row fails
the first test by name.  The other can-fail tests take their perturbations
from here."""

import re

import pytest

from symident import combinat, cyclotomic, identities, sequences, suites
from symident.exactalg import Series, UniLaurent
from symident.symfun import PointVector

R = 3  # zeta of order 7
SYM = identities.VerifyMode("symbolic")
q = UniLaurent.monomial(1, 1)


def _kernel_off(direction, family, index):
    """The (direction, family) kernel with its first coefficient one more
    at n = index, for every r."""
    def wrong(kernel):
        def off(d, f, r, n):
            out = kernel(d, f, r, n)
            if (d, f, n) == (direction, family, index):
                (i, c), *rest = out
                out = [(i, c + 1)] + rest
            return out
        return off
    return wrong


def _plus_at(index, step=1):
    """fn(r, n) with step more at n = index."""
    return lambda fn: lambda r, n: fn(r, n) + step if n == index else fn(r, n)


def _prefix_shift(index, arity):
    """A prefix routine with the value at index one more, for vectors of
    the given arity."""
    def wrong(prefix):
        def off(n, v):
            out = prefix(n, v)
            if len(v) == arity:
                out[index] = out[index] + 1
            return out
        return off
    return wrong


def _first_root(which, root):
    """roots_vectors with the first entry of its doubled (which = 0) or
    shifted (which = 1) vector root(field)."""
    def wrong(build):
        def swapped(r):
            vectors = list(build(r))
            v = vectors[which]
            vectors[which] = PointVector((root(v[0].field),) + v.entries[1:])
            return tuple(vectors)
        return swapped
    return wrong


def _plus_x_to_the(k, first):
    """A series builder fn(a, order), such as ballot_series, with x^k added
    where a == first."""
    return lambda build: lambda a, order: (build(a, order) + Series([0] * k + [1], order)
                                           if a == first else build(a, order))


def _fib_off(order_r, index):
    """fib_recurrence with F_index of order order_r one more, where stored."""
    def wrong(fib):
        def off(order, n_max):
            seq = fib(order, n_max)
            if order == order_r and index <= n_max:
                values = list(seq.values)
                values[index - seq.start] += 1
                seq = sequences.HigherSequence(seq.r, seq.start, values)
            return seq
        return off
    return wrong


def _golden_cell_off(kind, cell):
    def wrong(golden):
        def off(k):
            tab = golden(k)  # a fresh table, read from its file
            if k == kind:
                tab.values[cell] += 1
            return tab
        return off
    return wrong


def _expansion_at(direction, family, index):
    """The per-index check at (R, index), once shown equal to the report at
    that index of the symbolic row, which builds its values once for all
    its indices: pass or fail, both give the same report and counterexample
    text."""
    def call():
        rep = identities.expansion_check(direction, family, R, index)
        row = suites.suite_expansion(direction, [R], index, (family,), SYM)
        assert rep == row[-1]
        return rep
    return call


def _series(check):
    def call():
        (rep,) = [x for x in suites.suite_series(order=12, alpha_max=8) if x.check == check]
        return rep
    return call


def _expansion_row(direction, family, index=5):
    name = "m" if direction == "first" else "n"
    return (identities, "expansion_kernel", _kernel_off(direction, family, index),
            _expansion_at(direction, family, index),
            # both sides are written as polynomials in E1..Er, never in z
            r"^%s=%d r=%d symbolic: lhs=[-+*^ 0-9E]+ rhs=[-+*^ 0-9E]+$" % (name, index, R))


# check name -> (module, attribute, wrong(original), call, counterexample pattern)
REGISTRY = {
    **{"%s_kind_%s" % (d, f): _expansion_row(d, f) for d in ("first", "second") for f in "ehp"},
    "genfun_transfer": (identities, "complete_prefix", _prefix_shift(5, R),
                        lambda: identities.genfun_transfer_check(R, 8),
                        r"^h coefficient y\^5\b"),
    "principal_spec_e": (identities, "_elem_q_closed", _plus_at(4, q),
                         lambda: identities.principal_spec("e", R, 4), r"^lhs=.+ rhs="),
    "principal_spec_h": (identities, "_complete_q_closed", _plus_at(4, q),
                         lambda: identities.principal_spec("h", R, 4), r"^lhs=.+ rhs="),
    "principal_spec_p": (identities, "power", lambda power: lambda n, v: power(n, v) + (n == 4),
                         lambda: identities.principal_spec("p", R, 4), r"^lhs=.+ rhs="),
    "principal_combination": (identities, "expansion_kernel", _kernel_off("second", "h", 4),
                              lambda: identities.principal_combination_check(2, 10),
                              r"\(2b\) n=4\b"),
    "composition_consistency": (identities, "expansion_kernel", _kernel_off("first", "h", 4),
                                lambda: identities.composition_consistency_check(2, 6),
                                r"^m=4$"),
    "unit_binomial_sum_check": (identities, "expansion_kernel", _kernel_off("second", "e", 4),
                                lambda: identities.unit_binomial_sum_check(R), r"^n=4 gives "),
    "series_ballot_coefficients": (combinat, "ballot_series", _plus_x_to_the(4, 3),
                                   _series("series_ballot_coefficients"), r"^alpha=3 k=4$"),
    "series_closed_form": (combinat, "ballot_series", _plus_x_to_the(4, 3),
                           _series("series_closed_form"), r"^alpha=3$"),
    "series_index_law": (combinat, "ballot_series", _plus_x_to_the(4, 12),
                         _series("series_index_law"), r"^a=6 b=6$"),
    "series_quadratic": (combinat, "ballot_series", _plus_x_to_the(4, 1),
                         _series("series_quadratic"), r"^quadratic relation$"),
    "series_substitution": (combinat, "ballot_series", _plus_x_to_the(4, 3),
                            _series("series_substitution"), r"^power N=3$"),
    # -zeta becomes -zeta^0 = -1: every pattern goes wrong from its index 1
    # on, where the sum of the entries first enters
    **{"roots_" + f: (sequences, "roots_vectors", _first_root(0, lambda field: -field.one),
                      lambda f=f: sequences.roots_check(f, R), r"^%s n=1(;|$)" % f)
       for f in "ehp"},
    "roots_char_coeffs": (sequences, "elementary_prefix", _prefix_shift(4, 6),
                          lambda: sequences.char_coeffs_check(6),
                          r"^root-of-unity value disagrees with the closed form at r=6 n=4$"),
    # -(zeta + zeta^-1) becomes -zeta; lhs is the squared Vandermonde
    # determinant, rhs (2r+1)^(r-1) = 7^2
    "discriminant_square": (cyclotomic, "roots_vectors",
                            _first_root(1, lambda field: -field.zeta(1)),
                            lambda: sequences.discriminant_check(R),
                            r"^r=3: lhs=CycInt\(m=7, \(35, 4, -9, 31, 26, -24\)\) rhs=49$"),
    "cross_oracle": (sequences, "complete_prefix", _prefix_shift(4, R),
                     lambda: sequences.cross_oracle_check(R, 12, det_max=6),
                     r"^F cyclotomic vs recurrence n=5$"),
    "inversion_F": (sequences, "_doubled_roots_h", _plus_at(4),
                    lambda: sequences.inversion_check_F(R, 4), r"^n=4: sum=.+ expected="),
    "inversion_L": (sequences, "_doubled_roots_p", _plus_at(4),
                    lambda: sequences.inversion_check_L(R, 4), r"^n=4: sum=.+ expected="),
    "fibonacci_sums": (sequences, "_doubled_roots_h", _plus_at(4),
                       lambda: sequences.fibonacci_sums_check(10), r"\(3\) n=4: "),
    "lucas_sums": (sequences, "_doubled_roots_p", _plus_at(4),
                   lambda: sequences.lucas_sums_check(10), r"\(5\) n=4: "),
    "congruence": (sequences, "fib_recurrence", _fib_off(2, 5),
                   lambda: sequences.congruence_check(2, 11, 30), r"^F period at n=5$"),
    "initial_block": (sequences, "fib_recurrence", _fib_off(R, 4),
                      lambda: sequences.initial_block_check(R), r"^F\[4\] r=3: 5 vs 4$"),
    "partition_relations": (sequences, "centralizer_order",
                            lambda order: lambda parts: order(parts) + (parts == (2, 1)),
                            lambda: sequences.partition_relations_check(2, 6),
                            r"^partition F n=3; partition C n=3$"),
    "golden_table": (sequences, "golden_table", _golden_cell_off("fib", (R, 4)),
                     lambda: sequences.compare_with_golden("fib"),
                     r"^cell \(3,4\): computed \d+, published \d+$"),
}


def test_every_battery_check_has_a_row():
    names = {rep.check for rep in suites.battery(7)}
    missing = sorted(names - REGISTRY.keys())
    assert not missing, "no can-fail row for: %s" % ", ".join(missing)
    stale = sorted(REGISTRY.keys() - names)
    assert not stale, "rows for checks the battery does not report: %s" % ", ".join(stale)


@pytest.mark.parametrize("check", sorted(REGISTRY))
def test_a_registered_patch_makes_the_check_fail(monkeypatch, check):
    module, attr, wrong, call, pattern = REGISTRY[check]
    rep = call()
    assert (rep.check, rep.status) == (check, "pass")
    monkeypatch.setattr(module, attr, wrong(getattr(module, attr)))
    rep = call()
    assert (rep.check, rep.status) == (check, "fail")
    assert re.search(pattern, rep.counterexample), rep.counterexample
