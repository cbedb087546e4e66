"""The verification suites, in one table.

``SUITES`` maps each suite's name to ``(suite, window)``.  ``window`` is the
suite's default window: its keys are the options the suite takes (``r`` is
a sequence of r values), and ``suite(**window)`` runs the suite and returns
its CheckReports.  ``verify`` lays the options it is given over the default
window; ``report --all`` is ``battery(seed)``, ``report --wide`` ``wide()``.

A suite only orchestrates: every report comes from a public verifier in
``identities`` or ``sequences`` called through ``_guarded``, the one place
a check is timed and a raising check becomes an "error" report; ``_row``
builds the inputs a row of checks shares once, guarded too.  A suite
reaches every verifier and substrate function through its module
(``sequences.cross_oracle_check``), looked up when the suite runs, so a
function patched on its module is the one that runs.
"""

from __future__ import annotations

import inspect
import os
import time

from . import combinat, cyclotomic, exactalg, identities, sequences


def _families_and_mode(family, mode, trials, seed):
    """The families tuple and the VerifyMode that an expansion suite's
    family, mode, trials and seed options name; VerifyMode refuses a mode
    other than symbolic or random."""
    if mode == "random" and seed is None:
        raise ValueError("random mode needs --seed or SYMIDENT_SEED")
    verify_mode = identities.VerifyMode(mode, trials=trials, seed=seed)
    if family == "all":
        return ("e", "h", "p"), verify_mode
    if family in ("e", "h", "p"):
        return (family,), verify_mode
    raise ValueError("family must be e, h, p or all")


def _guarded(check, *args):
    """check(*args), with the call's wall time as the report's elapsed; or,
    if it raises, an "error" report that gives the exception and the line
    that raised it (exit 1), named as the check's own report would be
    (check.names, see identities._verifier) or else after the function and
    its int and str arguments.  A ValueError raised by the check's own body
    is a bad argument, and passes through as a usage error (exit 2)."""
    t0 = time.perf_counter()
    try:
        out = check(*args)
    except Exception as exc:
        at = exc.__traceback__
        while at.tb_next:
            at = at.tb_next
        code = at.tb_frame.f_code
        if isinstance(exc, ValueError) and code is inspect.unwrap(check).__code__:
            raise
        if hasattr(check, "names"):
            name, params = check.names(*args)
        else:
            named = inspect.signature(check).bind(*args).arguments
            name = check.__name__
            params = {k: v for k, v in named.items() if isinstance(v, (int, str))}
        where = "%s:%d in %s" % (os.path.basename(code.co_filename), at.tb_lineno, code.co_name)
        out = identities.CheckReport(name, params, "error",
                                     "%s: %s (%s)" % (type(exc).__name__, exc, where))
    if isinstance(out, identities.CheckReport):
        out.elapsed = time.perf_counter() - t0
    return out


def _each(check, xs, *rest):
    """The guarded check(x, *rest) for each x of xs."""
    return [_guarded(check, x, *rest) for x in xs]


def _row(build, args, checks):
    """checks(build(*args)), the reports of a row whose checks share what
    build makes, with the build's time charged to the first report so that
    the row's times add up to its run; a build that raises is the row's
    one error report."""
    t0 = time.perf_counter()
    shared = _guarded(build, *args)
    if isinstance(shared, identities.CheckReport):
        return [shared]
    built = time.perf_counter()
    reports = checks(shared)
    if reports:
        reports[0].elapsed += built - t0
    return reports


# the inputs that the checks of one row share, built once
def _inversion_row(r, n_max):
    return sequences.fib_recurrence(r, n_max + 1), sequences.lucas_recurrence(r, n_max)


def _series_row(order, alpha_max):
    # the index law reads a + b <= 12
    ballots = [combinat.ballot_series(alpha, order) for alpha in range(max(alpha_max, 12) + 1)]
    Series = exactalg.Series
    return ballots, Series.x(order) * exactalg.series_compose(ballots[1], Series([0, 0, 1], order))


def suite_expansion(direction, rs, top, families, mode):
    """The expansion identities of one direction ("first" or "second") for
    index up to top; by default 3r + 2 in the first kind and 2r + 6 in the
    second, where e_n of the 2r doubled entries stops at n = 2r.  A
    symbolic row of one (r, family) builds its values once, up to its top
    index; a random check draws its own points."""
    out = []
    for r in rs:
        for fam in families:
            hi = top if top is not None else (3 * r + 2 if direction == "first" else 2 * r + 6)
            if (direction, fam) == ("second", "e"):
                hi = min(hi, 2 * r)

            def checks(values):
                return [_guarded(identities.expansion_check, direction, fam, r, n, mode, values)
                        for n in range(1 if fam == "p" else 0, hi + 1)]
            out += (checks(None) if mode.mode == "random"
                    else _row(identities._symbolic_values, (direction, fam, r, hi), checks))
    return out


def suite_series(order=30, alpha_max=8):
    """Truncated-series facts about the ballot generating function family:
    ballot coefficients, closed form via the square root, index law,
    quadratic relation, and the inverse substitution x = y/(1+y^2).  The
    ballot series and y are built once for the five checks."""
    if order < 0 or alpha_max < 0:
        raise ValueError("series needs --order >= 0 and --alpha-max >= 0")

    def checks(shared):
        ballots, y = shared
        return [_guarded(identities.series_ballot_coefficients, ballots, order, alpha_max),
                _guarded(identities.series_closed_form, ballots, order, alpha_max),
                _guarded(identities.series_index_law, ballots, order),
                _guarded(identities.series_quadratic, y, order),
                _guarded(identities.series_substitution, ballots, y, order, alpha_max)]
    return _row(_series_row, (order, alpha_max), checks)


def suite_principal(r, n_max):
    """The principal q-specialisations for n up to n_max, and their
    combination check, at each x of r.  A row of one x builds its sides and
    closed q-forms once (identities._principal_values), up to n_max."""
    if n_max < 1:
        raise ValueError("principal needs --n-max >= 1")
    out = []
    for x in r:
        def checks(values):
            return [*(_guarded(identities.principal_spec, family, x, n, values)
                      for n in range(n_max + 1) for family in ("ehp" if n else "eh")),
                    _guarded(identities.principal_combination_check, x, n_max, values)]
        out += _row(identities._principal_values, (x, n_max), checks)
    return out


def suite_roots(r):
    """Exact evaluations at the doubled and shifted roots of unity, at each
    x of r: the three closed patterns (h and p up to n = 6(2x + 1)), the
    characteristic coefficients, and the companion binomial identity."""
    out = []
    for x in r:
        out += [_guarded(sequences.roots_check, family, x) for family in ("e", "h", "p")]
        out += [_guarded(sequences.char_coeffs_check, x),
                _guarded(identities.unit_binomial_sum_check, x)]
    return out


def suite_discriminant(r):
    """The discriminant check for each x of r with 2x + 1 prime; the other
    x are skipped."""
    return [_guarded(sequences.discriminant_check, x)
            for x in r if cyclotomic._is_prime(2 * x + 1)]


def suite_inversion(r, n_max):
    """The inversion checks over F (n >= 0) and L (n >= 1) up to n_max,
    each row of one x of r over one F and one L."""
    def checks(x, F, L):
        row = []
        for n in range(0, n_max + 1):
            row.append(_guarded(sequences.inversion_check_F, x, n, F))
            if n >= 1:
                row.append(_guarded(sequences.inversion_check_L, x, n, L))
        return row
    out = []
    for x in r:
        out += _row(_inversion_row, (x, n_max), lambda FL: checks(x, *FL))
    return out


DEFAULT_CONGRUENCE_PAIRS = [(2, 11), (2, 19), (2, 29), (2, 31),
                            (3, 13), (3, 29), (3, 41), (3, 43),
                            (5, 23), (5, 43)]


def suite_congruence(r, q, n_max, k_max):
    """The congruences for the one pair (r, q) given, or without q for the
    default pairs (those of the given r, when r is given)."""
    if q is None:
        pairs = [(pr, pq) for pr, pq in DEFAULT_CONGRUENCE_PAIRS if r is None or pr in r]
    elif r is None or len(r) != 1:
        raise ValueError("congruence with --q needs a single --r")
    else:
        pairs = [(r[0], q)]
    return [_guarded(sequences.congruence_check, pr, pq, n_max, k_max) for pr, pq in pairs]


_EXPANSION_OPTIONS = {"family": "all", "mode": "symbolic", "trials": 5, "seed": None}

# name -> (suite, default window), in the order the README lists them.  A
# window value of None stands for a default that depends on r (m_max,
# n_max, order) or, for congruence, for the default pairs.
SUITES = {
    "first-kind": (lambda r, m_max, **opts:
                   suite_expansion("first", r, m_max, *_families_and_mode(**opts)),
                   dict(r=(1, 2, 3), m_max=None, **_EXPANSION_OPTIONS)),
    "second-kind": (lambda r, n_max, **opts:
                    suite_expansion("second", r, n_max, *_families_and_mode(**opts)),
                    dict(r=(1, 2, 3), n_max=None, **_EXPANSION_OPTIONS)),
    "genfun-transfer": (lambda r, order:
                        [_guarded(identities.genfun_transfer_check, x,
                                  2 * x + 4 if order is None else order) for x in r],
                        {"r": (1, 2, 3), "order": None}),
    "series": (suite_series, {"order": 30, "alpha_max": 8}),
    "principal": (suite_principal, {"r": (1, 2, 3, 4), "n_max": 10}),
    "principal-combined": (lambda r, bound:
                           _each(identities.principal_combination_check, r, bound),
                           {"r": (1, 2, 3, 4), "bound": 10}),
    "binomial-unit": (lambda r: _each(identities.unit_binomial_sum_check, r),
                      {"r": range(1, 9)}),
    "roots": (suite_roots, {"r": range(1, 9)}),
    "discriminant": (suite_discriminant, {"r": (1, 2, 3, 5, 6)}),
    "cross-oracle": (lambda r, n_max: _each(sequences.cross_oracle_check, r, n_max),
                     {"r": range(1, 9), "n_max": 60}),
    "inversion": (suite_inversion, {"r": range(1, 9), "n_max": 60}),
    "fibonacci-sums": (lambda bound: _each(sequences.fibonacci_sums_check, [bound]),
                       {"bound": 60}),
    "lucas-sums": (lambda bound: _each(sequences.lucas_sums_check, [bound]), {"bound": 60}),
    "congruence": (suite_congruence, {"r": None, "q": None, "n_max": 200, "k_max": 3}),
    "determinants": (lambda r, n_max: _each(sequences.determinant_formulas_check, r, n_max),
                     {"r": (1, 2, 3), "n_max": 8}),
    "genfun-sequences": (lambda r, order: _each(sequences.sequence_genfun_check, r, order),
                         {"r": (1, 2, 3, 4, 5, 6), "order": 30}),
    "partition-relations": (lambda r, n_max:
                            _each(sequences.partition_relations_check, r, n_max),
                            {"r": (1, 2, 3), "n_max": 12}),
    "initial-block": (lambda r: _each(sequences.initial_block_check, r),
                      {"r": range(1, 9)}),
    "consistency": (lambda r, m_max:
                    _each(identities.composition_consistency_check, r, m_max),
                    {"r": (1, 2), "m_max": 6}),
    "tables": (lambda: _each(sequences.compare_with_golden, ("cnk", "fib", "lucas")), {}),
}

# report --all: every suite at its default window, and the expansion
# identities again at random points past the symbolic window.  It leaves
# out the four suites that another one already runs in full:
# principal-combined (in principal), binomial-unit (in roots), determinants
# and genfun-sequences (in cross-oracle, at a wider window).
BATTERY = [(name, {}) for name in SUITES
           if name not in ("principal-combined", "binomial-unit",
                           "determinants", "genfun-sequences")]
BATTERY += [("first-kind", {"r": (4, 5, 6), "m_max": 16, "mode": "random", "trials": 5}),
            ("second-kind", {"r": (4, 5, 6), "n_max": 16, "mode": "random", "trials": 5})]

# report --wide: windows past the battery's, and no random row
WIDE = [("cross-oracle", {"r": (16,)}), ("first-kind", {"r": (12,), "m_max": 24}),
        ("second-kind", {"r": (12,), "n_max": 24}), ("genfun-transfer", {"r": (4,), "order": 16}),
        ("principal", {"r": range(1, 9), "n_max": 16})]


def battery(seed, rows=BATTERY) -> list:
    """The reports of every row (by default BATTERY's, report --all), each
    row's options laid over its suite's default window; the seed drives
    the random rows."""
    reports = []
    for name, options in rows:
        suite, window = SUITES[name]
        window = {**window, **options}
        if "seed" in window:
            window["seed"] = seed
        reports += suite(**window)
    return reports


def wide() -> list:
    """report --wide: every WIDE row's reports."""
    return battery(None, WIDE)
