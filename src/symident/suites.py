"""The verification suites, in one table.

``SUITES`` maps each suite's name to ``(suite, window)``.  ``window`` is the
suite's default window: its keys are the options the suite takes (``r`` is
a sequence of r values), and ``suite(**window)`` runs the suite and returns
its CheckReports.  ``verify`` lays the options it is given over the default
window; ``report --all`` is ``battery(seed)``.

A suite reaches every verifier and substrate function through its module
(``sequences.cross_oracle_check(...)``), looked up when the suite runs, so a
function patched on its module is the one that runs.  It calls each
verifier through ``_guarded``, so a check that raises comes back as an
"error" report.
"""

from __future__ import annotations

import inspect
import os
import time
from fractions import Fraction

from . import combinat, cyclotomic, exactalg, identities, sequences, symfun


def _families_and_mode(family, mode, trials, seed):
    """The families tuple and the VerifyMode that an expansion suite's
    family, mode, trials and seed options name."""
    if mode == "random":
        if seed is None:
            raise ValueError("random mode needs --seed or SYMIDENT_SEED")
        verify_mode = identities.VerifyMode("random", trials=trials, seed=seed)
    else:
        verify_mode = identities.VerifyMode("symbolic")
    if family == "all":
        return ("e", "h", "p"), verify_mode
    if family in ("e", "h", "p"):
        return (family,), verify_mode
    raise ValueError("family must be e, h, p or all")


def _guarded(check, *args):
    """check(*args), or, if it raises anything but ValueError (a usage
    error), an "error" report that names the check, its int and str
    arguments, the exception and the line that raised it, so that the run
    still renders (exit 1)."""
    t0 = time.perf_counter()
    try:
        return check(*args)
    except ValueError:
        raise
    except Exception as exc:
        named = inspect.signature(check).bind(*args).arguments
        at = exc.__traceback__
        while at.tb_next:
            at = at.tb_next
        code = at.tb_frame.f_code
        where = "%s:%d in %s" % (os.path.basename(code.co_filename), at.tb_lineno, code.co_name)
        return identities.CheckReport(
            check.__name__, {k: v for k, v in named.items() if isinstance(v, (int, str))},
            "error", "%s: %s (%s)" % (type(exc).__name__, exc, where), time.perf_counter() - t0)


def _each(check, xs, *rest):
    """The guarded check(x, *rest) for each x of xs."""
    return [_guarded(check, x, *rest) for x in xs]


def _charged(reports, t0, built):
    """The row's reports, with the time spent building its shared inputs
    (from t0 to built) charged to the first, so that the row's elapsed
    times still add up to its run."""
    if reports:
        reports[0].elapsed += built - t0
    return reports


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
            t0 = time.perf_counter()
            values = None
            if mode.mode == "symbolic":
                _, doubled, shifted = symfun.symbolic_vectors(r)
                values = identities._expansion_values(direction, fam, hi, doubled, shifted)
            built = time.perf_counter()
            out += _charged([_guarded(identities.expansion_check, direction, fam, r, n, mode,
                                      values) for n in range(1 if fam == "p" else 0, hi + 1)],
                            t0, built)
    return out


def suite_series(order=30, alpha_max=8):
    """Truncated-series facts about the ballot generating function family:
    ballot coefficients, closed form via the square root, index law,
    quadratic relation, and the inverse substitution x = y/(1+y^2)."""
    if order < 0 or alpha_max < 0:
        raise ValueError("series needs --order >= 0 and --alpha-max >= 0")
    Series = exactalg.Series
    out = []
    t0 = time.perf_counter()
    # every ballot series the suite reads, built once: alpha <= alpha_max,
    # and a + b <= 12 in the index law
    ballots = [combinat.ballot_series(alpha, order)
               for alpha in range(max(alpha_max, 12) + 1)]
    fails = []
    for alpha in range(0, alpha_max + 1):
        s = ballots[alpha]
        for k in range(order + 1):
            if s[k] != combinat.ballot(alpha + 2 * k - 1, k):
                fails.append("alpha=%d k=%d" % (alpha, k))
    out.append(identities._report("series_ballot_coefficients",
                                  {"order": order, "alpha_max": alpha_max}, fails, t0))

    t0 = time.perf_counter()
    fails = []
    root = exactalg.series_sqrt(Series([1, -4], order + 1))
    base = (Series.one(order + 1) - root).divided_by_x(1) * Fraction(1, 2)
    for alpha in range(0, alpha_max + 1):
        if base ** alpha != ballots[alpha]:
            fails.append("alpha=%d" % alpha)
    out.append(identities._report("series_closed_form",
                                  {"order": order, "alpha_max": alpha_max}, fails, t0))

    t0 = time.perf_counter()
    fails = []
    for a in range(1, 7):
        for b in range(1, 7):
            if ballots[a] * ballots[b] != ballots[a + b]:
                fails.append("a=%d b=%d" % (a, b))
    out.append(identities._report("series_index_law", {"order": order}, fails, t0))

    t0 = time.perf_counter()
    x = Series.x(order)
    y = x * exactalg.series_compose(ballots[1], Series([0, 0, 1], order))
    fails = [] if x * y * y - y + x == Series.zero(order) else ["quadratic relation"]
    out.append(identities._report("series_quadratic", {"order": order}, fails, t0))

    t0 = time.perf_counter()
    fails = []
    for n in range(0, alpha_max + 1):
        lhs = y ** n
        rhs = (x ** n) * exactalg.series_compose(ballots[n], Series([0, 0, 1], order))
        if lhs != rhs:
            fails.append("power N=%d" % n)
    inv = Series([0, 1], order) * Series([1, 0, 1], order).inverse()
    short = min(order, 20)
    if exactalg.series_compose(inv, y.truncated(short)) != Series.x(short):
        fails.append("inverse substitution")
    out.append(identities._report("series_substitution",
                                  {"order": order, "n_max": alpha_max}, fails, t0))
    return out


def suite_principal(rs, n_max):
    """The principal q-specialisations for n up to n_max, and their
    combination check."""
    if n_max < 1:
        raise ValueError("principal needs --n-max >= 1")
    out = []
    for r in rs:
        for n in range(0, n_max + 1):
            for family in ("e", "h", "p") if n else ("e", "h"):
                out.append(_guarded(identities.principal_spec, family, r, n))
        out.append(_guarded(identities.principal_combination_check, r, n_max))
    return out


def suite_roots(rs):
    """Exact evaluations at the doubled and shifted roots of unity: the
    three closed patterns (h and p up to n = 6(2r + 1)), the
    characteristic coefficients, and the companion binomial identity."""
    out = []
    for r in rs:
        top = 6 * (2 * r + 1)
        t0 = time.perf_counter()
        fails = []
        doubled = cyclotomic.doubled_roots_vector(r)
        es = symfun.elementary_prefix(2 * r + 4, doubled)
        for n in range(2 * r + 5):
            want = 1 if n <= 2 * r else 0
            if es[n] != want:
                fails.append("e n=%d" % n)
        out.append(identities._report("roots_e", {"r": r}, fails, t0))

        t0 = time.perf_counter()
        fails = []
        hs = symfun.complete_prefix(top, doubled)
        for n in range(top + 1):
            if hs[n] != sequences._doubled_roots_h(r, n):
                fails.append("h n=%d" % n)
        out.append(identities._report("roots_h", {"r": r, "n_max": top}, fails, t0))

        t0 = time.perf_counter()
        fails = []
        ps = symfun.power_prefix(top, doubled)
        for n in range(1, top + 1):
            if ps[n - 1] != sequences._doubled_roots_p(r, n):
                fails.append("p n=%d" % n)
        out.append(identities._report("roots_p", {"r": r, "n_max": top}, fails, t0))

        t0 = time.perf_counter()
        try:
            sequences.char_coeffs(r)
            fails = []
        except ArithmeticError as exc:
            fails = [str(exc)]
        out.append(identities._report("roots_char_coeffs", {"r": r}, fails, t0))
        out.append(_guarded(identities.unit_binomial_sum_check, r))
    return out


def suite_discriminant(rs):
    """The squared Vandermonde determinant of the shifted roots (lhs)
    against (2r+1)^(r-1) (rhs), for each r with 2r + 1 prime; the other r
    are skipped."""
    out = []
    for r in rs:
        if not cyclotomic._is_prime(2 * r + 1):
            continue
        t0 = time.perf_counter()
        square, want = cyclotomic.discriminant_square(r), (2 * r + 1) ** (r - 1)
        fails = [] if square == want else ["r=%d: lhs=%r rhs=%d" % (r, square, want)]
        out.append(identities._report("discriminant_square", {"r": r}, fails, t0))
    return out


def suite_inversion(rs, n_max):
    """The inversion checks over F (n >= 0) and L (n >= 1) up to n_max,
    each row of one r over one F and one L."""
    out = []
    for r in rs:
        t0 = time.perf_counter()
        F = sequences.fib_recurrence(r, n_max + 1)
        L = sequences.lucas_recurrence(r, n_max)
        built = time.perf_counter()
        row = []
        for n in range(0, n_max + 1):
            row.append(_guarded(sequences.inversion_check_F, r, n, F))
            if n >= 1:
                row.append(_guarded(sequences.inversion_check_L, r, n, L))
        out += _charged(row, t0, built)
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
    "principal": (lambda r, n_max: suite_principal(r, n_max),
                  {"r": (1, 2, 3, 4), "n_max": 10}),
    "principal-combined": (lambda r, bound:
                           _each(identities.principal_combination_check, r, bound),
                           {"r": (1, 2, 3, 4), "bound": 10}),
    "binomial-unit": (lambda r: _each(identities.unit_binomial_sum_check, r),
                      {"r": range(1, 9)}),
    "roots": (lambda r: suite_roots(r), {"r": range(1, 9)}),
    "discriminant": (lambda r: suite_discriminant(r), {"r": (1, 2, 3, 5, 6)}),
    "cross-oracle": (lambda r, n_max: _each(sequences.cross_oracle_check, r, n_max),
                     {"r": range(1, 9), "n_max": 60}),
    "inversion": (lambda r, n_max: suite_inversion(r, n_max),
                  {"r": range(1, 9), "n_max": 60}),
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


def battery(seed: int) -> list:
    """Every battery row's reports; the seed drives the random rows."""
    reports = []
    for name, options in BATTERY:
        suite, window = SUITES[name]
        window = {**window, **options}
        if "seed" in window:
            window["seed"] = seed
        reports += suite(**window)
    return reports
