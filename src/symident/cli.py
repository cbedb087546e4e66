"""Batch command-line front end.

    symident table {fib,lucas,cnk} [--r a:b] [--n a:b] [--format md|csv|json]
    symident verify SUITE [suite options]
    symident report --all [--seed N] [--format ...]

Exit codes: 0 all checks passed, 1 at least one check failed (the
counterexamples are in the rendered report), 2 usage or configuration
error.  With the same arguments and seed the rendered output is
byte-identical across runs; wall-clock timings only appear when asked for
with --timings.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import identities, sequences
from .cyclotomic import _is_prime, discriminant_square_check
from .identities import VerifyMode


class UsageError(Exception):
    pass


def parse_range(text: str, what: str) -> list:
    """Inclusive 'a:b' range, or a single integer."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError("bad %s range %r (expected a:b)" % (what, text))
    if hi < lo:
        raise UsageError("empty %s range %r" % (what, text))
    return list(range(lo, hi + 1))


def default_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("SYMIDENT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError("SYMIDENT_SEED=%r is not an integer" % env)
    return None


# ---------------------------------------------------------------------------
# rendering


def render_table(tab, fmt: str) -> str:
    header = ["%s/%s" % (tab.row_label, tab.col_label)] + [str(c) for c in tab.cols]
    body = []
    for r in tab.rows:
        body.append([str(r)] + ["" if tab.get(r, c) is None else str(tab.get(r, c))
                                for c in tab.cols])
    if fmt == "md":
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join("---" for _ in header) + "|"]
        lines += ["| " + " | ".join(row) + " |" for row in body]
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(body)
        return buf.getvalue()
    if fmt == "json":
        payload = {
            "kind": tab.kind,
            "row_label": tab.row_label,
            "col_label": tab.col_label,
            "rows": tab.rows,
            "cols": tab.cols,
            "values": [[tab.get(r, c) for c in tab.cols] for r in tab.rows],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    raise UsageError("unknown format %r" % fmt)


def render_reports(reports, fmt: str, seed=None, timings=False) -> str:
    reports = sorted(reports, key=lambda r: r.sort_key())
    if fmt == "json":
        recs = []
        for r in reports:
            rec = {"check": r.check, "params": r.params, "status": r.status}
            if r.counterexample is not None:
                rec["counterexample"] = r.counterexample
            if timings:
                rec["elapsed_ms"] = round(r.elapsed * 1000, 3)
            recs.append(rec)
        payload = {"reports": recs,
                   "passed": sum(1 for r in reports if r.passed),
                   "failed": sum(1 for r in reports if not r.passed)}
        if seed is not None:
            payload["seed"] = seed
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        header = ["check", "params", "status", "counterexample"]
        if timings:
            header.append("elapsed_ms")
        w.writerow(header)
        for r in reports:
            row = [r.check,
                   ";".join("%s=%s" % (k, r.params[k]) for k in sorted(r.params)),
                   r.status, r.counterexample or ""]
            if timings:
                row.append(round(r.elapsed * 1000, 3))
            w.writerow(row)
        return buf.getvalue()
    if fmt == "md":
        lines = ["| check | status | counterexample |", "|---|---|---|"]
        for r in reports:
            lines.append("| %s | %s | %s |" % (r.check_id, r.status, r.counterexample or ""))
        lines.append("")
        lines.append("%d passed, %d failed" % (sum(1 for r in reports if r.passed),
                                               sum(1 for r in reports if not r.passed)))
        return "\n".join(lines) + "\n"
    raise UsageError("unknown format %r" % fmt)


def write_output(text: str, path) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (path, exc))


# ---------------------------------------------------------------------------
# suites


def _mode_from(args, families_needed=False) -> VerifyMode:
    mode = getattr(args, "mode", "symbolic")
    if mode == "random":
        seed = default_seed(args)
        if seed is None:
            raise UsageError("random mode needs --seed or SYMIDENT_SEED")
        return VerifyMode("random", trials=args.trials, seed=seed)
    return VerifyMode("symbolic")


def _families(args):
    fams = getattr(args, "family", "all")
    if fams == "all":
        return ("e", "h", "p")
    if fams in ("e", "h", "p"):
        return (fams,)
    raise UsageError("family must be e, h, p or all")


def suite_first_kind(rs, m_max, families, mode):
    out = []
    fns = {"e": identities.first_kind_e, "h": identities.first_kind_h,
           "p": identities.first_kind_p}
    for r in rs:
        top = m_max if m_max is not None else 3 * r + 2
        for fam in families:
            start = 1 if fam == "p" else 0
            for m in range(start, top + 1):
                out.append(fns[fam](r, m, mode))
    return out


def suite_second_kind(rs, n_max, families, mode):
    out = []
    fns = {"e": identities.second_kind_e, "h": identities.second_kind_h,
           "p": identities.second_kind_p}
    for r in rs:
        for fam in families:
            if fam == "e":
                top = min(n_max, 2 * r) if n_max is not None else 2 * r
                rng = range(0, top + 1)
            elif fam == "h":
                top = n_max if n_max is not None else 2 * r + 6
                rng = range(0, top + 1)
            else:
                top = n_max if n_max is not None else 2 * r + 6
                rng = range(1, top + 1)
            for n in rng:
                out.append(fns[fam](r, n, mode))
    return out


def suite_series(order=30, alpha_max=8):
    """Truncated-series facts about the ballot generating function family:
    ballot coefficients, closed form via the square root, index law,
    quadratic relation, and the inverse substitution x = y/(1+y^2)."""
    import time
    from fractions import Fraction

    from .combinat import ballot, ballot_series
    from .exactalg import Series, series_compose, series_sqrt

    out = []
    t0 = time.perf_counter()
    fails = []
    for alpha in range(0, alpha_max + 1):
        s = ballot_series(alpha, order)
        for k in range(order + 1):
            if s[k] != ballot(alpha + 2 * k - 1, k):
                fails.append("alpha=%d k=%d" % (alpha, k))
    out.append(identities._report("series_ballot_coefficients",
                                  {"order": order, "alpha_max": alpha_max}, fails, t0))

    t0 = time.perf_counter()
    fails = []
    root = series_sqrt(Series([1, -4], order + 1))
    base = (Series.one(order + 1) - root).divided_by_x(1) * Fraction(1, 2)
    for alpha in range(0, alpha_max + 1):
        if base ** alpha != ballot_series(alpha, order):
            fails.append("alpha=%d" % alpha)
    out.append(identities._report("series_closed_form",
                                  {"order": order, "alpha_max": alpha_max}, fails, t0))

    t0 = time.perf_counter()
    fails = []
    for a in range(1, 7):
        for b in range(1, 7):
            if ballot_series(a, order) * ballot_series(b, order) != ballot_series(a + b, order):
                fails.append("a=%d b=%d" % (a, b))
    out.append(identities._report("series_index_law", {"order": order}, fails, t0))

    t0 = time.perf_counter()
    x = Series.x(order)
    y = x * series_compose(ballot_series(1, order), Series([0, 0, 1], order))
    fails = [] if x * y * y - y + x == Series.zero(order) else ["quadratic relation"]
    out.append(identities._report("series_quadratic", {"order": order}, fails, t0))

    t0 = time.perf_counter()
    fails = []
    for n in range(0, alpha_max + 1):
        lhs = y ** n
        rhs = (x ** n) * series_compose(ballot_series(n, order), Series([0, 0, 1], order))
        if lhs != rhs:
            fails.append("power N=%d" % n)
    inv = Series([0, 1], order) * Series([1, 0, 1], order).inverse()
    short = min(order, 20)
    if series_compose(inv, y.truncated(short)) != Series.x(short):
        fails.append("inverse substitution")
    out.append(identities._report("series_substitution",
                                  {"order": order, "n_max": alpha_max}, fails, t0))
    return out


def suite_principal(rs, n_max):
    out = []
    for r in rs:
        for n in range(0, n_max + 1):
            out.append(identities.principal_spec_e(r, n))
            out.append(identities.principal_spec_h(r, n))
            if n >= 1:
                out.append(identities.principal_spec_p(r, n))
        out.append(identities.principal_combination_check(r, n_max))
    return out


def suite_roots(rs, n_mult=6):
    """Exact evaluations at the doubled and shifted roots of unity: the
    three closed patterns, the characteristic coefficients, and the
    companion binomial identity."""
    import time

    from .cyclotomic import doubled_roots_vector
    from .symfun import complete_prefix, elementary_prefix, power_prefix

    out = []
    for r in rs:
        p = 2 * r + 1
        top = n_mult * p
        t0 = time.perf_counter()
        fails = []
        doubled = doubled_roots_vector(r)
        es = elementary_prefix(2 * r + 4, doubled)
        for n in range(2 * r + 5):
            want = 1 if n <= 2 * r else 0
            if es[n] != want:
                fails.append("e n=%d" % n)
        out.append(identities._report("roots_e", {"r": r}, fails, t0))

        t0 = time.perf_counter()
        fails = []
        hs = complete_prefix(top, doubled)
        for n in range(top + 1):
            m = n % (4 * r + 2)
            want = 1 if m in (0, 1) else (-1 if m in (p, p + 1) else 0)
            if hs[n] != want:
                fails.append("h n=%d" % n)
        out.append(identities._report("roots_h", {"r": r, "n_max": top}, fails, t0))

        t0 = time.perf_counter()
        fails = []
        ps = power_prefix(top, doubled)
        for n in range(1, top + 1):
            want = (-1 if n % 2 else 1) * (-1 + p * (1 if n % p == 0 else 0))
            if ps[n - 1] != want:
                fails.append("p n=%d" % n)
        out.append(identities._report("roots_p", {"r": r, "n_max": top}, fails, t0))

        t0 = time.perf_counter()
        try:
            sequences.char_coeffs(r)
            fails = []
        except ArithmeticError as exc:
            fails = [str(exc)]
        out.append(identities._report("roots_char_coeffs", {"r": r}, fails, t0))
        out.append(identities.unit_binomial_sum_check(r))
    return out


def suite_discriminant(rs):
    import time
    out = []
    for r in rs:
        if not _is_prime(2 * r + 1):
            continue
        t0 = time.perf_counter()
        fails = [] if discriminant_square_check(r) else ["squared determinant mismatch at r=%d" % r]
        out.append(identities._report("discriminant_square", {"r": r}, fails, t0))
    return out


def suite_cross_oracle(rs, n_max, det_max=10, order=30):
    return [sequences.cross_oracle_check(r, n_max, det_max, order) for r in rs]


def suite_inversion(rs, n_max):
    out = []
    for r in rs:
        for n in range(0, n_max + 1):
            out.append(sequences.inversion_check_F(r, n))
            if n >= 1:
                out.append(sequences.inversion_check_L(r, n))
    return out


def suite_congruence(pairs, n_max, k_max=3):
    return [sequences.congruence_check(r, q, n_max, k_max) for r, q in pairs]


def suite_tables():
    return [sequences.compare_with_golden(k) for k in ("cnk", "fib", "lucas")]


DEFAULT_CONGRUENCE_PAIRS = [(2, 11), (2, 19), (2, 29), (2, 31),
                            (3, 13), (3, 29), (3, 41), (3, 43),
                            (5, 23), (5, 43)]


def full_battery(seed: int):
    """Every suite at its standard window; the seed drives the random
    re-evaluation of the expansion identities at r = 4, 5, 6."""
    reports = []
    reports += suite_tables()
    sym = VerifyMode("symbolic")
    reports += suite_first_kind((1, 2, 3), None, ("e", "h", "p"), sym)
    reports += suite_second_kind((1, 2, 3), None, ("e", "h", "p"), sym)
    for r in (1, 2, 3):
        reports.append(identities.genfun_transfer_check(r, 2 * r + 4))
    for r in (1, 2):
        reports.append(identities.composition_consistency_check(r, 6))
    rnd = VerifyMode("random", trials=5, seed=seed)
    reports += suite_first_kind((4, 5, 6), 16, ("e", "h", "p"), rnd)
    reports += suite_second_kind((4, 5, 6), 16, ("e", "h", "p"), rnd)
    reports += suite_series()
    reports += suite_principal((1, 2, 3, 4), 10)
    reports += suite_roots((1, 2, 3, 4, 5, 6, 7, 8))
    reports += suite_discriminant((1, 2, 3, 4, 5, 6))
    reports += suite_cross_oracle((1, 2, 3, 4, 5, 6, 7, 8), 60)
    reports += suite_inversion((1, 2, 3, 4, 5, 6, 7, 8), 60)
    for bound in (60,):
        reports.append(sequences.fibonacci_sums_check(bound))
        reports.append(sequences.lucas_sums_check(bound))
    for r in (1, 2, 3, 4, 5, 6, 7, 8):
        reports.append(sequences.initial_block_check(r))
    for r in (1, 2, 3):
        reports.append(sequences.partition_relations_check(r, 12))
    reports += suite_congruence(DEFAULT_CONGRUENCE_PAIRS, 200)
    return reports


# ---------------------------------------------------------------------------
# commands


def cmd_table(args) -> int:
    rows = parse_range(args.r, "r") if args.r else None
    if args.kind == "cnk":
        rows = parse_range(args.n, "n") if args.n else None
        cols = parse_range(args.k, "k") if args.k else None
    else:
        cols = parse_range(args.n, "n") if args.n else None
    tab = sequences.table(args.kind, rows, cols)
    write_output(render_table(tab, args.format), args.output)
    typos = [t for t in sequences.known_typos() if t[0] == args.kind]
    for _, row, col, printed, corrected, note in typos:
        if (row, col) in tab.values:
            sys.stderr.write(
                "note: cell (%s=%d, %s=%d) is %d here but %d in the published "
                "table; %s\n" % (tab.row_label, row, tab.col_label, col,
                                 corrected, printed, note))
    return 0


VERIFY_SUITES = ("first-kind", "second-kind", "genfun-transfer", "series",
                 "principal", "principal-combined", "binomial-unit", "roots",
                 "discriminant", "cross-oracle", "inversion", "fibonacci-sums",
                 "lucas-sums", "congruence", "determinants",
                 "genfun-sequences", "partition-relations", "initial-block",
                 "consistency", "tables")


def _given(value, default):
    """An option's value, or its default when it was not given; an explicit
    0 is kept."""
    return default if value is None else value


def cmd_verify(args) -> int:
    rs = parse_range(args.r, "r") if args.r else None
    mode = _mode_from(args)
    suite = args.suite
    if suite == "first-kind":
        reports = suite_first_kind(rs or (1, 2, 3), args.m_max, _families(args), mode)
    elif suite == "second-kind":
        reports = suite_second_kind(rs or (1, 2, 3), args.n_max, _families(args), mode)
    elif suite == "genfun-transfer":
        reports = [identities.genfun_transfer_check(r, _given(args.order, 2 * r + 4))
                   for r in rs or (1, 2, 3)]
    elif suite == "series":
        reports = suite_series(_given(args.order, 30), args.alpha_max)
    elif suite == "principal":
        reports = suite_principal(rs or (1, 2, 3, 4), _given(args.n_max, 10))
    elif suite == "principal-combined":
        reports = [identities.principal_combination_check(r, _given(args.bound, 10))
                   for r in rs or (1, 2, 3, 4)]
    elif suite == "binomial-unit":
        reports = [identities.unit_binomial_sum_check(r) for r in rs or range(1, 9)]
    elif suite == "roots":
        reports = suite_roots(rs or range(1, 9))
    elif suite == "discriminant":
        reports = suite_discriminant(rs or (1, 2, 3, 5, 6))
    elif suite == "cross-oracle":
        reports = suite_cross_oracle(rs or range(1, 9), _given(args.n_max, 60))
    elif suite == "inversion":
        reports = suite_inversion(rs or range(1, 9), _given(args.n_max, 60))
    elif suite == "fibonacci-sums":
        reports = [sequences.fibonacci_sums_check(_given(args.bound, 60))]
    elif suite == "lucas-sums":
        reports = [sequences.lucas_sums_check(_given(args.bound, 60))]
    elif suite == "congruence":
        if args.q is None:
            pairs = DEFAULT_CONGRUENCE_PAIRS
        else:
            if rs is None or len(rs) != 1:
                raise UsageError("congruence with --q needs a single --r")
            pairs = [(rs[0], args.q)]
        try:
            reports = suite_congruence(pairs, _given(args.n_max, 200), args.k_max)
        except ValueError as exc:
            raise UsageError(str(exc))
    elif suite == "determinants":
        reports = [sequences.determinant_formulas_check(r, _given(args.n_max, 8))
                   for r in rs or (1, 2, 3)]
    elif suite == "genfun-sequences":
        reports = [sequences.sequence_genfun_check(r, _given(args.order, 30))
                   for r in rs or (1, 2, 3, 4, 5, 6)]
    elif suite == "partition-relations":
        reports = [sequences.partition_relations_check(r, _given(args.n_max, 12))
                   for r in rs or (1, 2, 3)]
    elif suite == "initial-block":
        reports = [sequences.initial_block_check(r) for r in rs or range(1, 9)]
    elif suite == "consistency":
        reports = [identities.composition_consistency_check(r, _given(args.m_max, 6))
                   for r in rs or (1, 2)]
    elif suite == "tables":
        reports = suite_tables()
    else:
        raise UsageError("unknown suite %r (choose from %s)" % (suite, ", ".join(VERIFY_SUITES)))
    if not reports:
        raise UsageError("the %s options select no checks" % suite)
    seed = mode.seed if mode.mode == "random" else None
    write_output(render_reports(reports, args.format, seed=seed, timings=args.timings),
                 args.output)
    return 0 if all(r.passed for r in reports) else 1


def cmd_report(args) -> int:
    if not args.all:
        raise UsageError("report currently only supports --all")
    seed = default_seed(args)
    if seed is None:
        seed = 0
    reports = full_battery(seed)
    write_output(render_reports(reports, args.format, seed=seed, timings=args.timings),
                 args.output)
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="symident",
                                 description="exact tables and identity verification")
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="emit one of the three number tables")
    t.add_argument("kind", choices=("fib", "lucas", "cnk"))
    t.add_argument("--r", help="row range a:b (fib, lucas)")
    t.add_argument("--n", help="column range a:b (row range for cnk)")
    t.add_argument("--k", help="column range a:b (cnk only)")
    t.add_argument("--format", default="md", choices=("md", "csv", "json"))
    t.add_argument("--output", "-o", default=None)
    t.set_defaults(fn=cmd_table)

    v = sub.add_parser("verify", help="run one verification suite")
    v.add_argument("suite", metavar="suite")
    v.add_argument("--family", default="all", help="e, h, p or all")
    v.add_argument("--r", help="r value or range a:b")
    v.add_argument("--m-max", dest="m_max", type=int, default=None)
    v.add_argument("--n-max", dest="n_max", type=int, default=None)
    v.add_argument("--bound", type=int, default=None)
    v.add_argument("--order", type=int, default=None)
    v.add_argument("--alpha-max", dest="alpha_max", type=int, default=8)
    v.add_argument("--q", type=int, default=None, help="modulus for congruence")
    v.add_argument("--k-max", dest="k_max", type=int, default=3)
    v.add_argument("--mode", default="symbolic", choices=("symbolic", "random"))
    v.add_argument("--trials", type=int, default=5)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--format", default="md", choices=("md", "csv", "json"))
    v.add_argument("--timings", action="store_true")
    v.add_argument("--output", "-o", default=None)
    v.set_defaults(fn=cmd_verify)

    rp = sub.add_parser("report", help="run the full battery and emit a report")
    rp.add_argument("--all", action="store_true")
    rp.add_argument("--seed", type=int, default=None)
    rp.add_argument("--format", default="json", choices=("md", "csv", "json"))
    rp.add_argument("--timings", action="store_true")
    rp.add_argument("--output", "-o", default=None)
    rp.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
