"""Batch command-line front end: argv parsing, rendering and three commands.

    symident table {fib,lucas} [--r a:b] [--n a:b] [--format md|csv|json]
    symident table cnk [--n a:b] [--k a:b] [--format ...]
    symident verify SUITE [suite options]
    symident report (--all [--seed N] | --wide) [--format ...]

verify runs one suite of the table ``suites.SUITES`` at its default window
with the given options laid over it; table and verify refuse an option the
table kind or the suite does not take; report --all runs
``suites.battery`` and report --wide ``suites.wide``.  Exit codes: 0 all
checks passed; 1 at least one check failed or raised, a ValueError from
inside a check included (the counterexamples or exceptions are in the
report); 2 usage error, as is a ValueError from a suite's options or a
check's own argument checks.  The rendered output is byte-identical
across runs with the same arguments and seed; timings only appear when
asked for with --timings, in json or csv.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import sequences, suites
# perfbench/workloads.py runs these four suites through this module
from .suites import suite_discriminant, suite_principal, suite_roots, suite_series  # noqa: F401


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


def _rows_text(header, body, fmt: str) -> str:
    """A header row and body rows as a markdown table (fmt "md", whose
    cells must be str) or as csv."""
    if fmt == "md":
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join("---" for _ in header) + "|"]
        lines += ["| " + " | ".join(row) + " |" for row in body]
        return "\n".join(lines) + "\n"
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(body)
    return buf.getvalue()


def render_table(tab, fmt: str) -> str:
    if fmt in ("md", "csv"):
        header = ["%s/%s" % (tab.row_label, tab.col_label)] + [str(c) for c in tab.cols]
        body = []
        for r in tab.rows:
            body.append([str(r)] + ["" if tab.get(r, c) is None else str(tab.get(r, c))
                                    for c in tab.cols])
        return _rows_text(header, body, fmt)
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
    passed = sum(1 for r in reports if r.passed)
    if fmt == "json":
        recs = []
        for r in reports:
            rec = {"check": r.check, "params": r.params, "status": r.status}
            if r.counterexample is not None:
                rec["counterexample"] = r.counterexample
            if timings:
                rec["elapsed_ms"] = round(r.elapsed * 1000, 3)
            recs.append(rec)
        payload = {"reports": recs, "passed": passed, "failed": len(reports) - passed}
        if seed is not None:
            payload["seed"] = seed
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt == "csv":
        header = ["check", "params", "status", "counterexample"]
        if timings:
            header.append("elapsed_ms")
        body = []
        for r in reports:
            row = [r.check,
                   ";".join("%s=%s" % (k, r.params[k]) for k in sorted(r.params)),
                   r.status, r.counterexample or ""]
            if timings:
                row.append(round(r.elapsed * 1000, 3))
            body.append(row)
        return _rows_text(header, body, "csv")
    if fmt == "md":
        body = [[r.check_id, r.status, r.counterexample or ""] for r in reports]
        return (_rows_text(["check", "status", "counterexample"], body, "md")
                + "\n%d passed, %d failed\n" % (passed, len(reports) - passed))
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
# commands


def cmd_table(args) -> int:
    takes = ("n", "k") if args.kind == "cnk" else ("r", "n")  # (rows, columns)
    refused = [k for k in ("r", "k") if k not in takes and getattr(args, k) is not None]
    if refused:
        raise UsageError("table %s does not take %s (it takes %s)"
                         % (args.kind, _flags(refused), _flags(takes)))
    rows, cols = (None if getattr(args, k) is None else parse_range(getattr(args, k), k)
                  for k in takes)
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


# verify's options that are not window options
_NOT_WINDOW = ("command", "fn", "suite", "format", "timings", "output")


def _flags(options) -> str:
    return ", ".join("--" + k.replace("_", "-") for k in options)


def cmd_verify(args) -> int:
    """Run one suite at its default window with the given options laid over
    it; an option the suite does not take is a usage error, and so are
    --seed and --trials without --mode random, where they would do nothing."""
    if args.suite not in suites.SUITES:
        raise UsageError("unknown suite %r (choose from %s)"
                         % (args.suite, ", ".join(suites.SUITES)))
    suite, window = suites.SUITES[args.suite]
    given = {k: v for k, v in vars(args).items() if k not in _NOT_WINDOW and v is not None}
    refused = [k for k in given if k not in window]
    if refused:
        raise UsageError("suite %s does not take %s (it takes %s)"
                         % (args.suite, _flags(refused), _flags(window) or "no options"))
    if "r" in given:
        given["r"] = parse_range(given["r"], "r")
        if given["r"][0] < 1:
            raise UsageError("--r must be >= 1, got %s" % args.r)
    window = {**window, **given}
    random_only = [k for k in ("seed", "trials") if k in given]
    if random_only and window.get("mode") != "random":
        raise UsageError("suite %s takes %s only with --mode random"
                         % (args.suite, _flags(random_only)))
    seed = None
    if window.get("mode") == "random":
        seed = window["seed"] = default_seed(args)
    reports = suite(**window)
    if not reports:
        raise UsageError("the %s options select no checks" % args.suite)
    write_output(render_reports(reports, args.format, seed=seed, timings=args.timings),
                 args.output)
    return 0 if all(r.passed for r in reports) else 1


def cmd_report(args) -> int:
    """The battery (--all) or the wide profile (--wide), which has no random
    row, so that --seed there would do nothing and is refused."""
    if args.wide and args.seed is not None:
        raise UsageError("report --wide takes no --seed (it has no random row)")
    seed = None if args.wide else default_seed(args) or 0
    reports = suites.wide() if args.wide else suites.battery(seed)
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
    # the window options, one per key of the suites' windows
    takers = {}
    for name, (_, window) in suites.SUITES.items():
        for key in window:
            takers.setdefault(key, []).append(name)
    for key, names in takers.items():
        v.add_argument(_flags([key]), type=str if key in ("r", "family", "mode") else int,
                       help="taken by " + ", ".join(names))
    v.add_argument("--format", default="md", choices=("md", "csv", "json"))
    v.add_argument("--timings", action="store_true")
    v.add_argument("--output", "-o", default=None)
    v.set_defaults(fn=cmd_verify)

    rp = sub.add_parser("report", help="run the battery or the wide profile")
    which = rp.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true", help="every suite, random rows too")
    which.add_argument("--wide", action="store_true", help="windows past the battery's")
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
        if getattr(args, "timings", False) and args.format == "md":
            raise UsageError("--timings needs --format json or csv (md has no elapsed_ms)")
        return args.fn(args)
    except (UsageError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
