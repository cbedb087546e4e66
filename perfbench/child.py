"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N [--size full|tiny]
                               [--trace 0|1] [--setup-only] [--spans FILE]

Prints one JSON object on its last stdout line: setup_s (from the first
line of this script until symident is imported), and unless --setup-only,
wall_s (first check call to last report), peak_rss_mb, the pass summary
the gate reads and, with --trace 1, the tracer's per-span summary.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402  (os and sys are loaded before any script runs)
import sys  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src")
sys.path.insert(0, SRC)

import symident.cli  # noqa: E402,F401  (pulls in every symident module)

SETUP_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def self_check() -> list:
    """Exact call counts on a fixed input, through every rebinding of the
    determinant functions: determinant_formulas_check(r, n) makes n + 1
    det_cofactor calls (Vandermonde plus one bialternant per n) and 6n
    det_fraction_free calls (six determinant identities per n)."""
    from symident import sequences
    r, n = 2, 3
    tracer = Tracer()
    tracer.install()
    try:
        sequences.determinant_formulas_check(r, n)
    finally:
        tracer.uninstall()
    names = tracer.summary()["names"]
    want = {"exactalg.det_cofactor": n + 1, "exactalg.det_fraction_free": 6 * n}
    return ["tracer self-check: %s called %d times, expected %d"
            % (name, names[name]["calls"], count)
            for name, count in want.items() if names[name]["calls"] != count]


def run_pass(workload: str, seed: int, size: str, tracer=None) -> dict:
    calls = workloads.check_calls(workload, seed, size)
    outputs, raised = [], []
    if tracer is not None:
        tracer.install()
    t_start = time.perf_counter()
    for label, call in calls:
        try:
            outputs.append(call())
        except Exception as exc:  # a check that raises is counted, not fatal
            raised.append("%s raised %s: %s" % (label, type(exc).__name__, exc))
    wall = time.perf_counter() - t_start
    if tracer is not None:
        tracer.uninstall()
    result = workloads.summarize(outputs)
    result.update(wall_s=wall, raised=raised,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=workloads.SIZES, default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="write the traced spans here")
    args = ap.parse_args()

    if os.path.dirname(os.path.realpath(symident.__file__)) != os.path.join(SRC, "symident"):
        sys.stderr.write("symident imported from %s, not %s\n" % (symident.__file__, SRC))
        return 2
    out = {"setup_s": SETUP_S}
    if not args.setup_only:
        tracer = Tracer() if args.trace else None
        out.update(run_pass(args.workload, args.seed, args.size, tracer))
        if tracer is not None:
            out["trace"] = tracer.summary()
            out["trace"]["self_check"] = self_check()
            if args.spans:
                tracer.write(args.spans)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
