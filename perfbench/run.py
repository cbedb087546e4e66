"""symident benchmark driver.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Runs from the root of a source checkout and imports symident from its
``src/`` directory.  Every pass runs in a fresh child interpreter
(``child.py``), one at a time: single-threaded, closed loop, one caller that
waits for every check.  This process only starts children and waits.

With ``--trace 0`` it first starts SETUP_PROBES import-only children, then
runs untraced passes for as long as they fit in ``--seconds``, and reports the
end-to-end metrics:

* ``wall_s``       median wall time of one pass, first check call to last report
* ``setup_s``      median time in a child from its first line until symident
                   is imported (probes and passes together)
* ``peak_rss_mb``  median over passes of the child's max RSS after the pass

With ``--trace 1`` it alternates untraced and traced passes for the same
time and reports the per-layer metrics from the traced ones, plus the
tracing overhead (traced minus untraced wall time).

Every pass's output is checked (see ``workloads.judge``); the check failure
ratio, with its base, is printed beside the metrics.  The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics.
Full records, with the environment, go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import MODULES, REPEAT_TRACKED, SPAN_ALIASES

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 170
SETUP_PROBES = 9  # the first one only warms the bytecode cache

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer metrics: (metric name, unit, where it comes from).  Every named
# span reports its calls; all but these few, which are cheap, its self time.
COUNT_ONLY = ("cyclotomic.field_new", "combinat.binom", "combinat.q_binom",
              "sequences.fib_recurrence", "sequences.char_coeffs")
PER_LAYER = [(stem + ".calls", "count", ("calls", stem)) for stem in SPAN_ALIASES]
PER_LAYER += [(stem + ".self_s", "s", ("self_s", stem)) for stem in SPAN_ALIASES
              if stem not in COUNT_ONLY]
PER_LAYER += [(stem + ".repeat_ratio", "ratio", ("repeat_ratio", stem))
              for stem in REPEAT_TRACKED]
PER_LAYER += [(mod + ".self_s", "s", ("module_self_s", mod)) for mod in MODULES]
PER_LAYER += [
    ("identities.checks", "count", ("checks", "identities")),
    ("sequences.checks", "count", ("checks", "sequences")),
    ("cli.render_s", "s", ("busy_s", "cli.render_reports")),
    ("trace.spans", "count", ("spans", None)),
    ("trace.wall_s", "s", ("traced_wall_s", None)),
    ("trace.overhead_s", "s", ("overhead_s", None)),
]


class HarnessError(Exception):
    """A child that could not run: nothing measured, no result printed."""


def run_child(workload, seed, size, trace=0, setup_only=False, spans=None) -> dict:
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
           "--size", size, "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError("child timed out after %d s: %s" % (CHILD_TIMEOUT_S, " ".join(cmd)))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError("child exited %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:]))
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise HarnessError("child printed no result: %r" % lines[-1][:200])


def spread(values) -> dict:
    """Median, quartiles and count of a sample."""
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def environment(seed) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit or None, "src_sha256": digest.hexdigest(), "seed": seed}


def layer_value(kind, key, trace_summary, extra):
    if kind in ("traced_wall_s", "overhead_s"):
        return extra[kind]
    if kind == "spans":
        return trace_summary["spans"]
    if kind == "checks":
        return trace_summary["checks"][key]
    if kind == "module_self_s":
        return trace_summary["module_self_s"][key]
    rec = trace_summary["names"][SPAN_ALIASES.get(key, key)]
    if kind == "repeat_ratio":
        return rec["repeats"] / rec["calls"] if rec["calls"] else 0.0
    return rec[kind]


def measure(workload, seed, seconds, trace, size) -> dict:
    """One workload's run: passes, gate, metrics.  Returns the full record."""
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "why": workloads.WHY[workload], "size": size,
              "trace": trace, "seconds": seconds, "environment": environment(seed)}
    setups = []
    if not trace:
        probes = [run_child(workload, seed, size, setup_only=True)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        setups += probes[1:]
    passes, traced = [], []
    t_begin = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        passes.append(run_child(workload, seed, size))
        if trace:
            traced.append(run_child(workload, seed, size, trace=1,
                                    spans=OUT / ("spans-%s.jsonl" % workload)))
        # start another pass only if it should end within the budget
        now = time.perf_counter()
        if now - t_begin + (now - t_pass) > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    attempted, failed, problems = workloads.judge(workload, size, seed, passes + traced)
    wall = spread([p["wall_s"] for p in passes])
    record.update(attempted=attempted, failed=failed, problems=problems,
                  wall_s=wall, setup_s=spread(setups),
                  pass_wall_s=[p["wall_s"] for p in passes],
                  peak_rss_mb=spread([p["peak_rss_mb"] for p in passes]))
    if not trace:
        metrics = {name: {"value": record[name]["median"], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        problems += [msg for t in traced for msg in t["trace"]["self_check"]]
        counts = [{k: v["calls"] for k, v in t["trace"]["names"].items()} for t in traced]
        if any(c != counts[0] for c in counts):
            problems.append("call counts differ between traced passes")
        traced_wall = statistics.median(t["wall_s"] for t in traced)
        extra = {"traced_wall_s": traced_wall, "overhead_s": traced_wall - wall["median"]}
        metrics = {}
        for name, unit, (kind, key) in PER_LAYER:
            values = [layer_value(kind, key, t["trace"], extra) for t in traced]
            # counts repeat exactly (checked above); times take the median
            value = values[0] if unit == "count" else statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
        record["trace_names"] = traced[-1]["trace"]["names"]
    record["metrics"] = metrics
    record["correct"] = failed == 0 and not problems
    with open(OUT / ("result-%s-seed%d-trace%d.json" % (workload, seed, trace)), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return record


def describe(rec) -> str:
    def line(name, unit):
        s = rec[name]
        return "  %-12s %.6g %s  (q1 %.6g, q3 %.6g, n=%d)" % (name, s["median"], unit,
                                                            s["q1"], s["q3"], s["n"])
    out = ["%s (seed %d, %s, trace %d): %s" % (rec["workload"], rec["environment"]["seed"],
                                               rec["size"], rec["trace"], rec["why"])]
    out += [line(name, unit) for name, unit in END_TO_END]
    out.append("  %-12s %.6g  (%d failed / %d attempted)" % (
        "check_fail_ratio", rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0,
        rec["failed"], rec["attempted"]))
    if rec["trace"]:
        out += ["  %-36s %.6g %s" % (name, m["value"], m["unit"])
                for name, m in rec["metrics"].items()]
    out += ["  problem: %s" % p for p in rec["problems"][:20]]
    return "\n".join(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="tiny runs every workload at toy sizes, for the smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "symident").is_dir():
        sys.stderr.write("error: no symident sources under %s\n" % (ROOT / "src"))
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        records = [measure(w, args.seed, args.seconds, args.trace, args.size) for w in names]
    except HarnessError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    for rec in records:
        print(describe(rec))
    print(json.dumps({"environment": records[0]["environment"]}, sort_keys=True))
    prefix = len(records) > 1
    metrics = {("%s.%s" % (rec["workload"], k) if prefix else k): v
               for rec in records for k, v in rec["metrics"].items()}
    correct = all(rec["correct"] for rec in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(rec["attempted"] for rec in records),
                      "failed": sum(rec["failed"] for rec in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
