"""The benchmark's workloads, their pinned results and the correctness gate.

Each workload is a list of check calls.  ``battery`` is the one run users
make, ``report --all``, and its seed drives the random evaluation points.
In the other workloads the checks are deterministic and the seed only
permutes their order, so their results are compared after sorting.

A check call returns either the rendered text of a CLI run (``battery``) or
a list of CheckReport objects.  Module attributes are looked up when a call
runs, not when it is built, so a traced pass sees the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

WHY = {
    "battery": "report --all, the run users make; no layer dominates, so it "
               "shows whether a gain in one layer survives the mix",
    "roots_wide": "cross-oracle, roots and discriminant past the default r: "
                  "cyclotomic CycInt arithmetic and det_cofactor, the scaling wall",
    "symbolic_deep": "symbolic expansion identities at r=4,5 and principal "
                     "specialisations: MultiLaurent arithmetic, no CycInt",
    "series_deep": "the series suite at order 60: Series mul/pow and "
                   "ballot_series, a small share of battery",
}
NAMES = tuple(WHY)
SIZES = ("full", "tiny")

# Seed whose battery report is pinned byte for byte.
PINNED_SEED = 7

# (workload, size) -> checks per pass, and the sha256 of the output: of the
# report text for battery at PINNED_SEED, of the sorted check records for
# the others (whose results do not depend on the seed).
PINS = {
    ("battery", "full"): (1627, "c20c8c9735889466f40b7206251281b902c49d53f321a318246394b5bea319b7"),
    ("battery", "tiny"): (46, "e53716df2b5e83d57b391201f3598fe9b9d16e881951489a589b581d7b4c2210"),
    ("roots_wide", "full"): (24, "27e05f17ffb536eb7ebe186a7b4b8ea58fc5aee2b926dc4e358102b02f69904e"),
    ("roots_wide", "tiny"): (13, "2531feee6dd332f5c3be03f0cc9233c8d6cb04add580ba0de696b25f2f67996f"),
    ("symbolic_deep", "full"): (309, "a8f69164779043f1fdc5bc226bae55ddd9c30b59f53acc67fd3a2a5977b411b4"),
    ("symbolic_deep", "tiny"): (52, "169e41819ff78e39dfe4bfb83d4197984306171dd3fa56ccb5bebe62f34c91f8"),
    ("series_deep", "full"): (5, "ad682c518e6fdc01fc7423d57b3a8bd947f9b7be3036df15dbb8d9a545489d69"),
    ("series_deep", "tiny"): (5, "b1248543a2d6949fa1494cab42be92f10ab4fe98d1c4bce39918654516150f25"),
}


def _cli_json(cli, argv):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(argv)
        return buf.getvalue()
    return call


def _battery(seed, size):
    from symident import cli
    if size == "full":
        argv = ["report", "--all"]
    else:
        argv = ["verify", "second-kind", "--r", "1:2", "--mode", "random"]
    return [("battery", _cli_json(cli, argv + ["--seed", str(seed), "--format", "json"]))]


def _roots_wide(seed, size):
    from symident import cli, sequences
    co, roots, disc = ([(9, 60), (10, 60)], range(9, 13), (9, 11)) if size == "full" \
        else ([(3, 12)], range(2, 4), (2, 3))
    calls = [("cross_oracle r=%d" % r,
              lambda r=r, n=n: [sequences.cross_oracle_check(r, n, det_max=r)])
             for r, n in co]
    calls += [("roots r=%d" % r, lambda r=r: cli.suite_roots([r])) for r in roots]
    calls += [("discriminant r=%d" % r, lambda r=r: cli.suite_discriminant([r]))
              for r in disc]
    return calls


def _symbolic_deep(seed, size):
    from symident import cli, identities
    # (kind, r, top index) for the first-kind and second-kind verifiers
    if size == "full":
        windows = [("first_kind", 4, 14), ("second_kind", 4, 14), ("first_kind", 5, 9)]
        principal, bound = range(1, 7), 10
    else:
        windows = [("first_kind", 2, 4), ("second_kind", 2, 4)]
        principal, bound = range(1, 3), 3
    mode = identities.VerifyMode("symbolic")
    calls = []
    for kind, r, top in windows:
        for fam in ("e", "h", "p"):
            hi = min(top, 2 * r) if (kind, fam) == ("second_kind", "e") else top
            for m in range(1 if fam == "p" else 0, hi + 1):
                name = "%s_%s" % (kind, fam)
                calls.append(("%s r=%d m=%d" % (name, r, m),
                              lambda name=name, r=r, m=m:
                              [getattr(identities, name)(r, m, mode)]))
    calls += [("principal r=%d" % r, lambda r=r: cli.suite_principal([r], bound))
              for r in principal]
    return calls


def _series_deep(seed, size):
    from symident import cli
    order, alpha_max = (60, 8) if size == "full" else (20, 3)
    return [("series", lambda: cli.suite_series(order=order, alpha_max=alpha_max))]


_BUILDERS = {"battery": _battery, "roots_wide": _roots_wide,
             "symbolic_deep": _symbolic_deep, "series_deep": _series_deep}


def check_calls(name: str, seed: int, size: str = "full"):
    """The workload's (label, call) list in the order the seed gives."""
    calls = _BUILDERS[name](seed, size)
    if name != "battery":
        random.Random(seed).shuffle(calls)
    return calls


def summarize(outputs) -> dict:
    """Reduce one pass's outputs to what the gate needs: the number of
    checks, how many did not pass, and a digest of the results."""
    if outputs and isinstance(outputs[0], str):
        text = "".join(outputs)
        try:
            payload = json.loads(text)
            statuses = [rec["status"] for rec in payload["reports"]]
        except (ValueError, KeyError, TypeError):
            statuses = []
        return {"checks": len(statuses),
                "not_passed": sum(1 for s in statuses if s != "pass"),
                "sha256": hashlib.sha256(text.encode()).hexdigest()}
    records = sorted((r.check_id, r.status, r.counterexample or "")
                     for reports in outputs for r in reports)
    return {"checks": len(records),
            "not_passed": sum(1 for rec in records if rec[1] != "pass"),
            "sha256": hashlib.sha256(json.dumps(records).encode()).hexdigest()}


def judge(name: str, size: str, seed: int, passes, pins=PINS):
    """Gate a run's passes.  Returns (attempted, failed, problems).

    attempted counts the checks a pass reported plus the check calls that
    raised; failed counts checks that did not pass, calls that raised and
    output mismatches: a check count or digest off its pin, or a pass whose
    output differs from the run's first pass.
    """
    want_checks, want_sha = pins[(name, size)]
    pin_digest = name != "battery" or seed == PINNED_SEED
    attempted = failed = 0
    problems = []
    for i, p in enumerate(passes):
        attempted += p["checks"] + len(p["raised"])
        failed += p["not_passed"] + len(p["raised"])
        problems += ["pass %d: %s" % (i, exc) for exc in p["raised"]]
        if p["not_passed"]:
            problems.append("pass %d: %d checks did not pass" % (i, p["not_passed"]))
        if p["checks"] != want_checks:
            failed += 1
            problems.append("pass %d: %d checks, pinned %d" % (i, p["checks"], want_checks))
        if pin_digest and p["sha256"] != want_sha:
            failed += 1
            problems.append("pass %d: output sha256 %s, pinned %s" % (i, p["sha256"], want_sha))
        if p["sha256"] != passes[0]["sha256"]:
            failed += 1
            problems.append("pass %d: output differs from pass 0" % i)
    return attempted, failed, problems
