"""Smoke test of the benchmark driver at tiny sizes.  It never checks timings.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402  (puts the checkout's src/ on sys.path)
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_driver(trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "all",
                           "--seed", "3", "--seconds", "0", "--trace", str(trace),
                           "--size", "tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(trace, kind):
    result = run_driver(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {"%s.%s" % (w, name): unit for w in workloads.NAMES
            for name, unit in declared(kind).items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in declared(kind):
        assert NAME.fullmatch(name), name
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_matches_the_driver():
    import run
    assert declared("end_to_end") == dict(run.END_TO_END)
    assert declared("per_layer") == {name: unit for name, unit, _ in run.PER_LAYER}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_wrong_pinned_digest_trips_the_gate():
    passes = [child.run_pass("battery", workloads.PINNED_SEED, "tiny")]
    assert workloads.judge("battery", "tiny", workloads.PINNED_SEED, passes) == (46, 0, [])
    checks, _ = workloads.PINS[("battery", "tiny")]
    bad = dict(workloads.PINS)
    bad[("battery", "tiny")] = (checks, "0" * 64)
    attempted, failed, problems = workloads.judge("battery", "tiny", workloads.PINNED_SEED,
                                                  passes, pins=bad)
    assert failed == 1 and "sha256" in problems[0]


def test_two_seeds_give_the_same_check_counts():
    for name in workloads.NAMES:
        a, b = (child.run_pass(name, seed, "tiny") for seed in (1, 2))
        assert a["checks"] == b["checks"] == workloads.PINS[(name, "tiny")][0]
        if name != "battery":
            assert a["sha256"] == b["sha256"]


def test_a_check_that_raises_is_counted_and_the_run_still_reports(monkeypatch):
    from symident import sequences

    def boom(*args, **kwargs):
        raise ArithmeticError("injected")

    monkeypatch.setattr(sequences, "cross_oracle_check", boom)
    p = child.run_pass("roots_wide", 1, "tiny")
    assert len(p["raised"]) == 1 and "ArithmeticError" in p["raised"][0]
    attempted, failed, _ = workloads.judge("roots_wide", "tiny", 1, [p])
    assert p["checks"] == workloads.PINS[("roots_wide", "tiny")][0] - 1
    assert attempted == p["checks"] + 1 and failed >= 1


def test_tracer_counts_through_every_rebinding():
    assert child.self_check() == []
