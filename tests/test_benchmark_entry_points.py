"""The benchmark's workloads call into symident by name (``cli.suite_roots``,
``cli.main``, ``sequences.cross_oracle_check`` ...).  Each workload is run
here at its tiny size, in-process, and must meet its pinned check count and
digest, so a refactor that drops or renames an entry point fails tier-1.
The tracer's self-check runs here too, so a route change that would break
traced runs (its pinned determinant call counts) fails tier-1 as well, and
so does removing or renaming a function or method that a per-layer metric
reads."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_meets_its_pins(name):
    seed = workloads.PINNED_SEED
    outputs = [call() for _, call in workloads.check_calls(name, seed, "tiny")]
    result = dict(workloads.summarize(outputs), raised=[])
    _, failed, problems = workloads.judge(name, "tiny", seed, [result], workloads.PINS)
    assert failed == 0, problems


def test_tracer_self_check_holds():
    assert child.self_check() == []


def test_every_metric_span_is_a_wrapped_name():
    # a traced run reads each of these span names from the tracer's
    # summary, and one the tracer did not wrap ends the run with a KeyError
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = set(t.names)
    finally:
        t.uninstall()
    wanted = set(tracer.SPAN_ALIASES.values()) | {"cli.render_reports"}
    assert sorted(wanted - wrapped) == []
