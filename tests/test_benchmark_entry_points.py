"""The benchmark's workloads call into symident by name (``cli.suite_roots``,
``cli.main``, ``sequences.cross_oracle_check`` ...).  Each workload is run
here at its tiny size, in-process, and must meet its pinned check count and
digest, so a refactor that drops or renames an entry point fails tier-1."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_meets_its_pins(name):
    seed = workloads.PINNED_SEED
    outputs = [call() for _, call in workloads.check_calls(name, seed, "tiny")]
    result = dict(workloads.summarize(outputs), raised=[])
    _, failed, problems = workloads.judge(name, "tiny", seed, [result], workloads.PINS)
    assert failed == 0, problems
