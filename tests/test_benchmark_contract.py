"""The benchmark's set-up probe builds its workloads through the public
letd names; renaming or re-signing one of them must fail here first."""
import json
import sys
from pathlib import Path

import pytest

import letd.harness as harness

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
#: pieces built per experiment, in workload order
PIECE_COUNTS = {"table_1d": [40, 4], "rate_1d": [8, 8, 8, 8], "grid2d_step": [1, 16]}


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_benchmark_setup_builds_every_workload(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    counts = [workloads.build_setup(exp.experiment_config(harness, 0, str(tmp_path)))
              for exp in workload.experiments]
    assert counts == PIECE_COUNTS[name]
