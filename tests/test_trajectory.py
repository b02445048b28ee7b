"""The committed perfbench trajectory files `BENCH_<n>.json`: each records
one correct run, what produced it and on what, with every end-to-end
metric that BENCHMARK.json declares, for every workload."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = sorted(ROOT.glob("BENCH_*.json"))
RUN_FIELDS = ("command", "python", "machine", "nproc", "samples_per_kind")


def declared_metrics() -> dict[str, str]:
    # "<workload>/<metric>" -> unit, for every end-to-end metric
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        f"{w['name']}/{m['name']}": m["unit"]
        for w in spec["workloads"]
        for m in spec["end_to_end"]
    }


def test_trajectory_files_exist():
    assert TRAJECTORY


@pytest.mark.parametrize("path", TRAJECTORY, ids=lambda p: p.name)
def test_trajectory_file_is_a_full_correct_run(path):
    run = json.loads(path.read_text())
    assert [f for f in RUN_FIELDS if f not in run] == []
    assert run["correct"] is True
    assert run["failed"] == 0
    declared = declared_metrics()
    assert sorted(declared.keys() - run["metrics"].keys()) == []
    for name, unit in declared.items():
        metric = run["metrics"][name]
        assert metric["unit"] == unit, name
        assert isinstance(metric["value"], (int, float)), name
