"""The benchmark's contract with srslab: srsbench/workloads.py builds its
rounds from srslab's public names, so removing one of them breaks every
benchmark run of that workload."""

import importlib.util
import sys
from pathlib import Path

WORKLOADS_PATH = (Path(__file__).resolve().parent.parent / "srsbench"
                  / "workloads.py")


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("srsbench_workloads",
                                                  WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses looks its module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_every_workload_builds_its_first_round(tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    rounds = {name: make(0, tmp_path).round(0)
              for name, make in workloads.WORKLOADS.items()}
    assert [len(units) for units in rounds.values()] == [6, 5, 1]
    for units in rounds.values():
        for unit in units:
            assert callable(unit.call) and callable(unit.check)
            assert 1 <= unit.units <= unit.work
    # desk_grid: four cells at one seed, 100 epochs of 2000 // 64 batches
    (grid,) = rounds["desk_grid"]
    assert (grid.units, grid.work) == (4, 4 * 100 * 31)


def test_coverage_check_digests_the_coverage_table(monkeypatch):
    coverage = load_workloads(monkeypatch).Coverage(10, 2)
    unit = coverage.unit("srs", 5, 3, seed=0)
    failed, digests, problems = unit.check(unit.call())
    assert (failed, list(digests), problems) == (0, [unit.key], [])
