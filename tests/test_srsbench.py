"""The benchmark's contract with srslab: srsbench/workloads.py builds its
rounds from srslab's public names, and srsbench/spans.py wraps srslab's
module attributes, so removing one of them breaks every benchmark run of
that workload, or every traced one."""

import importlib.util
import sys
from pathlib import Path

import srslab.cli
import srslab.counting
import srslab.coverage
import srslab.training

SRSBENCH = Path(__file__).resolve().parent.parent / "srsbench"

# The module attributes that spans.patched replaces while it traces.
PATCHED = {
    srslab.training: ("make_sampler", "forward_loss", "backward",
                      "error_rate", "sgd_step", "lr_at", "effective_epoch",
                      "gen_blobs"),
    srslab.cli: ("train", "parse_grid_config", "write_csv", "main"),
    srslab.coverage: ("make_sampler", "simulate_coverage", "visit_stats"),
    srslab.counting: ("configs_one_epoch", "configs_with", "config_ratio",
                      "binomial"),
}


def load_srsbench(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"srsbench_{name}",
                                                  SRSBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks its module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_workload_builds_its_first_round(tmp_path, monkeypatch):
    workloads = load_srsbench("workloads", monkeypatch)
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
    coverage = load_srsbench("workloads", monkeypatch).Coverage(10, 2)
    unit = coverage.unit("srs", 5, 3, seed=0)
    failed, digests, problems = unit.check(unit.call())
    assert (failed, list(digests), problems) == (0, [unit.key], [])


def test_trace_wraps_each_named_attribute_and_restores_it(monkeypatch):
    spans = load_srsbench("spans", monkeypatch)
    modules = list(PATCHED)
    before = [dict(vars(module)) for module in modules]
    for module, names in PATCHED.items():
        for name in names:  # fails here if the attribute is gone
            monkeypatch.setattr(module, name, getattr(module, name))
    with spans.patched(spans.Tracer(), lambda result: None):
        inside = [dict(vars(module)) for module in modules]
    replaced = {(module, name)
                for module, old, new in zip(modules, before, inside)
                for name in old if new[name] is not old[name]}
    assert replaced == {(module, name) for module, names in PATCHED.items()
                        for name in names}
    for module, old in zip(modules, before):
        assert all(vars(module)[name] is fn for name, fn in old.items())
