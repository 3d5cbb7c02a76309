"""Smoke test of the benchmark itself.

    python3 srsbench/smoke_test.py

Runs every workload for one round, untraced and traced, and checks that
the result line carries every metric BENCHMARK.json declares with its
unit, that nothing failed, that each layer a workload exercises reports
calls, and that the benchmark refuses to run without the package
sources.  Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Per workload, the per-layer call counts that must be positive.
EXERCISED = {
    "coverage_small": [
        "samplers.srs.draw_us.calls", "samplers.replacement.draw_us.calls",
        "samplers.epoch.draw_us.calls", "samplers.init_ms.calls",
        "coverage.count_us_per_draw.calls", "coverage.visit_stats_us.calls"],
    "large_n": [
        "samplers.srs.draw_us.calls", "samplers.replacement.draw_us.calls",
        "coverage.count_us_per_draw.calls", "coverage.visit_stats_us.calls",
        "counting.configs_one_epoch_s.calls", "counting.configs_with_s.calls",
        "counting.config_ratio_ms.calls", "counting.binomial_calls",
        "counting.n50000.configs_one_epoch_ms.calls"],
    "desk_grid": [
        "samplers.srs.draw_us.calls", "samplers.epoch.draw_us.calls",
        "nets.forward_us.calls", "nets.backward_us.calls",
        "nets.eval_ms.calls", "optim.sgd_step_us.calls",
        "optim.schedule_us.calls", "training.self_us_per_iter.calls",
        "training.run_s.calls", "training.iterations",
        "data.gen_blobs_ms.calls", "config.parse_ms.calls",
        "csvio.write_ms.calls", "cli.self_ms.calls"],
}


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "srsbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300, check=False)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            where = f"{workload} trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            *_, record, result = proc.stdout.strip().splitlines()
            record, result = json.loads(record), json.loads(result)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{where}: result keys {sorted(result)}")
            if not (result["correct"] and result["attempted"] >= 1
                    and result["failed"] == 0
                    and record["failed_fraction"] == 0):
                errors.append(f"{where}: failures {record['problems']}")
            metrics = result["metrics"]
            got = {k: v["unit"] for k, v in metrics.items()}
            if got != declared[trace]:
                errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                              f"{set(got) ^ set(declared[trace])}")
            if not all(isinstance(v["value"], (int, float))
                       for v in metrics.values()):
                errors.append(f"{where}: a metric value is not a number")
            for name in EXERCISED[workload] if trace else ():
                if not metrics.get(name, {}).get("value"):
                    errors.append(f"{where}: {name} reports no calls")
            print(f"{where}: ok" if not errors else f"{where}: checked",
                  flush=True)

    bare = ROOT / ".bench_run" / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "srsbench", bare / "srsbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "coverage_small", 0)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        errors.append("a checkout without src/ did not fail cleanly")
    shutil.rmtree(bare)

    for error in errors:
        print(f"FAIL {error}")
    print("smoke test passed" if not errors else "smoke test failed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
