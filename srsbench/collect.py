"""Run the benchmark over several seeds and summarise the spread.

    python3 srsbench/collect.py --workloads coverage_small large_n desk_grid \
        --seeds 0-9 [--trace 0] [--out summary.json]

For every workload and metric it prints the median and the distance
between the first and third quartiles of the per-seed values
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
a third of the metric's bound from BENCHMARK.json.  Runs are sequential,
one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int,
             trace: int) -> tuple[dict, dict]:
    """The record and the result line of one run."""
    cmd = [sys.executable, str(ROOT / "srsbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    *_, record, result = proc.stdout.strip().splitlines()
    return json.loads(record), json.loads(result)


def spread(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("nan")


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        start = time.perf_counter()
        runs = [run_once(workload, s, args.seconds, args.trace)
                for s in args.seeds]
        results = [result for _, result in runs]
        elapsed = time.perf_counter() - start
        if not all(r["correct"] and r["failed"] == 0 for r in results):
            raise SystemExit(f"{workload}: a run failed its checks: {results}")
        rows = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median, share = spread(values)
            rows[name] = {"median": median, "iqr_share": share,
                          "unit": results[0]["metrics"][name]["unit"],
                          "values": values}
            bound = bounds.get(name) if args.trace == 0 else None
            limit = f"  (bound/3 {bound / 3:.4f})" if bound else ""
            print(f"{workload:15s} {name:42s} median {median:.6g} "
                  f"{rows[name]['unit']:6s} spread {share:.4f}{limit}")
        print(f"{workload}: {len(results)} runs in {elapsed:.0f} s, "
              f"attempted {sum(r['attempted'] for r in results)}, "
              f"failed {sum(r['failed'] for r in results)}", flush=True)
        environment = dict(runs[0][0]["environment"], seed=None)
        summary[workload] = {"seeds": args.seeds, "seconds": args.seconds,
                             "trace": args.trace, "unit": runs[0][0]["unit"],
                             "environment": environment, "metrics": rows}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
