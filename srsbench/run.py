"""srslab benchmark: one workload, one process, one BLAS thread.

    python3 srsbench/run.py --workload coverage_small --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout.  It repeats rounds of the workload
(see workloads.py) until the next round would end after --seconds, times
the calls into srslab, then checks every output.  The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones:

- wall_s: one round's timed section, each call taken as its median over
  the run's rounds;
- work_per_s: the workload's units of work in a round over wall_s;
- setup_s: median wall time of fresh interpreters that import numpy and
  srslab, parse the config and build the inputs (setup_probe.py);
- peak_rss_mib: peak resident memory of this process plus the largest
  child it waited for.

With --trace 1 the budget is split between an untraced pass and a
traced pass, and the metrics are the per-layer ones derived from the
traced pass's spans (see spans.py), plus the CPU time and the tracing
overhead measured between the two passes.  `attempted` and `failed`
count units of work: coverage replicas, count calls and training runs;
the record below also gives their ratio as `failed_fraction`.

The line before the result holds the full record: environment, output
digests, failure messages and per-span totals.  It is also written to
.bench_run/results/.  Output digests are kept in .bench_run/digests.json
per source tree, workload and seed; a digest that differs from an earlier
run of the same tree is a failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_run"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
END_TO_END_UNITS = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mib": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("coverage_small", "large_n", "desk_grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def tree_sha256() -> str:
    """Digest of everything that decides the outputs: the package, the
    shipped configs and the benchmark itself."""
    h = hashlib.sha256()
    for top in ("src", "configs", "srsbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".py", ".cfg", ".json"):
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def git_state() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists():
        return None, None
    def git(*cmd):
        return subprocess.run(["git", "-C", str(ROOT), *cmd], check=True,
                              capture_output=True, text=True,
                              timeout=30).stdout
    try:
        return git("rev-parse", "HEAD").strip(), bool(git("status",
                                                          "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        return None, None


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int, tree: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    sha, dirty = git_state()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "git_sha": sha,
        "git_dirty": dirty,
        "tree_sha256": tree,
        "seed": seed,
    }


def setup_times(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that only set the workload up.

    The wait has no timeout: with one, Popen.wait polls in sleeps of up
    to 50 ms, which would round every time up to that grid.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload,
           str(seed), str(WORKDIR)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Pass:
    """Rounds of one workload under one tracing setting, with their
    output checks."""

    def __init__(self, workload, tracer, known: dict[str, str]) -> None:
        self.workload = workload
        self.tracer = tracer
        self.known = known  # digests from earlier rounds and runs
        self.round_times: list[float] = []
        self.call_times: list[list[float]] = []  # [call index][round]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.cpu_s = 0.0

    def run(self, budget_s: float) -> "Pass":
        from spans import patched

        clock = time.perf_counter
        on_result = getattr(self.workload, "on_train_result", lambda r: None)
        cpu0, start = cpu_seconds(), clock()
        with patched(self.tracer, on_result):
            while True:
                units = self.workload.round(len(self.round_times))
                outputs, times = [], []
                for unit in units:
                    t0 = clock()
                    try:
                        outputs.append(unit.call())
                    except Exception as exc:  # a raising unit is a failed unit
                        outputs.append(exc)
                    times.append(clock() - t0)
                self.round_times.append(sum(times))
                if not self.call_times:
                    self.call_times = [[] for _ in times]
                for per_call, t in zip(self.call_times, times):
                    per_call.append(t)
                for unit, out in zip(units, outputs):
                    self.check(unit, out)
                spent = clock() - start
                if spent * (1 + 1 / len(self.round_times)) > budget_s:
                    break
        self.cpu_s = cpu_seconds() - cpu0
        return self

    def check(self, unit, out) -> None:
        self.attempted += unit.units
        if isinstance(out, Exception):
            self.failed += unit.units
            self.problems.append(f"{unit.key}: raised {out!r}")
            return
        try:
            failed, digests, problems = unit.check(out)
        except Exception as exc:
            failed, digests, problems = unit.units, {}, [
                f"{unit.key}: output check raised {exc!r}"]
        for key, digest in digests.items():
            if self.known.setdefault(key, digest) != digest:
                failed = unit.units
                problems.append(f"{key}: digest {digest} differs from "
                                f"{self.known[key]} of an earlier run")
        self.failed += failed
        self.problems += problems

    @property
    def wall_s(self) -> float:
        """One round's timed section, each call taken as its median over
        the rounds, so a burst of machine noise in one round moves it
        less than it moves that round's total."""
        return sum(statistics.median(t) for t in self.call_times)


class DigestStore:
    """Output digests of earlier runs, per source tree, workload and seed."""

    def __init__(self, path: Path, scope: str) -> None:
        self.path, self.scope = path, scope
        self.all = json.loads(path.read_text()) if path.exists() else {}
        self.known = dict(self.all.get(scope, {}))

    def save(self) -> None:
        self.all[self.scope] = self.known
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.all, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def run(args) -> tuple[dict, dict]:
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    WORKDIR.mkdir(exist_ok=True)
    tree = tree_sha256()
    store = DigestStore(WORKDIR / "digests.json",
                        f"{tree}/{args.workload}/{args.seed}")
    setup = setup_times(args.workload, args.seed) if not args.trace else []
    workload = WORKLOADS[args.workload](args.seed, WORKDIR)
    work = sum(u.work for u in workload.round(0))
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "unit": workload.unit_name,
              "work_per_round": work, "setup_probes_s": setup}

    if not args.trace:
        passes = [Pass(workload, None, store.known).run(args.seconds)]
        usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                 + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        values = {"wall_s": passes[0].wall_s,
                  "work_per_s": work / passes[0].wall_s,
                  "setup_s": statistics.median(setup),
                  "peak_rss_mib": usage / 1024}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    else:
        plain = Pass(workload, None, store.known).run(args.seconds / 2)
        tracer = Tracer()
        traced = Pass(workload, tracer, store.known).run(args.seconds / 2)
        passes = [plain, traced]
        layers, problems, record["spans"] = layer_metrics(
            tracer, sum(traced.round_times), len(traced.round_times))
        traced.problems += problems
        layers["process.cpu_s"] = (plain.cpu_s / len(plain.round_times), "s")
        layers["process.trace_overhead"] = (traced.wall_s / plain.wall_s - 1,
                                            "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}

    extra_failed, extra_problems = workload.finish()
    attempted = sum(p.attempted for p in passes)
    failed = min(attempted, sum(p.failed for p in passes) + extra_failed)
    problems = [m for p in passes for m in p.problems] + extra_problems
    correct = failed == 0 and not problems
    if correct:
        store.save()
    record.update({
        "rounds": [len(p.round_times) for p in passes],
        "round_times_s": [p.round_times for p in passes],
        "call_times_s": [p.call_times for p in passes],
        "attempted": attempted, "failed": failed,
        "failed_fraction": failed / attempted,
        "problems": problems[:50],
        "digests": store.known,
        "environment": environment(args.seed, tree),
        "metrics": metrics,
    })
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "srslab" / "__init__.py").is_file():
        print(f"error: no srslab package under {ROOT / 'src'}; run the "
              f"benchmark from the root of a repository checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # one BLAS thread, in this process and probes
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    record, result = run(args)
    results = WORKDIR / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
