"""The three benchmark workloads: their inputs, their rounds of work, and
the output checks that decide whether each unit of work failed.

Every input is made from the benchmark seed.  A round is a fixed list of
calls into srslab's public API; the benchmark times the calls and runs
the checks afterwards, outside the timed section.  No check depends on
the random stream itself, only on properties every correct sampler,
counter and trainer has, so a change to a sampler's stream does not
change what a failure means.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import srslab.cli
import srslab.counting
import srslab.coverage
import srslab.csvio
from srslab.config import parse_grid_config
from srslab.data import gen_blobs

HERE = Path(__file__).resolve().parent

# Distinct input seeds a run cycles through; rounds r and r + SUBSEEDS
# repeat the same inputs, so their output digests must agree.
SUBSEEDS = 5

# 99.9th percentile z score, for the Wilson-Hilferty chi-square quantile.
Z_999 = 3.090232306167813

# Every desk-grid run on the seed commit ends below 0.08 test error
# (seeds 0-44 checked); a sign-flipped or dropped gradient ends near 0.99.
DESK_GRID_MAX_FINAL_ERROR = 0.2


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def chi2_quantile_999(dof: int) -> float:
    """Wilson-Hilferty approximation of the chi-square 99.9th percentile;
    1142.865 at 999 degrees of freedom against the table's 1142.848."""
    a = 2.0 / (9.0 * dof)
    return dof * (1.0 - a + Z_999 * math.sqrt(a)) ** 3


@dataclass
class Unit:
    """One timed call into srslab plus the check of its output.

    `units` is how many units of work the call attempts: replicas for a
    coverage call, 1 for a count call, training runs for a compare.
    `check(output)` returns how many of them failed, the digests of the
    output keyed by what produced it, and messages for the failures.
    """

    key: str
    call: Callable[[], Any]
    units: int
    work: int
    check: Callable[[Any], tuple[int, dict[str, str], list[str]]]


@dataclass
class Coverage:
    """Coverage-replica calls at one (N, B) and their checks."""

    dataset_size: int
    batch_size: int
    long_srs_chi: dict[int, float] = field(default_factory=dict)

    def unit(self, kind: str, iterations: int, replicas: int,
             seed: int) -> Unit:
        n, b = self.dataset_size, self.batch_size
        key = f"coverage/{kind}/N{n}/B{b}/T{iterations}/R{replicas}/seed{seed}"

        def call():
            return srslab.coverage.simulate_coverage(kind, n, b, iterations,
                                                     seed, replicas)

        def check(report):
            return self.check(report, kind, iterations, replicas, seed, key)

        return Unit(key, call, replicas, replicas * iterations, check)

    def check(self, report, kind, iterations, replicas, seed, key):
        n, b = self.dataset_size, self.batch_size
        problems = []
        if len(report.per_replica) != replicas:
            return replicas, {}, [f"{key}: {len(report.per_replica)} replicas"]
        failed = 0
        untouched = []
        for r, stats in enumerate(report.per_replica):
            counts = np.asarray(stats.draw_counts)
            bad = []
            if counts.shape != (n,) or int(counts.sum()) != iterations * b:
                bad.append(f"draw counts sum to {int(counts.sum())}, "
                           f"expected {iterations * b}")
            frac = float((counts == 0).sum()) / n
            untouched.append(frac)
            if stats.untouched_fraction != frac:
                bad.append("untouched_fraction disagrees with draw counts")
            if (stats.min_count, stats.max_count) != (int(counts.min()),
                                                      int(counts.max())):
                bad.append("min/max count disagree with draw counts")
            if (kind == "epoch" and iterations >= n // b
                    and frac > (n % b) / n):
                bad.append(f"epoch untouched fraction {frac} > {(n % b) / n}")
            if bad:
                failed += 1
                problems.append(f"{key} replica {r}: " + "; ".join(bad))
        if kind == "replacement":
            expected = (1.0 - b / n) ** iterations
            median = float(np.median(untouched))
            if abs(median - expected) > 0.01:
                failed = replicas
                problems.append(f"{key}: median untouched {median} is not "
                                f"within 0.01 of (1 - B/N)^T = {expected}")
        # A long replica expects at least 100 draws per sample, enough for
        # the chi-square limit to hold; short ones are checked above.
        if kind == "srs" and replicas == 1 and iterations * b >= 100 * n:
            counts = report.per_replica[0].draw_counts.astype(np.float64)
            expected = iterations * b / n
            self.long_srs_chi[seed] = float(
                ((counts - expected) ** 2 / expected).sum())
        table = srslab.cli.coverage_table(report)
        return failed, {key: sha256(srslab.csvio.to_string(table))}, problems

    def finish(self) -> tuple[int, list[str]]:
        """Long srs replicas: chi-square below the 99.9th percentile at
        N - 1 degrees of freedom in at least 4 of every 5 seeds."""
        limit = chi2_quantile_999(self.dataset_size - 1)
        above = sorted(s for s, chi in self.long_srs_chi.items() if chi >= limit)
        if len(above) <= len(self.long_srs_chi) // 5:
            return 0, []
        return len(above), [f"long srs replicas with seeds {above} have "
                            f"chi-square >= {limit:.3f}"]


def subseeds(seed: int) -> list[int]:
    """The coverage seeds a run cycles through, made from its seed."""
    rng = random.Random(seed)
    return [rng.randrange(2**32) for _ in range(SUBSEEDS)]


class CoverageSmall:
    """simulate_coverage for all three samplers at N=1000, B=32, in both
    acceptance-gate shapes: one long replica (T=31250, as in C4) and 200
    short ones (T=31, as in C5).  Per-draw Python overhead in the samplers
    and per-draw counting in coverage do nearly all of the work."""

    unit_name = "batches drawn and counted"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seeds = subseeds(seed)
        self.coverage = Coverage(1000, 32)

    def round(self, r: int) -> list[Unit]:
        s = self.seeds[r % SUBSEEDS]
        return [u for kind in ("srs", "replacement", "epoch")
                for u in (self.coverage.unit(kind, 31250, 1, s),
                          self.coverage.unit(kind, 31, 200, s))]

    def finish(self):
        return self.coverage.finish()


COUNT_POINTS = ((1_000_000, 1000), (50_000, 64))
COUNT_EPOCHS = 200


def ratio_ks(n: int, b: int) -> tuple[int, ...]:
    n_b = n // b
    return (1, n_b // 2, n_b - 1)


def count_labels(values: dict[str, Any]) -> dict[str, int]:
    """Flatten one point's count outputs into labelled exact integers."""
    out = {}
    for name, value in values.items():
        if isinstance(value, Fraction):
            out[f"{name}.numerator"] = value.numerator
            out[f"{name}.denominator"] = value.denominator
        else:
            out[name] = value
    return out


def decimal_digest(value: int) -> dict[str, Any]:
    text = str(value)
    return {"sha256": sha256(text), "digits": len(text)}


def count_text(n: int, b: int, labelled: dict[str, int]) -> str:
    """The count record whose digest a run keeps: one line per exact
    value in the `label value digits d` form `srslab count` uses."""
    lines = [f"N {n}", f"B {b}", f"epochs {COUNT_EPOCHS}"]
    lines += [f"{label} {v} digits {len(str(v))}"
              for label, v in labelled.items()]
    return "\n".join(lines) + "\n"


class LargeN:
    """Paper-scale sizes: exact counts at (N, B) = (10^6, 1000) and
    (50000, 64) with 200 epochs, plus srs, replacement and epoch coverage
    replicas over one epoch at N=50000, B=64.  Work that is O(N) per call
    or runs in a Python loop dominates: the hand-written binomial, a
    50000-slot pool, and a 50000-wide count array."""

    unit_name = "binomial terms summed plus batches drawn"
    REPLICAS = 8

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seeds = subseeds(seed)
        self.coverage = Coverage(50_000, 64)
        self.iterations = 50_000 // 64
        self.expected = json.loads((HERE / "count_digests.json").read_text())
        self.params = [srslab.counting.CountParams(n, b, COUNT_EPOCHS)
                       for n, b in COUNT_POINTS]

    def count_unit(self, params) -> Unit:
        n, b = params.dataset_size, params.batch_size
        point = f"counts/N{n}/B{b}/E{COUNT_EPOCHS}"
        expected = self.expected[f"{n}x{b}x{COUNT_EPOCHS}"]
        ks = ratio_ks(n, b)

        def call():
            counting = srslab.counting
            values = {"configs_one_epoch": counting.configs_one_epoch(params),
                      "configs_with": counting.configs_with(params)}
            for k in ks:
                values[f"config_ratio_k{k}"] = counting.config_ratio(n, b, k)
            return values

        def check(values):
            labelled = count_labels(values)
            bad = sorted({label.split(".")[0] for label in expected
                          if label not in labelled or
                          decimal_digest(labelled[label]) != expected[label]})
            problems = [f"{point} {name}: differs from the exact value"
                        for name in bad]
            digests = {f"{point}/count_text": sha256(
                count_text(n, b, labelled))}
            return len(bad), digests, problems

        # work: binomial terms the definitions sum (n_B, 1, and 2 per ratio)
        return Unit(point, call, 2 + len(ks), n // b + 1 + 2 * len(ks), check)

    def round(self, r: int) -> list[Unit]:
        s = self.seeds[r % SUBSEEDS]
        return [self.count_unit(p) for p in self.params] + [
            self.coverage.unit(kind, self.iterations, self.REPLICAS, s)
            for kind in ("srs", "replacement", "epoch")]

    def finish(self):
        return 0, []


class DeskGrid:
    """`srslab compare` on configs/desk_grid.cfg through cli.main.  The
    grid's S seeds are shifted by S times the benchmark seed, so different
    benchmark seeds train disjoint seeds, and each round runs the grid's
    four cells at one of them: S rounds cover the shipped grid, and a
    run's median round is steadier than one 25 s grid.  The
    MLP, SGD, training loop and blob data do most of the work; samplers
    add about a tenth on srs cells and almost nothing on epoch cells."""

    unit_name = "SGD iterations"

    def __init__(self, seed: int, workdir: Path) -> None:
        shipped = HERE.parent / "configs" / "desk_grid.cfg"
        text = shipped.read_text(encoding="utf-8")
        self.runs = []  # (grid seed, config path, output path)
        base_seeds = parse_grid_config(shipped).seeds
        for base_seed in base_seeds:
            grid_seed = base_seed + len(base_seeds) * seed
            derived, replaced = re.subn(r"(?m)^seeds\s*=.*$",
                                        f"seeds = {grid_seed}", text)
            if replaced != 1:
                raise ValueError(f"{shipped} has no single seeds line")
            config = workdir / f"desk_grid_seed{grid_seed}.cfg"
            config.write_text(derived, encoding="utf-8")
            self.runs.append((grid_seed, config,
                              workdir / f"desk_grid_seed{grid_seed}.csv"))
        self.grid = parse_grid_config(self.runs[0][1])
        base = self.grid.base
        # The blob datasets the grid trains on.  train() builds its own;
        # building them here is what setup_s charges for the inputs.
        self.datasets = [gen_blobs(base.classes, base.ipc_train, base.ipc_test,
                                   base.dim, base.sigma_means,
                                   base.sigma_noise, seed=grid_seed)
                         for grid_seed, _, _ in self.runs]
        self.results: list = []

    def round(self, r: int) -> list[Unit]:
        grid_seed, config, out = self.runs[r % len(self.runs)]
        base = self.grid.base
        runs = len(self.grid.cells())
        iterations = base.epochs * (base.train_size // base.batch_size)

        def call():
            self.results.clear()
            return srslab.cli.main(["compare", str(config), "--out", str(out)])

        def check(code):
            return self.check(code, out, runs, iterations, grid_seed)

        return [Unit(f"compare_csv/seed{grid_seed}", call, runs,
                     runs * iterations, check)]

    def check(self, code, out, runs, iterations, grid_seed):
        if code != 0:
            return runs, {}, [f"compare exited {code}"]
        data = out.read_bytes()
        table = srslab.csvio.from_string(data.decode("utf-8"))
        cell_rows = [row for row in table.rows if row[3] != "median"]
        problems = []
        if len(cell_rows) != runs or len(self.results) != runs:
            return runs, {}, [f"compare wrote {len(cell_rows)} runs and "
                              f"trained {len(self.results)}, expected {runs}"]
        failed = 0
        for row, result in zip(cell_rows, self.results):
            bad = []
            if not all(math.isfinite(m.train_loss) for m in result.rows):
                bad.append("non-finite loss")
            if result.rows[-1].wall_iterations != iterations:
                bad.append(f"{result.rows[-1].wall_iterations} iterations")
            if not result.final_test_error < DESK_GRID_MAX_FINAL_ERROR:
                bad.append(f"final test error {result.final_test_error}")
            if row[4:] != [repr(result.final_test_error),
                           repr(result.best_test_error)]:
                bad.append("CSV row disagrees with the training result")
            if bad:
                failed += 1
                problems.append(f"run {row[:4]}: " + "; ".join(bad))
        return failed, {f"compare_csv/seed{grid_seed}": sha256(data)}, problems

    def on_train_result(self, result) -> None:
        self.results.append(result)

    def finish(self):
        return 0, []


WORKLOADS = {"coverage_small": CoverageSmall, "large_n": LargeN,
             "desk_grid": DeskGrid}
