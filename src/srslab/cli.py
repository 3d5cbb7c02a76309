"""Command-line front end: count, coverage, train, compare."""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from dataclasses import astuple, dataclass, fields, replace
from decimal import Decimal

from .config import GridConfig, parse_config, parse_grid_config
from .counting import CountParams, configs_one_epoch, configs_with
from .coverage import (STATS, ReplicaReport, expected_untouched_replacement,
                       simulate_coverage)
from .csvio import CsvTable, write_csv
from .samplers import SAMPLER_KINDS
from .training import MetricsRow, shared_prefixes, train


@dataclass
class CompareRow:
    """One compare CSV row, one column per field: a run, or the median
    of one cell's runs, whose seed reads `median`."""

    sampler: str
    milestones: str
    decay: float
    seed: int | str
    final_test_error: float
    best_test_error: float


def count_report(dataset_size: int, batch_size: int, epochs: int) -> str:
    """Exact decimal counts plus their digit lengths, one `key value` line
    each, through `Decimal`, which CPython's `str(int)` digit limit skips."""
    params = CountParams(dataset_size, batch_size, epochs)
    one = configs_one_epoch(params)
    lines = [f"N {params.dataset_size}", f"B {params.batch_size}",
             f"batches_per_epoch {params.batches_per_epoch}",
             f"epochs {params.epochs}"]
    for name, value in (("configs_one_epoch", one),
                        ("configs_without", params.epochs * one),
                        ("configs_with", configs_with(params))):
        text = str(Decimal(value))
        lines.append(f"{name} {text} digits {len(text)}")
    return "\n".join(lines) + "\n"


def coverage_table(report: ReplicaReport) -> CsvTable:
    """One row per replica plus a final cross-replica median row."""
    table = CsvTable(header=["replica", "iterations", *STATS])
    for r, stats in enumerate(report.per_replica):
        table.append([r, report.iterations,
                      *(getattr(stats, stat) for stat in STATS)])
    table.append(["median", report.iterations,
                  *(report.median(stat) for stat in STATS)])
    return table


def records_table(record_type, records) -> CsvTable:
    """One column per dataclass field, one row per record."""
    table = CsvTable(header=[f.name for f in fields(record_type)])
    for record in records:
        table.append(astuple(record))
    return table


def run_grid(grid: GridConfig) -> list[CompareRow]:
    """Train every run of a validated grid in `grid.runs()` order, each
    shared schedule prefix once, then add one median row per cell."""
    runs = grid.runs()
    with shared_prefixes(runs):
        results = [train(run) for run in runs]
    rows = [CompareRow(run.sampler, ",".join(map(str, run.lr_milestones)),
                       run.lr_decay, run.seed, result.final_test_error,
                       result.best_test_error)
            for run, result in zip(runs, results)]
    n = len(grid.seeds)
    cells = [rows[i:i + n] for i in range(0, len(rows), n)]
    return rows + [replace(
        cell[0], seed="median",
        final_test_error=statistics.median(r.final_test_error for r in cell),
        best_test_error=statistics.median(r.best_test_error for r in cell),
    ) for cell in cells]


def _cmd_count(args) -> int:
    sys.stdout.write(count_report(args.dataset_size, args.batch_size,
                                  args.epochs))
    return 0


def _cmd_coverage(args) -> int:
    n, b, t = args.dataset_size, args.batch_size, args.iterations
    report = simulate_coverage(args.kind, n, b, t, args.seed, args.replicas)
    write_csv(coverage_table(report), args.out)
    print(f"{args.kind} N={n} B={b} T={t} replicas={args.replicas}: "
          f"median untouched_fraction={report.median_untouched_fraction} "
          f"median min_count={report.median('min_count')} "
          f"median chi_square={report.median('chi_square')} "
          f"replacement closed form="
          f"{expected_untouched_replacement(n, b, t)}")
    return 0


def _cmd_train(args) -> int:
    result = train(parse_config(args.config))
    write_csv(records_table(MetricsRow, result.rows), args.out)
    last = result.rows[-1]
    print(f"{result.config.sampler}: {len(result.rows)} effective epochs, "
          f"final train_loss={last.train_loss} "
          f"final test_error={last.test_error}")
    return 0


def _cmd_compare(args) -> int:
    rows = run_grid(parse_grid_config(args.config))
    write_csv(records_table(CompareRow, rows), args.out)
    for row in rows:
        if row.seed == "median":
            print(f"{row.sampler} ({row.milestones}) decay {row.decay}: "
                  f"median final={row.final_test_error} "
                  f"best={row.best_test_error}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Raise a usage error for `main` to report in one `error:` line."""
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="srslab",
        description="Sequenced-replacement sampling experiments: exact "
                    "configuration counts, coverage simulations, and "
                    "desk-scale sampler comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser(
        "count", help="exact accessible-configuration counts")
    count.add_argument("dataset_size", type=int)
    count.add_argument("batch_size", type=int)
    count.add_argument("--epochs", type=int, default=1)
    count.set_defaults(func=_cmd_count)

    coverage = sub.add_parser(
        "coverage", help="Monte-Carlo sample-visit statistics")
    coverage.add_argument("kind", choices=SAMPLER_KINDS)
    coverage.add_argument("dataset_size", type=int)
    coverage.add_argument("batch_size", type=int)
    coverage.add_argument("--iterations", type=int, required=True)
    coverage.add_argument("--seed", type=int, default=0)
    coverage.add_argument("--replicas", type=int, default=1)
    coverage.add_argument("--out", required=True, help="output CSV path")
    coverage.set_defaults(func=_cmd_coverage)

    for name, about, func in (
            ("train", "one training run from a config", _cmd_train),
            ("compare", "sampler x schedule x seed comparison grid",
             _cmd_compare)):
        run = sub.add_parser(name, help=about)
        run.add_argument("config", help="key = value config file")
        run.add_argument("--out", required=True, help="output CSV path")
        run.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # a missing --out directory fails as the write would, before any work
        if not os.path.isdir(os.path.dirname(getattr(args, "out", "")) or "."):
            open(args.out, "rb").close()
        return args.func(args)
    except (ValueError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
