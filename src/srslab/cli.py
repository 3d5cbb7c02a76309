"""Command-line front end: count, coverage, train, compare."""

from __future__ import annotations

import argparse
import statistics
import sys

from .config import GridConfig, parse_config, parse_grid_config
from .counting import CountParams, configs_one_epoch, configs_with
from .coverage import ReplicaReport, simulate_coverage
from .csvio import CsvTable, write_csv
from .samplers import SAMPLER_KINDS
from .training import TrainResult, train

COVERAGE_HEADER = ["replica", "iterations", "min_count", "max_count",
                   "mean_count", "untouched_fraction", "chi_square"]
TRAIN_HEADER = ["effective_epoch", "learning_rate", "train_loss",
                "test_error", "wall_iterations"]
COMPARE_HEADER = ["sampler", "milestones", "decay", "seed",
                  "final_test_error", "best_test_error"]


def count_report(dataset_size: int, batch_size: int, epochs: int) -> str:
    """Exact decimal counts plus their digit lengths, one `key value` line
    each."""
    params = CountParams(dataset_size, batch_size, epochs)
    one = configs_one_epoch(params)
    without = params.epochs * one  # configs_without(params), summed once
    with_ = configs_with(params)
    lines = [
        f"N {params.dataset_size}",
        f"B {params.batch_size}",
        f"batches_per_epoch {params.batches_per_epoch}",
        f"epochs {params.epochs}",
        f"configs_one_epoch {one} digits {len(str(one))}",
        f"configs_without {without} digits {len(str(without))}",
        f"configs_with {with_} digits {len(str(with_))}",
    ]
    return "\n".join(lines) + "\n"


def coverage_table(report: ReplicaReport) -> CsvTable:
    """One row per replica plus a final cross-replica median row."""
    table = CsvTable(header=list(COVERAGE_HEADER))
    for r, stats in enumerate(report.per_replica):
        table.append([r, report.iterations, stats.min_count, stats.max_count,
                      stats.mean_count, stats.untouched_fraction,
                      stats.chi_square])
    table.append([
        "median",
        report.iterations,
        report.median_min_count,
        report.median_max_count,
        report.median_mean_count,
        report.median_untouched_fraction,
        report.median_chi_square,
    ])
    return table


def train_table(result: TrainResult) -> CsvTable:
    table = CsvTable(header=list(TRAIN_HEADER))
    for row in result.rows:
        table.append([row.effective_epoch, row.learning_rate, row.train_loss,
                      row.test_error, row.wall_iterations])
    return table


def run_grid(grid: GridConfig) -> CsvTable:
    """Run the sampler x schedule x seed cross-product of a validated grid;
    one row per cell run, then one median row per cell (seed column says
    `median`)."""
    table = CsvTable(header=list(COMPARE_HEADER))
    medians = []
    for sampler, milestones, decay in grid.cells():
        milestones_text = ",".join(str(m) for m in milestones)
        finals, bests = [], []
        for seed in grid.seeds:
            result = train(grid.cell_config(sampler, milestones, decay, seed))
            finals.append(result.final_test_error)
            bests.append(result.best_test_error)
            table.append([sampler, milestones_text, decay, seed,
                          result.final_test_error, result.best_test_error])
        medians.append([sampler, milestones_text, decay, "median",
                        float(statistics.median(finals)),
                        float(statistics.median(bests))])
    for row in medians:
        table.append(row)
    return table


def _cmd_count(args) -> int:
    sys.stdout.write(count_report(args.dataset_size, args.batch_size,
                                  args.epochs))
    return 0


def _cmd_coverage(args) -> int:
    report = simulate_coverage(args.kind, args.dataset_size, args.batch_size,
                               args.iterations, args.seed, args.replicas)
    write_csv(coverage_table(report), args.out)
    print(f"{args.kind} N={args.dataset_size} B={args.batch_size} "
          f"T={args.iterations} replicas={args.replicas}: "
          f"median untouched_fraction={report.median_untouched_fraction} "
          f"median min_count={report.median_min_count} "
          f"median chi_square={report.median_chi_square}")
    return 0


def _cmd_train(args) -> int:
    result = train(parse_config(args.config))
    write_csv(train_table(result), args.out)
    last = result.rows[-1]
    print(f"{result.config.sampler}: {len(result.rows)} effective epochs, "
          f"final train_loss={last.train_loss} "
          f"final test_error={last.test_error}")
    return 0


def _cmd_compare(args) -> int:
    grid = parse_grid_config(args.config)
    table = run_grid(grid)
    write_csv(table, args.out)
    for row in table.rows:
        if row[COMPARE_HEADER.index("seed")] == "median":
            print(f"{row[0]} ({row[1]}) decay {row[2]}: "
                  f"median final={row[4]} best={row[5]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    train_p = sub.add_parser("train", help="one training run from a config")
    train_p.add_argument("config", help="key = value config file")
    train_p.add_argument("--out", required=True, help="output CSV path")
    train_p.set_defaults(func=_cmd_train)

    compare = sub.add_parser(
        "compare", help="sampler x schedule x seed comparison grid")
    compare.add_argument("config", help="key = value config file")
    compare.add_argument("--out", required=True, help="output CSV path")
    compare.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
