"""Monte-Carlo visit statistics: how evenly a sampler touches the dataset.

A replica runs one sampler for T iterations and counts how often every
sample landed in a batch.  The headline statistics are the untouched
fraction (samples never drawn) and a chi-square against the uniform
expectation; medians across replicas summarize a report.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, fields

import numpy as np

from .rng import make_stream
from .samplers import BLOCK_ELEMENTS, check_sizes, make_sampler, refill_count


@dataclass
class VisitStats:
    """Per-sample draw counts of one replica plus derived summaries."""

    draw_counts: np.ndarray
    min_count: int
    max_count: int
    mean_count: float
    untouched_fraction: float
    chi_square: float


# The summary statistics: every VisitStats field after draw_counts, in
# field order, which is also the column order of the coverage CSV.
STATS = tuple(f.name for f in fields(VisitStats))[1:]


@dataclass
class ReplicaReport:
    """Stats for every replica of one (sampler, N, B, T, seed) cell."""

    iterations: int
    per_replica: list[VisitStats]

    def median(self, stat: str) -> float:
        """Median of one STATS entry across the replicas."""
        return float(statistics.median(getattr(s, stat)
                                       for s in self.per_replica))

    @property
    def median_untouched_fraction(self) -> float:
        return self.median("untouched_fraction")


def expected_untouched_replacement(dataset_size: int, batch_size: int,
                                   iterations: int) -> float:
    """Exact per-sample probability of never being drawn in T iterations of
    batched replacement: (1 - B/N)**T."""
    check_sizes(dataset_size, batch_size)
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    return (1.0 - batch_size / dataset_size) ** iterations


def visit_stats(draw_counts: np.ndarray, iterations: int,
                batch_size: int) -> list[VisitStats]:
    """One VisitStats per row of an (R, N) matrix of replica draw counts.

    Counts must be an integer matrix with N >= 1, used as given (so
    draw_counts are row views); ValueError names a wrong shape or dtype, or
    the first row with a negative count or a sum other than T*B.  A row's
    chi_square sums (count - E)**2 / E over its N samples, E = T*B/N; a
    zero-draw run (T*B = 0) has nothing to test: 0.0.
    """
    counts = np.asarray(draw_counts)
    if counts.ndim != 2 or counts.shape[1] < 1:
        raise ValueError(f"draw counts must be an (R, N) matrix with N >= 1, "
                         f"got shape {counts.shape}")
    if counts.dtype.kind not in "iu":
        raise ValueError(f"draw counts must be integers, got {counts.dtype}")
    total, lows = iterations * batch_size, counts.min(axis=1)
    bad = np.flatnonzero(lows < 0)
    if bad.size:
        raise ValueError(f"draw counts of row {bad[0]} include "
                         f"{lows[bad[0]]}, expected counts >= 0")
    bad = np.flatnonzero(counts.sum(axis=1) != total)
    if bad.size:
        raise ValueError(f"draw counts of row {bad[0]} sum to "
                         f"{counts[bad[0]].sum()}, expected {total}")
    n = counts.shape[1]
    expected = total / n  # every row's mean, by the sum check
    return [VisitStats(row, int(lo), int(hi), expected,
                       (n - int(np.count_nonzero(row))) / n,
                       _chi_square(row, expected) if total else 0.0)
            for row, lo, hi in zip(counts, lows, counts.max(axis=1))]


def _chi_square(row: np.ndarray, expected: float) -> float:
    """sum((row - E)**2 / E) in one float64 temporary, bit for bit."""
    d = row - expected
    d *= d
    return float(np.divide(d, expected, out=d).sum())


def _count_dtype(kind: str, dataset_size: int, batch_size: int,
                iterations: int) -> np.dtype:
    """The narrowest signed integer type that holds every count `kind`
    can reach in T draws.  epoch, once and replacement never repeat an
    index within a batch, so a count is at most T.  An srs draw reads
    distinct slots and overwrites them, so each copy of an index is drawn
    at most once: a count is at most 1 + `refill_count`, largest at
    index 0, and can reach it."""
    bound = (1 + refill_count(0, iterations, dataset_size, batch_size)
             if kind == "srs" else iterations)
    return next((np.dtype(t) for t in (np.int8, np.int16, np.int32)
                 if bound <= np.iinfo(t).max), np.dtype(np.int64))


def simulate_coverage(kind: str, dataset_size: int, batch_size: int,
                      iterations: int, seed: int,
                      replicas: int = 1) -> ReplicaReport:
    """Run `replicas` independent visit-count simulations of one sampler.

    Replica r draws from the stream (seed, stream_id=r), so the report is
    reproducible bit for bit and independent of execution order; any
    single replica can be rerun alone.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    check_sizes(dataset_size, batch_size)
    block = max(1, BLOCK_ELEMENTS // batch_size)
    counts = np.zeros((replicas, dataset_size), dtype=_count_dtype(
        kind, dataset_size, batch_size, iterations))
    for r, row in enumerate(counts):
        draw = make_sampler(kind, dataset_size, batch_size, make_stream(seed, r))
        for done in range(0, iterations, block):
            batches = draw(min(block, iterations - done))
            # In the row's dtype: `row +=` would add in int64, then cast back.
            np.add(row, np.bincount(batches.ravel(), minlength=dataset_size),
                   out=row, dtype=row.dtype)
    return ReplicaReport(iterations, visit_stats(counts, iterations, batch_size))
