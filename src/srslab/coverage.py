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
from .samplers import BLOCK_ELEMENTS, check_sizes, make_sampler


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


def chi_square_uniform(draw_counts: np.ndarray, iterations: int,
                       batch_size: int) -> tuple[float, int]:
    """Chi-square statistic of the observed draw counts against the
    uniform expectation T*B/N per sample.  Returns (statistic, dof) with
    dof = N - 1."""
    counts = np.asarray(draw_counts, dtype=np.float64)
    total = iterations * batch_size
    if total == 0:
        raise ValueError("chi-square is undefined for zero total draws")
    observed = int(counts.sum())
    if observed != total:
        raise ValueError(f"draw counts sum to {observed}, expected {total}")
    expected = total / counts.size
    stat = float(((counts - expected) ** 2 / expected).sum())
    return stat, counts.size - 1


def expected_untouched_replacement(dataset_size: int, batch_size: int,
                                   iterations: int) -> float:
    """Exact per-sample probability of never being drawn in T iterations of
    batched replacement: (1 - B/N)**T."""
    check_sizes(dataset_size, batch_size)
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    return (1.0 - batch_size / dataset_size) ** iterations


def visit_stats(draw_counts: np.ndarray, iterations: int,
                batch_size: int) -> VisitStats:
    """Bundle raw counts into a VisitStats record."""
    counts = np.asarray(draw_counts, dtype=np.int64)
    if iterations * batch_size > 0:
        chi, _ = chi_square_uniform(counts, iterations, batch_size)
    else:
        chi = 0.0  # degenerate zero-draw run: nothing to test
    return VisitStats(
        draw_counts=counts,
        min_count=int(counts.min()),
        max_count=int(counts.max()),
        mean_count=float(counts.mean()),
        untouched_fraction=float((counts == 0).sum() / counts.size),
        chi_square=chi,
    )


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
    per_replica = []
    for r in range(replicas):
        rng = make_stream(seed, stream_id=r)
        draw = make_sampler(kind, dataset_size, batch_size, rng)
        block = max(1, BLOCK_ELEMENTS // batch_size)
        counts = np.zeros(dataset_size, dtype=np.int64)
        for done in range(0, iterations, block):
            batches = draw(min(block, iterations - done))
            counts += np.bincount(batches.ravel(), minlength=dataset_size)
        per_replica.append(visit_stats(counts, iterations, batch_size))
    return ReplicaReport(iterations, per_replica)
