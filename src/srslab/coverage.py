"""Monte-Carlo visit statistics: how evenly a sampler touches the dataset.

A replica runs one sampler for T iterations and counts how often every
sample landed in a batch.  The headline statistics are the untouched
fraction (samples never drawn) and a chi-square against the uniform
expectation; medians across replicas summarize a report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import make_stream
from .samplers import BLOCK_ELEMENTS, _check_sizes, make_sampler


@dataclass
class VisitStats:
    """Per-sample draw counts of one replica plus derived summaries."""

    draw_counts: np.ndarray
    iterations: int
    min_count: int
    max_count: int
    mean_count: float
    untouched_fraction: float
    chi_square: float


@dataclass
class ReplicaReport:
    """Stats for every replica of one (sampler, N, B, T, seed) cell."""

    kind: str
    dataset_size: int
    batch_size: int
    iterations: int
    seed: int
    per_replica: list[VisitStats] = field(default_factory=list)
    median_min_count: float = 0.0
    median_max_count: float = 0.0
    median_mean_count: float = 0.0
    median_untouched_fraction: float = 0.0
    median_chi_square: float = 0.0

    @property
    def replicas(self) -> int:
        return len(self.per_replica)


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
    _check_sizes(dataset_size, batch_size)
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
        iterations=iterations,
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
    _check_sizes(dataset_size, batch_size)
    block = max(1, BLOCK_ELEMENTS // batch_size)
    per_replica = []
    for r in range(replicas):
        rng = make_stream(seed, stream_id=r)
        draw = make_sampler(kind, dataset_size, batch_size, rng)
        counts = np.zeros(dataset_size, dtype=np.int64)
        for done in range(0, iterations, block):
            batches = draw(min(block, iterations - done))
            counts += np.bincount(batches.ravel(), minlength=dataset_size)
        per_replica.append(visit_stats(counts, iterations, batch_size))

    def median(stat: str) -> float:
        return float(np.median([getattr(s, stat) for s in per_replica]))

    return ReplicaReport(
        kind=kind,
        dataset_size=dataset_size,
        batch_size=batch_size,
        iterations=iterations,
        seed=seed,
        per_replica=per_replica,
        median_min_count=median("min_count"),
        median_max_count=median("max_count"),
        median_mean_count=median("mean_count"),
        median_untouched_fraction=median("untouched_fraction"),
        median_chi_square=median("chi_square"),
    )
