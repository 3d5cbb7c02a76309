"""Seeded random streams.

Every source of randomness in this package is a numpy Generator made here
from a (seed, stream_id) pair, so replicas and experiment cells stay
reproducible no matter how they are scheduled.
"""

from __future__ import annotations

import numpy as np

# Stream ids carved out of one config seed: the blob points, the initial
# weights, the sampler's draws, the train label noise and the shuffled
# srs sequence.
(DATA_STREAM, MODEL_STREAM, SAMPLER_STREAM, LABEL_STREAM,
 SEQUENCE_STREAM) = range(5)


def make_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Return a PCG64 generator fully determined by (seed, stream_id).

    The same pair yields the same output sequence on every run and
    platform; distinct stream_ids of one seed give statistically
    independent streams (SeedSequence spawn keys).  Raises ValueError
    for a negative seed.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.PCG64(ss))
