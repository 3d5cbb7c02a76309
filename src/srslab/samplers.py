"""Mini-batch samplers: sequenced replacement, epoch shuffle, batched replacement.

All three are deterministic state machines driven by a numpy Generator.
`make_sampler` returns `draw(k)`, which gives the next k batches as a
(k, batch_size) int64 array of dataset indices in [0, dataset_size).
Under sequenced replacement a batch may repeat an index once the pool
holds duplicate copies; the other two regimes always return distinct
indices within a batch.  Epoch shuffle deals the first (N // B) * B
entries of each fresh permutation, so the partial batch is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

SAMPLER_KINDS = ("srs", "epoch", "replacement")

# Subset rows are made in chunks of about this many int64 entries (256 KiB),
# so no temporary grows with k * N; coverage sizes its draw blocks by it too.
BLOCK_ELEMENTS = 1 << 15

# `_srs_rows` takes its one-pass refill once a chunk writes more than this
# many entries per pool slot: the crossover measured at (N, B) = (23, 4).
DENSE_PER_SLOT = 4


def check_kind(kind: str) -> None:
    """Raise ValueError unless `kind` names one of SAMPLER_KINDS."""
    if kind not in SAMPLER_KINDS:
        raise ValueError(
            f"sampler must be one of {SAMPLER_KINDS}, got {kind!r}"
        )


def check_sizes(dataset_size: int, batch_size: int) -> None:
    """Raise ValueError unless 1 <= batch_size <= dataset_size."""
    if dataset_size < 1:
        raise ValueError(f"dataset_size must be >= 1, got {dataset_size}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if batch_size > dataset_size:
        raise ValueError(
            f"batch_size {batch_size} exceeds dataset_size {dataset_size}"
        )


def _distinct_probability(n: int, b: int) -> float:
    """p = n! / ((n-b)! n^b): the chance that b i.i.d. uniform draws from
    range(n) are all distinct, i.e. that a rejection row is accepted."""
    return math.exp(math.lgamma(n + 1) - math.lgamma(n - b + 1)
                    - b * math.log(n))


def _has_repeat(rows: np.ndarray) -> np.ndarray:
    """Per row, whether it holds some value twice."""
    ordered = np.sort(rows, axis=1)
    return (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)


def _subset_rows(rng: np.random.Generator, n: int, b: int,
                 k: int) -> np.ndarray:
    """k rows of b distinct values in [0, n), each row uniform over the
    ordered b-tuples of distinct values, so its set is a uniform b-subset.

    A rejection row is accepted with probability p = _distinct_probability,
    so it draws b/p int64 entries on average; a permutation row draws n.
    Both branches cost about the same per entry (measured on numpy 2.4
    from (4, 4) to (50000, 1000)), so rejection is taken when b <= n * p.
    It draws rows with replacement and replaces the rows with a repeat:
    conditioning i.i.d. uniform tuples on being distinct leaves them
    uniform.  After a first round that fills every row in place, each
    round draws ceil(r/p) candidate rows for the r rows still holding a
    repeat (at most a chunk's worth) and fills those rows, in order, with
    the repeat-free candidates.  The candidates are i.i.d. and which
    accepted ones are kept depends only on the accept flags, so every kept
    row stays uniform over distinct tuples.  Otherwise each row is the
    first b entries of a uniform permutation of range(n).  Rows are made
    in chunks of about BLOCK_ELEMENTS temporary entries, or one row of n.
    """
    out = np.empty((k, b), dtype=np.int64)
    p = _distinct_probability(n, b)
    sparse = b <= n * p
    step = max(1, BLOCK_ELEMENTS // (b if sparse else n))
    for start in range(0, k, step):
        rows = out[start:start + step]
        if sparse:
            rows[:] = rng.integers(0, n, size=rows.shape)
            redraw = np.flatnonzero(_has_repeat(rows))
            while redraw.size:
                want = min(math.ceil(redraw.size / p), step)
                drawn = rng.integers(0, n, size=(want, b))
                kept = drawn[~_has_repeat(drawn)][:redraw.size]
                rows[redraw[:len(kept)]] = kept
                redraw = redraw[len(kept):]
        else:
            perms = np.tile(np.arange(n, dtype=np.int64), (len(rows), 1))
            rows[:] = rng.permuted(perms, axis=1, out=perms)[:, :b]
    return out


@dataclass
class SrsPool:
    """Replacement-sampling pool with a sequenced refill cursor.

    `slots` is an int64 array holding a multiset of dataset indices; its
    order carries no meaning.  Each sample starts with exactly one slot.
    A draw reads `batch_size` distinct slots and overwrites them in place
    with the indices cursor, cursor+1, ... taken modulo dataset_size, so
    the pool always holds `dataset_size` entries and the first index
    follows the last one cyclically.
    """

    dataset_size: int
    batch_size: int
    slots: np.ndarray
    draws_completed: int = 0

    @property
    def cursor(self) -> int:
        return self.draws_completed * self.batch_size % self.dataset_size


def init_srs(dataset_size: int, batch_size: int) -> SrsPool:
    """Fresh pool with one slot per dataset index and the cursor at zero.

    Sequence indices are the identity order 0..dataset_size-1, fixed for
    the lifetime of the pool.
    """
    check_sizes(dataset_size, batch_size)
    return SrsPool(dataset_size, batch_size,
                   np.arange(dataset_size, dtype=np.int64))


def _srs_rows(state: SrsPool, positions: np.ndarray) -> np.ndarray:
    """Apply one draw per row of `positions` (each row distinct slot
    positions) and return the drawn dataset indices, row by row.

    Rows go in chunks of at most BLOCK_ELEMENTS // batch_size.  A dense
    chunk, one writing more than DENSE_PER_SLOT entries per pool slot, goes
    in one pass: a stable argsort groups each slot's touches in row order,
    a touch reads the fill of the touch before it, or the slot's value
    before the chunk if it is the first, and each slot keeps its last fill.
    Its positions lie below dataset_size < 2**13, so they fit in uint16,
    which numpy argsorts stably by radix sort.  Sparser chunks keep the
    row loop, which is faster for them.
    """
    n, b = state.dataset_size, state.batch_size
    out = rows = np.empty((len(positions), b), dtype=np.int64)
    step = BLOCK_ELEMENTS // b or 1
    while min(step, len(rows)) * b > DENSE_PER_SLOT * n:
        pos = positions[:step].ravel()
        order = np.argsort(pos.astype(np.uint16), kind="stable")
        fills = (state.cursor + order) % n
        counts = np.bincount(pos)
        touched = np.flatnonzero(counts)
        ends = np.cumsum(counts[touched])
        rows.reshape(-1)[order] = np.roll(fills, 1)
        rows.reshape(-1)[order[ends - counts[touched]]] = state.slots[touched]
        state.slots[touched] = fills[ends - 1]
        state.draws_completed += len(pos) // b
        rows, positions = rows[step:], positions[step:]
    fills = np.arange(state.cursor, state.cursor + rows.size) % n
    for row, pos, fill in zip(rows, positions, fills.reshape(rows.shape)):
        row[:] = state.slots[pos]
        state.slots[pos] = fill
    state.draws_completed += len(rows)
    return out


def srs_draw_at(state: SrsPool, positions: Sequence[int]) -> np.ndarray:
    """Apply one draw that reads the slots at `positions`, then refill.

    `positions` index into the current slot array, so they must be
    distinct and lie in [0, dataset_size); this forces a draw onto chosen
    slots (replays, walkthrough tests) through the row loop of `_srs_rows`,
    as one row is never dense.  Returns the drawn indices in position order.
    """
    b = state.batch_size
    if len(positions) != b:
        raise ValueError(f"expected {b} positions, got {len(positions)}")
    if len(set(positions)) != b:
        raise ValueError("slot positions must be distinct within one draw")
    if not 0 <= min(positions) <= max(positions) < state.dataset_size:
        raise ValueError(
            f"slot positions must lie in [0, {state.dataset_size})")
    return _srs_rows(state, np.asarray([positions], dtype=np.int64))[0]


def draw_srs(state: SrsPool, rng: np.random.Generator, k: int) -> np.ndarray:
    """The next k draws: each reads `batch_size` distinct slots chosen
    uniformly at random, then refills them.

    Selection is uniform at slot granularity: every slot is equally likely
    regardless of which dataset index occupies it, so duplicate indices can
    appear within one batch.  Slot positions do not depend on what the
    pool holds, so all k rows of them are drawn at once.
    """
    positions = _subset_rows(rng, state.dataset_size, state.batch_size, k)
    return _srs_rows(state, positions)


def draw_batch_srs(state: SrsPool, rng: np.random.Generator) -> np.ndarray:
    """One draw of `draw_srs`."""
    return draw_srs(state, rng, 1)[0]


def pool_histogram(state: SrsPool) -> dict[int, int]:
    """Multiplicity of every dataset index in the pool, zeros included."""
    hist = np.bincount(state.slots, minlength=state.dataset_size)
    return dict(enumerate(hist.tolist()))


def refill_count(index: int, draws_completed: int, dataset_size: int,
                 batch_size: int) -> int:
    """Copies of `index` appended by the refill cursor in the first
    `draws_completed` draws.  Pure cursor arithmetic, no randomness."""
    total = draws_completed * batch_size
    return total // dataset_size + (1 if index < total % dataset_size else 0)


def make_sampler(kind: str, dataset_size: int, batch_size: int,
                 rng: np.random.Generator) -> Callable[[int], np.ndarray]:
    """Uniform front door: `draw(k)` yields the next k batches as a
    (k, batch_size) int64 array, drawn from `rng`, which the sampler owns.
    `epoch` deals (N // B) * B-entry prefixes of uniform permutations, each
    drawn only when a batch needs it; `replacement` draws every batch
    afresh with `_subset_rows`."""
    check_kind(kind)
    check_sizes(dataset_size, batch_size)
    n, b = dataset_size, batch_size
    if kind == "srs":
        pool = init_srs(n, b)
        return lambda k: draw_srs(pool, rng, k)
    if kind == "replacement":
        return lambda k: _subset_rows(rng, n, b, k)
    usable = n // b * b
    rest = np.empty(0, dtype=np.int64)  # undealt entries, in order

    def draw(k: int) -> np.ndarray:
        nonlocal rest
        short = -((rest.size - k * b) // usable)  # permutations to deal
        if short > 0:
            rest = np.concatenate([rest] + [rng.permutation(n)[:usable]
                                            for _ in range(short)])
        block, rest = rest[:k * b], rest[k * b:]
        return block.reshape(k, b)
    return draw
