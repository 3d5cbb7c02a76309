import hashlib
import itertools
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srslab.rng import make_stream
from srslab.samplers import (BLOCK_ELEMENTS, SAMPLER_KINDS,
                             _distinct_probability, _subset_rows, check_sizes,
                             draw_batch_srs, draw_srs, init_srs, make_sampler,
                             pool_histogram, refill_count, srs_draw_at)


def positions_of(state, values):
    """Distinct slot positions holding the given values, in order."""
    taken: set[int] = set()
    out = []
    for v in values:
        for i, s in enumerate(state.slots):
            if s == v and i not in taken:
                taken.add(i)
                out.append(i)
                break
        else:
            raise AssertionError(f"value {v} not available in pool")
    return out


class TestInitSrs:
    def test_fresh_pool_is_one_copy_each(self):
        state = init_srs(5, 2)
        assert pool_histogram(state) == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
        assert state.cursor == 0
        assert state.draws_completed == 0

    def test_smallest_instance(self):
        state = init_srs(1, 1)
        assert state.slots == [0]
        assert state.cursor == 0

    def test_rejects_batch_larger_than_dataset(self):
        with pytest.raises(ValueError):
            init_srs(5, 6)

    def test_rejects_zero_sizes(self):
        with pytest.raises(ValueError):
            init_srs(0, 1)
        with pytest.raises(ValueError):
            init_srs(5, 0)


class TestSrsDraw:
    def test_two_step_walkthrough(self):
        # N=5, B=2; force the draws and track the pool multiset by hand.
        state = init_srs(5, 2)
        batch = srs_draw_at(state, positions_of(state, [1, 4]))
        assert sorted(batch) == [1, 4]
        assert sorted(state.slots) == [0, 0, 1, 2, 3]
        assert pool_histogram(state) == {0: 2, 1: 1, 2: 1, 3: 1, 4: 0}
        assert state.cursor == 2

        batch = srs_draw_at(state, positions_of(state, [0, 0]))
        assert list(batch) == [0, 0]  # a duplicate pair is a legal batch
        assert sorted(state.slots) == [1, 2, 2, 3, 3]
        assert pool_histogram(state) == {0: 0, 1: 1, 2: 2, 3: 2, 4: 0}
        assert state.cursor == 4

    def test_singleton_pool_is_a_fixed_point(self):
        state = init_srs(1, 1)
        rng = make_stream(3)
        for _ in range(10):
            assert list(draw_batch_srs(state, rng)) == [0]
            assert state.slots == [0]

    def test_cursor_wraps_mid_refill(self):
        state = init_srs(5, 2)
        rng = make_stream(0)
        for _ in range(3):  # 6 refills > N=5, so the cursor wraps
            draw_batch_srs(state, rng)
        assert state.cursor == 1
        assert state.draws_completed == 3

    def test_batch_is_batch_size_long(self):
        state = init_srs(10, 3)
        rng = make_stream(1)
        for _ in range(20):
            assert draw_batch_srs(state, rng).shape == (3,)

    def test_forced_positions_must_be_distinct(self):
        state = init_srs(4, 2)
        with pytest.raises(ValueError):
            srs_draw_at(state, [1, 1])

    def test_forced_positions_must_lie_in_the_pool(self):
        for positions in ([-1, 4], [0, 5]):
            state = init_srs(5, 2)
            with pytest.raises(ValueError):
                srs_draw_at(state, positions)
            assert state.slots.tolist() == [0, 1, 2, 3, 4]
            assert state.cursor == 0

    def test_forced_positions_must_be_integers(self):
        # 1.2 and 1.7 are distinct, but both would truncate to slot 1
        state = init_srs(5, 2)
        with pytest.raises(ValueError, match="integer positions"):
            srs_draw_at(state, [1.2, 1.7])
        assert state.slots.tolist() == [0, 1, 2, 3, 4]
        assert state.draws_completed == 0

    def test_forced_positions_must_match_batch_size(self):
        state = init_srs(4, 2)
        with pytest.raises(ValueError):
            srs_draw_at(state, [1, 2, 3])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=24), st.data())
    def test_conservation_and_multiplicity_identity(self, n, data):
        b = data.draw(st.integers(min_value=1, max_value=n))
        steps = data.draw(st.integers(min_value=0, max_value=60))
        seed = data.draw(st.integers(min_value=0, max_value=2**32))
        state = init_srs(n, b)
        rng = make_stream(seed)
        drawn = np.zeros(n, dtype=np.int64)
        for _ in range(steps):
            batch = draw_batch_srs(state, rng)
            np.add.at(drawn, batch, 1)
            assert len(state.slots) == n  # conservation after every draw
        hist = pool_histogram(state)
        assert sum(hist.values()) == n
        for i in range(n):
            refills = refill_count(i, state.draws_completed, n, b)
            assert hist[i] == 1 + refills - drawn[i]

    def test_refill_fairness_bound(self):
        # refill counts across indices never differ by more than one, and
        # within a wrap the earlier index is refilled first
        for n, b, t in [(5, 2, 7), (10, 3, 100), (7, 7, 4), (16, 5, 33)]:
            counts = [refill_count(i, t, n, b) for i in range(n)]
            assert max(counts) - min(counts) <= 1
            assert all(c1 >= c2 for c1, c2 in zip(counts, counts[1:]))
            assert sum(counts) == t * b

    def test_never_drawn_index_accumulates_copies(self):
        # avoid drawing index 0 on purpose; every N/B draws add one copy
        n, b = 6, 2
        state = init_srs(n, b)
        for step in range(1, 10):
            positions = [i for i, v in enumerate(state.slots) if v != 0][:b]
            srs_draw_at(state, positions)
            assert pool_histogram(state)[0] == 1 + refill_count(0, step, n, b)
        assert pool_histogram(state)[0] == 4  # strictly grew from 1


def replay_epoch(n, b, rng, rows):
    """Reference for the epoch sampler: the first `rows` batches dealt from
    the (n // b) * b-entry prefixes of rng.permutation(n), drawn in turn
    only while they are needed."""
    dealt = []
    while len(dealt) < rows * b:
        dealt += rng.permutation(n)[:n // b * b].tolist()
    return dealt[:rows * b]


def assert_epoch_matches_replay(n, b, seed, blocks):
    rng, replay_rng = make_stream(seed), make_stream(seed)
    draw = make_sampler("epoch", n, b, rng)
    drawn = []
    for k in blocks:
        block = draw(k)
        assert block.dtype == np.int64 and block.shape == (k, b)
        drawn += block.ravel().tolist()
    assert drawn == replay_epoch(n, b, replay_rng, sum(blocks))
    # no permutation is drawn ahead of the batches that need it
    assert rng.integers(2**62) == replay_rng.integers(2**62)


class TestEpochShuffle:
    def test_one_epoch_partitions_when_divisible(self):
        draw = make_sampler("epoch", 4, 2, make_stream(5))
        seen = np.concatenate([draw(1)[0] for _ in range(2)])
        assert sorted(seen) == [0, 1, 2, 3]

    def test_partial_batch_is_dropped(self):
        draw = make_sampler("epoch", 5, 2, make_stream(6))
        epoch = np.concatenate([draw(1)[0] for _ in range(2)])
        assert len(set(epoch.tolist())) == 4  # exactly one index unused
        # the third batch opens a fresh permutation
        replay = make_stream(6)
        first, second = replay.permutation(5), replay.permutation(5)
        assert epoch.tolist() == first[:4].tolist()
        assert draw(1)[0].tolist() == second[:2].tolist()

    def test_batches_within_epoch_are_disjoint(self):
        n, b = 21, 4
        draw = make_sampler("epoch", n, b, make_stream(7))
        for _ in range(3):  # three epochs
            seen = np.concatenate([draw(1)[0] for _ in range(n // b)])
            assert len(set(seen.tolist())) == (n // b) * b

    def test_blocks_match_batch_by_batch_draws(self):
        n, b = 21, 4  # five batches per epoch; the blocks cross epochs
        blocks = make_sampler("epoch", n, b, make_stream(9))
        single = make_sampler("epoch", n, b, make_stream(9))
        drawn = np.concatenate([blocks(k) for k in (3, 11, 1, 7)])
        assert drawn.tolist() == [single(1)[0].tolist() for _ in range(22)]

    def test_same_seed_gives_same_sequence(self):
        runs = []
        for _ in range(2):
            draw = make_sampler("epoch", 9, 2, make_stream(11))
            runs.append([draw(1)[0].tolist() for _ in range(10)])
        assert runs[0] == runs[1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=24), st.data())
    def test_blocks_match_a_permutation_replay(self, n, data):
        b = data.draw(st.integers(min_value=1, max_value=n))
        blocks = data.draw(st.lists(st.integers(min_value=0, max_value=30),
                                    max_size=5))
        assert_epoch_matches_replay(n, b, data.draw(st.integers(0, 2**32)),
                                    blocks)

    # b == n deals whole permutations; (7, 3) and (23, 5) drop one and three
    # entries per epoch; (21, 4, [23]) spans five epochs in one block.
    @pytest.mark.parametrize("n, b, blocks", [
        (5, 5, [3, 0, 1]), (1, 1, [4]), (7, 3, [1, 1, 1, 1, 1]),
        (23, 5, [9, 2]), (21, 4, [23, 2]), (1000, 32, [100, 1])])
    def test_fixed_blocks_match_a_permutation_replay(self, n, b, blocks):
        assert_epoch_matches_replay(n, b, 19, blocks)


class TestShuffleOnce:
    @pytest.mark.parametrize("n, b", [(1, 1), (5, 5), (7, 3), (23, 5),
                                      (21, 4), (1000, 32)])
    def test_every_epoch_is_the_same_partition_of_the_prefix(self, n, b):
        per_epoch = n // b
        draw = make_sampler("once", n, b, make_stream(13))
        prefix = make_stream(13).permutation(n)[:per_epoch * b]
        first = draw(per_epoch)
        assert first.ravel().tolist() == prefix.tolist()
        for k in (per_epoch, 2 * per_epoch):  # whole epochs, one block
            assert draw(k).tolist() == np.tile(first, (k // per_epoch,
                                                       1)).tolist()

    def test_blocks_deal_the_batches_cyclically(self):
        n, b = 23, 5  # four batches an epoch; the blocks cross epochs
        blocks = make_sampler("once", n, b, make_stream(9))
        single = make_sampler("once", n, b, make_stream(9))
        epoch = [single(1)[0].tolist() for _ in range(4)]
        drawn = np.concatenate([blocks(k) for k in (3, 0, 11, 1, 7)])
        assert drawn.tolist() == [epoch[i % 4] for i in range(22)]


class TestBatchedReplacement:
    def test_full_batch_is_a_permutation(self):
        draw = make_sampler("replacement", 5, 5, make_stream(2))
        for _ in range(20):
            assert sorted(draw(1)[0]) == [0, 1, 2, 3, 4]

    def test_single_draw_frequencies_are_balanced(self):
        draw = make_sampler("replacement", 2, 1, make_stream(42))
        hits = np.zeros(2, dtype=np.int64)
        for _ in range(10_000):
            hits[draw(1)[0, 0]] += 1
        freq = hits[0] / 10_000
        assert abs(freq - 0.5) <= 0.02

    def test_support_is_every_subset(self):
        draw = make_sampler("replacement", 5, 2, make_stream(3))
        seen = set()
        for _ in range(2_000):
            seen.add(frozenset(draw(1)[0].tolist()))
        assert len(seen) == 10  # C(5,2)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["srs", "epoch", "replacement"])
    def test_identical_streams_give_identical_batches(self, kind):
        sequences = []
        for _ in range(2):
            draw = make_sampler(kind, 12, 5, make_stream(99, 7))
            sequences.append([draw(k).tolist() for k in (1, 7, 32)])
        assert sequences[0] == sequences[1]

    def test_distinct_stream_ids_differ(self):
        a = make_sampler("srs", 50, 10, make_stream(1, 0))
        b = make_sampler("srs", 50, 10, make_stream(1, 1))
        assert a(5).tolist() != b(5).tolist()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="sampler must be one of"):
            make_sampler("bogus", 10, 2, make_stream(0))

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    @pytest.mark.parametrize("n, b", [(3, 4), (0, 1), (5, 0), (0, 0)])
    def test_bad_sizes_rejected_with_the_check_sizes_message(self, kind,
                                                              n, b):
        with pytest.raises(ValueError) as rule:
            check_sizes(n, b)
        with pytest.raises(ValueError) as got:
            make_sampler(kind, n, b, make_stream(0))
        assert str(got.value) == str(rule.value)
        if (n, b) == (3, 4):
            assert str(got.value) == "batch_size 4 exceeds dataset_size 3"

    # sha256 of the int64 bytes of draw(k) for k in STREAM_BLOCKS from
    # make_stream(7, 2).  A change here is a change of a random stream,
    # which breaks reproducibility of every CSV that sampler feeds.
    STREAM_BLOCKS = (0, 1, 7, 31, 1024)
    STREAM_DIGESTS = {
        ("srs", 23, 5): "ca4f7a179b5878ad5cf9c1eba24c83a8"
                        "d73e88bb6127d3b1375dcd27735f76ff",
        ("epoch", 23, 5): "a14bb5507dfdd855cf7140322ad20c1d"
                          "cd3bec702c004552a4b7acf78a68bfe0",
        ("replacement", 23, 5): "45e8c2e13574cf4bfb7ea90c52a0f265"
                                "5874d5a25fb3f798972af2ed5939a54a",
        ("srs", 1000, 32): "07fa9b09d41c9b69551321d475093d73"
                           "f6cec4f7eca9f59902dc018a6912f7f4",
        ("epoch", 1000, 32): "879405adb486f0abf50909149b908ad3"
                             "b0549fdd99952a301c6c441adc149b72",
        ("replacement", 1000, 32): "a0b29e09c9b7e858eaeb0905ed4a2ffe"
                                   "b0674317ee3c63289903b129e7c68f85",
        ("srs", 2000, 64): "26ec60758783a558ecceb657d58c569d"
                           "5c4156ae80ee13632ddd3bfd8f2e6e02",
        ("epoch", 2000, 64): "e18d0825886a6a2eb9547c2a73b30b31"
                             "d7a91c19521bf39b6b1987c9255089ff",
        ("replacement", 2000, 64): "0def4325a568cb4dc87a17932b28c7ce"
                                   "a7b89dfa7f21226f00f2bdc88e42adaf",
    }

    @pytest.mark.parametrize("kind, n, b", sorted(STREAM_DIGESTS))
    def test_random_streams_are_pinned(self, kind, n, b):
        draw = make_sampler(kind, n, b, make_stream(7, 2))
        digest = hashlib.sha256()
        for k in self.STREAM_BLOCKS:
            block = draw(k)
            assert block.dtype == np.int64
            digest.update(block.tobytes())
        assert digest.hexdigest() == self.STREAM_DIGESTS[kind, n, b]


def chi2_quantile_999(dof):
    """Wilson-Hilferty approximation of the chi-square 99.9th percentile."""
    a = 2.0 / (9.0 * dof)
    return dof * (1.0 - a + 3.090232306167813 * math.sqrt(a)) ** 3


def assert_uniform(outcomes, support):
    """Every value in `support` occurs, and the frequencies pass a
    chi-square test against the uniform distribution at the 0.1% level."""
    index = {v: i for i, v in enumerate(support)}
    counts = np.bincount([index[o] for o in outcomes], minlength=len(support))
    assert counts.min() > 0
    if len(support) > 1:
        expected = len(outcomes) / len(support)
        chi = ((counts - expected) ** 2 / expected).sum()
        assert chi < chi2_quantile_999(len(support) - 1), (chi, counts)


def replay_srs(n, b, seed, blocks):
    """Reference for draw_srs in plain Python: the slot positions
    _subset_rows draws from the same stream, read and refilled one entry at
    a time.  Returns the drawn indices, the final slots and the draws."""
    rng = make_stream(seed)
    slots, drawn, written = list(range(n)), [], 0
    for k in blocks:
        for row in _subset_rows(rng, n, b, k).tolist():
            for pos in row:
                drawn.append(slots[pos])
                slots[pos] = written % n
                written += 1
    return drawn, slots, written // b


def assert_matches_replay(n, b, seed, blocks):
    state, rng = init_srs(n, b), make_stream(seed)
    drawn = [draw_srs(state, rng, k).ravel().tolist() for k in blocks]
    got = (sum(drawn, []), state.slots.tolist(), state.draws_completed)
    assert got == replay_srs(n, b, seed, blocks)


class TestSubsetRows:
    # (6, 2), (7, 1) and (8, 3) take the rejection branch; (5, 3), (3, 3),
    # (5, 4), (6, 5) and (4, 4) take the permutation branch (see
    # test_branch_rule).  B = N and B = 1 are edge cases; with B = N the
    # orderings carry the test.
    @pytest.mark.parametrize("n, b", [(6, 2), (5, 3), (7, 1), (3, 3),
                                      (5, 4), (6, 5), (4, 4), (8, 3)])
    def test_subsets_and_orderings_are_uniform(self, n, b):
        rows = _subset_rows(make_stream(1234, n * 10 + b), n, b, 20_000)
        tuples = [tuple(r) for r in rows.tolist()]
        assert_uniform([tuple(sorted(t)) for t in tuples],
                       list(itertools.combinations(range(n), b)))
        assert_uniform(tuples, list(itertools.permutations(range(n), b)))

    def test_branch_rule(self):
        # Rejection draws only through rng.integers and permutation only
        # through rng.permuted, so a stand-in exposing one of them shows
        # which branch a shape takes.
        rejection = [(6, 2), (7, 1), (8, 3), (1, 1), (1000, 32),
                     (50_000, 64), (2000, 64), (100, 16)]
        permutation = [(5, 3), (3, 3), (5, 4), (6, 5), (4, 4), (200, 32),
                       (2000, 128), (50_000, 1000)]
        rng = make_stream(3)
        for shapes, method in ((rejection, "integers"),
                               (permutation, "permuted")):
            only = types.SimpleNamespace(**{method: getattr(rng, method)})
            for n, b in shapes:
                assert _subset_rows(only, n, b, 2).shape == (2, b)

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_draw_returns_a_block_of_batches(self, kind):
        n, b = 23, 5
        draw = make_sampler(kind, n, b, make_stream(4))
        for k in (0, 1, 9, 40):
            block = draw(k)
            assert block.dtype == np.int64
            assert block.shape == (k, b)
            assert ((block >= 0) & (block < n)).all()
            if kind != "srs":
                assert all(len(set(row)) == b for row in block.tolist())

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=24), st.data())
    def test_block_draws_keep_the_multiplicity_identity(self, n, data):
        b = data.draw(st.integers(min_value=1, max_value=n))
        blocks = data.draw(st.lists(st.integers(min_value=0, max_value=30),
                                    max_size=5))
        seed = data.draw(st.integers(min_value=0, max_value=2**32))
        state = init_srs(n, b)
        rng = make_stream(seed)
        drawn = np.zeros(n, dtype=np.int64)
        for k in blocks:
            drawn += np.bincount(draw_srs(state, rng, k).ravel(), minlength=n)
            refills = [refill_count(i, state.draws_completed, n, b)
                       for i in range(n)]
            assert np.array_equal(np.bincount(state.slots, minlength=n),
                                  1 + np.array(refills) - drawn)
        assert state.draws_completed == sum(blocks)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=24), st.data())
    def test_block_draws_match_a_row_by_row_replay(self, n, data):
        b = data.draw(st.integers(min_value=1, max_value=n))
        blocks = data.draw(st.lists(st.integers(min_value=0, max_value=30),
                                    max_size=5))
        assert_matches_replay(n, b, data.draw(st.integers(0, 2**32)), blocks)

    # A chunk is dense once it writes more than DENSE_PER_SLOT = 4 entries
    # per pool slot.  (1000, 32, [2000]): two dense chunks of 1024 and 976
    # rows.  (23, 4, [23]) and (1000, 32, [125]) write exactly 4n entries
    # and stay on the row loop; (23, 4, [24]) and (1000, 32, [126]) are
    # dense.  (1024, 32) and (1023, 32) end a dense chunk of 1024 rows with
    # a sparse one of 32; (24, 4) and (23, 4) with 6 rows are sparse.
    # (70000, 16): sparse chunks of 2048 rows, positions beyond uint16.
    @pytest.mark.parametrize("n, b, blocks", [
        (1000, 32, [2000]), (24, 4, [6]), (23, 4, [6]), (1024, 32, [1056]),
        (1023, 32, [1056]), (70_000, 16, [3000]), (23, 4, [23]),
        (23, 4, [24]), (1000, 32, [125]), (1000, 32, [126])])
    def test_fixed_blocks_match_a_row_by_row_replay(self, n, b, blocks):
        assert_matches_replay(n, b, 17, blocks)

    def test_redraw_rounds_stay_within_a_chunk(self):
        # (1000, 72) takes rejection with p = 0.073, so about 420 of a
        # chunk's 455 rows fail the first round; refilling them all at
        # once would draw ceil(420 / p) rows, about 417k entries.  The
        # stand-in exposes only `integers`, so the rows come from the
        # rejection branch (see test_branch_rule).
        n, b = 1000, 72
        assert 0.07 < _distinct_probability(n, b) < 0.075
        rng = types.SimpleNamespace(integers=make_stream(9).integers)
        tracemalloc.start()
        try:
            rows = _subset_rows(rng, n, b, 2 * (BLOCK_ELEMENTS // b))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(len(set(row)) == b for row in rows.tolist())
        assert peak - rows.nbytes < 8 * BLOCK_ELEMENTS * 8

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_large_block_memory_is_bounded(self, kind):
        # A permutation per row held at once would take k*N*8 = 76 MiB.
        n, b, k = 50_000, 1_000, 200
        draw = make_sampler(kind, n, b, make_stream(8))
        tracemalloc.start()
        try:
            block = draw(k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block.shape == (k, b)
        assert peak < 8 * 2**20
