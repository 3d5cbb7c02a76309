import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srslab.coverage
from srslab.cli import coverage_table
from srslab.coverage import (STATS, ReplicaReport,
                             expected_untouched_replacement,
                             simulate_coverage, visit_stats)
from srslab.csvio import format_cell, to_string
from srslab.rng import make_stream
from srslab.samplers import BLOCK_ELEMENTS, make_sampler, refill_count


class TestExpectedUntouched:
    def test_zero_iterations(self):
        assert expected_untouched_replacement(10, 2, 0) == 1.0

    def test_hundred_ten_ten(self):
        assert expected_untouched_replacement(100, 10, 10) == pytest.approx(
            0.34867844, abs=1e-8)

    def test_full_batch_covers_everything(self):
        assert expected_untouched_replacement(7, 7, 1) == 0.0
        assert expected_untouched_replacement(7, 7, 3) == 0.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            expected_untouched_replacement(5, 6, 1)
        with pytest.raises(ValueError):
            expected_untouched_replacement(5, 2, -1)


class TestSimulateCoverage:
    @pytest.mark.parametrize("kind", ["srs", "epoch", "replacement"])
    def test_zero_iterations_touch_nothing(self, kind):
        report = simulate_coverage(kind, 20, 4, 0, seed=0, replicas=3)
        for stats in report.per_replica:
            assert stats.untouched_fraction == 1.0
            assert stats.min_count == stats.max_count == 0
        assert report.median_untouched_fraction == 1.0

    def test_epoch_shuffle_one_pass_touches_everything_once(self):
        report = simulate_coverage("epoch", 100, 10, 10, seed=1, replicas=5)
        for stats in report.per_replica:
            assert stats.untouched_fraction == 0.0
            assert stats.min_count == stats.max_count == 1

    @pytest.mark.parametrize("n, b", [(10, 3), (23, 5), (100, 10),
                                      (1000, 32)])
    def test_shuffle_once_never_draws_the_remainder(self, n, b):
        # For every T of one epoch or more, exactly the N mod B samples
        # past the dealt prefix stay untouched, in every replica.
        per_epoch = n // b
        for t in (per_epoch, per_epoch + 1, 3 * per_epoch + 2):
            report = simulate_coverage("once", n, b, t, seed=5, replicas=4)
            for stats in report.per_replica:
                assert np.count_nonzero(stats.draw_counts == 0) == n % b
                assert stats.untouched_fraction == (n % b) / n

    def test_count_conservation(self):
        for kind in ("srs", "epoch", "replacement"):
            report = simulate_coverage(kind, 50, 8, 17, seed=3, replicas=4)
            for stats in report.per_replica:
                assert stats.draw_counts.sum() == 17 * 8

    def test_replacement_matches_analytic_probability(self):
        report = simulate_coverage("replacement", 100, 10, 10, seed=7,
                                   replicas=200)
        expected = expected_untouched_replacement(100, 10, 10)
        assert report.median_untouched_fraction == pytest.approx(
            expected, abs=0.01)

    def test_bitwise_reproducible(self):
        a = simulate_coverage("srs", 64, 8, 40, seed=11, replicas=6)
        b = simulate_coverage("srs", 64, 8, 40, seed=11, replicas=6)
        for sa, sb in zip(a.per_replica, b.per_replica):
            assert np.array_equal(sa.draw_counts, sb.draw_counts)
            assert sa.chi_square == sb.chi_square
            assert sa.untouched_fraction == sb.untouched_fraction
        assert a.median("chi_square") == b.median("chi_square")

    def test_medians_lie_within_replica_ranges(self):
        report = simulate_coverage("replacement", 60, 6, 15, seed=5,
                                   replicas=9)
        untouched = [s.untouched_fraction for s in report.per_replica]
        chis = [s.chi_square for s in report.per_replica]
        mins = [s.min_count for s in report.per_replica]
        assert min(untouched) <= report.median_untouched_fraction <= max(untouched)
        assert min(chis) <= report.median("chi_square") <= max(chis)
        assert min(mins) <= report.median("min_count") <= max(mins)

    def test_count_medians_match_numpy_median(self):
        # an even replica count, so the median averages two middle values
        report = simulate_coverage("srs", 60, 6, 15, seed=5, replicas=8)
        per = report.per_replica
        medians = [np.median([getattr(s, stat) for s in per])
                   for stat in STATS]
        assert [report.median(stat) for stat in STATS] == medians
        assert coverage_table(report).rows[-1] == [
            "median", "15", *(format_cell(m) for m in medians)]

    def test_one_visit_stats_call_per_report(self, monkeypatch):
        shapes = []

        def spy(counts, iterations, batch_size):
            shapes.append(counts.shape)
            return visit_stats(counts, iterations, batch_size)

        monkeypatch.setattr(srslab.coverage, "visit_stats", spy)
        report = simulate_coverage("srs", 30, 4, 9, seed=2, replicas=5)
        assert shapes == [(5, 30)]
        assert len(report.per_replica) == 5

    @pytest.mark.parametrize("kind", ["srs", "epoch", "replacement", "once"])
    def test_counts_are_int8_at_the_c5_shape(self, kind):
        report = simulate_coverage(kind, 1000, 32, 31, seed=0, replicas=3)
        assert [s.draw_counts.dtype for s in report.per_replica] == [
            np.int8] * 3

    @pytest.mark.parametrize("kind, iterations, dtype", [
        *((kind, t, dtype) for kind in ("epoch", "once", "replacement")
          for t, dtype in ((127, np.int8), (128, np.int16),
                           (32767, np.int16), (32768, np.int32))),
        ("srs", 126, np.int8), ("srs", 127, np.int16)])
    def test_counts_fit_at_the_edges_where_every_index_is_drawn(
            self, kind, iterations, dtype):
        # At N = B every batch draws every index, so every count is T, the
        # most a kind without repeats can reach; srs is bounded by 1 + T.
        n, seed, replicas = 3, 4, 2
        report = simulate_coverage(kind, n, n, iterations, seed, replicas)
        block = BLOCK_ELEMENTS // n
        for r, stats in enumerate(report.per_replica):
            draw = make_sampler(kind, n, n, make_stream(seed, r))
            recount = sum(np.bincount(draw(min(block, iterations - done))
                                      .ravel(), minlength=n)
                          for done in range(0, iterations, block))
            assert stats.draw_counts.dtype == dtype
            assert recount.dtype == np.int64
            assert np.array_equal(stats.draw_counts, recount)
            assert stats.min_count == stats.max_count == iterations

    @staticmethod
    def assert_srs_counts_within_the_refills(n, b, t, seed):
        """Each count is at most 1 + its refills, in the narrowest type
        that holds the largest of those bounds."""
        report = simulate_coverage("srs", n, b, t, seed, replicas=2)
        bound = [1 + refill_count(i, t, n, b) for i in range(n)]
        dtype = next(d for d in (np.int8, np.int16, np.int32)
                     if max(bound) <= np.iinfo(d).max)
        for stats in report.per_replica:
            assert stats.draw_counts.dtype == dtype
            assert (stats.draw_counts <= bound).all()
        return report

    def test_srs_counts_reach_one_plus_the_refills(self):
        # A draw reads distinct slots, so each copy of an index is drawn
        # at most once; at this shape some count reaches the bound.
        n, b, t = 1000, 32, 31250
        report = self.assert_srs_counts_within_the_refills(n, b, t, seed=0)
        assert max(s.max_count for s in report.per_replica) == 1 + t * b // n

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), b_share=st.floats(0, 1),
           t=st.integers(0, 300), seed=st.integers(0, 2**32))
    def test_srs_counts_stay_within_the_refills(self, n, b_share, t, seed):
        b = 1 + round(b_share * (n - 1))
        self.assert_srs_counts_within_the_refills(n, b, t, seed)

    def test_srs_counts_take_one_byte_per_sample(self, monkeypatch):
        # The (R, N) matrix was int32 before: 4*R*N bytes on its own.
        replicas, n = 64, 50_000
        nbytes = []

        def spy(counts, iterations, batch_size):
            nbytes.append(counts.nbytes)
            return visit_stats(counts, iterations, batch_size)

        monkeypatch.setattr(srslab.coverage, "visit_stats", spy)
        tracemalloc.start()
        try:
            simulate_coverage("srs", n, 64, 781, seed=3, replicas=replicas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nbytes == [replicas * n]
        assert peak < 2 * replicas * n

    @pytest.mark.parametrize("total, dtype", [(2**31 - 1, np.int32),
                                              (2**31, np.int64)])
    def test_counts_are_int64_once_t_times_b_passes_int32(
            self, monkeypatch, total, dtype):
        # A sampler that draws nothing, so the allocation is checked
        # without drawing 2**31 samples.
        dtypes = []
        nothing = np.empty((0, 1), dtype=np.int64)
        monkeypatch.setattr(srslab.coverage, "make_sampler",
                            lambda kind, n, b, rng: lambda k: nothing)
        monkeypatch.setattr(srslab.coverage, "visit_stats",
                            lambda counts, t, b: dtypes.append(counts.dtype))
        simulate_coverage("epoch", 1, 1, total, seed=0)
        assert dtypes == [dtype]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate_coverage("srs", 10, 2, -1, seed=0)
        with pytest.raises(ValueError):
            simulate_coverage("srs", 10, 2, 5, seed=0, replicas=0)
        with pytest.raises(ValueError):
            simulate_coverage("srs", 2, 10, 5, seed=0)
        for kind in ("srs", "replacement", "epoch"):
            with pytest.raises(ValueError, match="batch_size must be >= 1"):
                simulate_coverage(kind, 10, 0, 5, seed=0)

    def test_directional_claim_srs_beats_replacement(self):
        n, b = 1000, 32
        t = n // b
        srs = simulate_coverage("srs", n, b, t, seed=0, replicas=100)
        rep = simulate_coverage("replacement", n, b, t, seed=0, replicas=100)
        epoch = simulate_coverage("epoch", n, b, t, seed=0, replicas=100)
        assert srs.median_untouched_fraction < rep.median_untouched_fraction
        for stats in epoch.per_replica:
            assert stats.untouched_fraction == (n % b) / n


class TestAnalyticAgreementGrid:
    @pytest.mark.parametrize("n", [100, 1000])
    @pytest.mark.parametrize("b", [1, 10, 32])
    @pytest.mark.parametrize("mult", [1, 2])
    def test_median_tracks_closed_form(self, n, b, mult):
        iterations = mult * (n // b)
        report = simulate_coverage("replacement", n, b, iterations,
                                   seed=1234, replicas=200)
        expected = expected_untouched_replacement(n, b, iterations)
        assert report.median_untouched_fraction == pytest.approx(
            expected, abs=0.01)


def reference_stats(counts, iterations, batch_size):
    """One row's summaries by the 1-D formulas: (min, max, mean,
    untouched fraction, chi-square)."""
    total = iterations * batch_size
    expected = total / counts.size
    chi = float(((counts - expected) ** 2 / expected).sum()) if total else 0.0
    return (int(counts.min()), int(counts.max()), float(counts.mean()),
            float((counts == 0).sum() / counts.size), chi)


class TestVisitStats:
    def test_fields_are_consistent(self):
        stats = visit_stats(np.array([[3, 0, 1, 0]]), iterations=2,
                            batch_size=2)[0]
        assert stats.min_count == 0
        assert stats.max_count == 3
        assert stats.mean_count == 1.0
        assert stats.untouched_fraction == 0.5

    def test_perfectly_uniform_counts_give_zero(self):
        stats = visit_stats(np.full((1, 10), 6), iterations=12,
                            batch_size=5)[0]
        assert stats.chi_square == 0.0

    def test_hand_computed_two_cell_case(self):
        stats = visit_stats(np.array([[2, 0]]), iterations=1,
                            batch_size=2)[0]
        assert stats.chi_square == 2.0  # e=1, (2-1)^2 + (0-1)^2

    def test_rejects_inconsistent_counts(self):
        with pytest.raises(ValueError):
            visit_stats(np.array([[1, 1]]), iterations=2, batch_size=2)
        # A zero-draw run is checked too: its counts must all be zero.
        with pytest.raises(ValueError):
            visit_stats(np.array([[1, 0]]), iterations=0, batch_size=2)

    def test_zero_draw_run_is_degenerate_not_an_error(self):
        stats = visit_stats(np.zeros((1, 5), dtype=np.int64), iterations=0,
                            batch_size=3)[0]
        assert stats.chi_square == 0.0
        assert stats.untouched_fraction == 1.0

    @pytest.mark.parametrize("replicas, n, b, t", [(200, 1000, 32, 31),
                                                   (8, 50000, 64, 781)])
    def test_rows_match_the_one_dimensional_formulas(self, replicas, n, b,
                                                     t):
        rng = np.random.default_rng(n)
        counts = np.stack([np.bincount(rng.integers(0, n, t * b),
                                       minlength=n)
                           for _ in range(replicas)])
        stats = visit_stats(counts, t, b)
        assert len(stats) == replicas
        for row, s in zip(counts, stats):
            assert np.array_equal(s.draw_counts, row)
            assert repr(tuple(getattr(s, stat) for stat in STATS)) == repr(
                reference_stats(row, t, b))

    def test_sum_error_names_the_first_bad_row(self):
        counts = np.array([[2, 1, 1], [3, 0, 0], [0, 2, 2]])
        with pytest.raises(ValueError,
                           match=r"^draw counts of row 1 sum to 3, "
                                 r"expected 4$"):
            visit_stats(counts, iterations=2, batch_size=2)

    def test_zero_draw_matrix_is_untouched_on_every_row(self):
        stats = visit_stats(np.zeros((4, 7), dtype=np.int64), iterations=0,
                            batch_size=3)
        assert [(s.chi_square, s.untouched_fraction) for s in stats] == [
            (0.0, 1.0)] * 4

    @pytest.mark.parametrize("counts", [[[1.5, 1.5]],
                                        np.array([[2.9, -0.9]])])
    def test_rejects_non_integer_counts(self, counts):
        with pytest.raises(ValueError, match=r"^draw counts must be "
                                             r"integers, got float64$"):
            visit_stats(counts, iterations=1, batch_size=2)

    @pytest.mark.parametrize("shape", [(5,), (3, 0)])
    def test_rejects_counts_that_are_not_an_r_by_n_matrix(self, shape):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"draw counts must be an (R, N) matrix with N >= 1, "
                f"got shape {shape}") + "$"):
            visit_stats(np.zeros(shape, dtype=np.int64), iterations=0,
                        batch_size=1)

    def test_untouched_fractions_take_no_r_by_n_temporary(self):
        # A bool (counts == 0) matrix alone would take R*N bytes.
        replicas, n = 64, 50_000
        counts = np.zeros((replicas, n), dtype=np.int32)
        counts[:, ::2] = 2
        tracemalloc.start()
        try:
            stats = visit_stats(counts, iterations=1, batch_size=n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [s.untouched_fraction for s in stats] == [0.5] * replicas
        assert peak < replicas * n / 2

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError,
                           match=r"^draw counts of row 0 include -1, "
                                 r"expected counts >= 0$"):
            visit_stats(np.array([[3, -1]]), iterations=1, batch_size=2)
        with pytest.raises(ValueError, match=r"^draw counts of row 1 "):
            visit_stats(np.array([[1, 1], [3, -1], [-2, 4]]), iterations=1,
                        batch_size=2)

    def test_int32_rows_are_views_into_the_matrix(self):
        counts = np.array([[3, 0, 1, 0], [1, 1, 1, 1]], dtype=np.int32)
        for stats in visit_stats(counts, iterations=2, batch_size=2):
            assert stats.draw_counts.dtype == np.int32
            assert np.shares_memory(stats.draw_counts, counts)

    @pytest.mark.parametrize("replicas, n, b, t", [(200, 1000, 32, 31),
                                                   (3, 7, 7, 5),
                                                   (2, 10, 3, 0)])
    def test_int32_and_int64_counts_give_the_same_report(self, replicas, n,
                                                         b, t):
        rng = np.random.default_rng(n)
        counts = np.stack([np.bincount(rng.integers(0, n, t * b),
                                       minlength=n)
                           for _ in range(replicas)])
        # and int8 and int16, the other widths simulate_coverage counts in
        wide = visit_stats(counts.astype(np.int64), t, b)
        for dtype in (np.int8, np.int16, np.int32):
            narrow = visit_stats(counts.astype(dtype), t, b)
            for w, s in zip(wide, narrow, strict=True):
                assert s.draw_counts.dtype == dtype
                assert np.array_equal(w.draw_counts, s.draw_counts)
                assert repr(tuple(getattr(w, stat) for stat in STATS)) == (
                    repr(tuple(getattr(s, stat) for stat in STATS)))
            assert to_string(coverage_table(ReplicaReport(t, wide))) == (
                to_string(coverage_table(ReplicaReport(t, narrow))))
