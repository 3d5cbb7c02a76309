import numpy as np
import pytest

from srslab.cli import coverage_table
from srslab.csvio import format_cell
from srslab.coverage import (STATS, expected_untouched_replacement,
                             simulate_coverage, visit_stats)


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


class TestVisitStats:
    def test_fields_are_consistent(self):
        stats = visit_stats(np.array([3, 0, 1, 0]), iterations=2,
                            batch_size=2)
        assert stats.min_count == 0
        assert stats.max_count == 3
        assert stats.mean_count == 1.0
        assert stats.untouched_fraction == 0.5

    def test_perfectly_uniform_counts_give_zero(self):
        stats = visit_stats(np.full(10, 6), iterations=12, batch_size=5)
        assert stats.chi_square == 0.0

    def test_hand_computed_two_cell_case(self):
        stats = visit_stats(np.array([2, 0]), iterations=1, batch_size=2)
        assert stats.chi_square == 2.0  # e=1, (2-1)^2 + (0-1)^2

    def test_rejects_inconsistent_counts(self):
        with pytest.raises(ValueError):
            visit_stats(np.array([1, 1]), iterations=2, batch_size=2)
        # A zero-draw run is checked too: its counts must all be zero.
        with pytest.raises(ValueError):
            visit_stats(np.array([1, 0]), iterations=0, batch_size=2)

    def test_zero_draw_run_is_degenerate_not_an_error(self):
        stats = visit_stats(np.zeros(5, dtype=np.int64), iterations=0,
                            batch_size=3)
        assert stats.chi_square == 0.0
        assert stats.untouched_fraction == 1.0
