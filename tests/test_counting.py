import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srslab.counting import (CountParams, binomial, config_ratio,
                             configs_one_epoch, configs_with, configs_without)


def binomial_by_factorial(n: int, k: int) -> int:
    return math.factorial(n) // (math.factorial(k) * math.factorial(n - k))


def pascal_triangle(rows: int) -> list[list[int]]:
    tri = [[1]]
    for n in range(1, rows + 1):
        prev = tri[-1]
        tri.append([1] + [prev[i - 1] + prev[i] for i in range(1, n)] + [1])
    return tri


class TestBinomial:
    def test_small_value_against_factorial_oracle(self):
        assert binomial(5, 2) == binomial_by_factorial(5, 2) == 10

    def test_empty_selection(self):
        assert binomial(7, 0) == 1
        assert binomial(7, 7) == 1

    def test_central_value_against_pascal_oracle(self):
        tri = pascal_triangle(52)
        assert tri[52][26] == 495918532948104
        assert binomial(52, 26) == 495918532948104

    def test_full_grid_against_factorial_oracle(self):
        for n in range(0, 40):
            for k in range(0, n + 1):
                assert binomial(n, k) == binomial_by_factorial(n, k)

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            binomial(3, 4)

    def test_rejects_negatives(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(3, -1)

    @given(st.integers(min_value=1, max_value=64), st.data())
    def test_pascal_identity(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n - 1)) if n > 1 else 0
        if n == 1:
            return
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    def test_huge_arguments_match_independent_path(self):
        # second big-integer path: math.comb
        assert binomial(50000, 64) == math.comb(50000, 64)
        assert binomial(100000, 1000) == math.comb(100000, 1000)


class TestConfigCounts:
    def test_one_epoch_four_two(self):
        assert configs_one_epoch(CountParams(4, 2)) == 7  # C(4,2)+C(2,2)

    def test_one_epoch_single_batch(self):
        assert configs_one_epoch(CountParams(9, 9)) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=400), st.data())
    def test_one_epoch_matches_the_binomial_sum(self, n, data):
        # B = 1, B = N and N mod B != 0 all fall in this range.
        b = data.draw(st.integers(min_value=1, max_value=n))
        assert configs_one_epoch(CountParams(n, b)) == sum(
            math.comb(n - k * b, b) for k in range(n // b))

    def test_one_epoch_matches_the_binomial_sum_at_large_n(self):
        n, b = 100_000, 1_000
        assert configs_one_epoch(CountParams(n, b)) == sum(
            math.comb(n - k * b, b) for k in range(n // b))

    def test_difference_sum_matches_the_direct_sum(self):
        # Every shape with n_B >= 4(B + 1) below 60 takes the forward
        # differences; the rest take the direct sum.  The large shapes put
        # (50000, 64) and (123457, 13) on the first side, (10^6, 1000) on
        # the second.
        shapes = [(n, b) for n in range(1, 60) for b in range(1, n + 1)]
        for n, b in shapes + [(50_000, 64), (10**6, 1000), (123_457, 13)]:
            assert configs_one_epoch(CountParams(n, b)) == sum(
                math.perm(n - k * b, b)
                for k in range(n // b)) // math.factorial(b), (n, b)

    def test_without_single_epoch_is_one_epoch(self):
        p = CountParams(11, 3, epochs=1)
        assert configs_without(p) == configs_one_epoch(p)

    def test_without_five_two_two(self):
        assert configs_without(CountParams(5, 2, epochs=2)) == 26

    def test_with_equal_sizes_counts_epochs(self):
        for n_e in (1, 2, 5):
            assert configs_with(CountParams(6, 6, epochs=n_e)) == n_e

    def test_with_five_two_one(self):
        assert configs_with(CountParams(5, 2, epochs=1)) == 20

    def test_gap_grows_with_batches_per_epoch(self):
        b = 3
        gaps = []
        for n_b in range(1, 8):
            p = CountParams(b * n_b, b)
            gaps.append(configs_with(p) - configs_without(p))
        assert gaps[0] == 0
        assert all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            CountParams(3, 4)
        with pytest.raises(ValueError):
            CountParams(3, 0)
        with pytest.raises(ValueError):
            CountParams(3, 2, epochs=0)


class TestConfigRatio:
    def test_k_zero_is_one(self):
        assert config_ratio(9, 3, 0) == Fraction(1)

    def test_five_two_one(self):
        assert config_ratio(5, 2, 1) == Fraction(10, 3)

    def test_strictly_increasing_in_k(self):
        ratios = [config_ratio(10, 2, k) for k in range(4)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert all(r > 1 for r in ratios[1:])

    def test_reduced_form(self):
        r = config_ratio(6, 2, 1)  # C(6,2)/C(4,2) = 15/6 = 5/2
        assert (r.numerator, r.denominator) == (5, 2)

    def test_rejects_k_out_of_range(self):
        with pytest.raises(ValueError):
            config_ratio(10, 2, 5)
        with pytest.raises(ValueError):
            config_ratio(10, 2, -1)

    @settings(max_examples=60)
    @given(st.integers(min_value=2, max_value=60), st.data())
    def test_matches_direct_binomial_quotient(self, n, data):
        b = data.draw(st.integers(min_value=1, max_value=max(1, n // 2)))
        n_b = n // b
        k = data.draw(st.integers(min_value=0, max_value=n_b - 1))
        expected = Fraction(binomial_by_factorial(n, b),
                            binomial_by_factorial(n - k * b, b))
        assert config_ratio(n, b, k) == expected
