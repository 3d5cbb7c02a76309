import hashlib
import math
import re

import numpy as np
import pytest

from srslab.data import gen_blobs


def nearest_mean_accuracy(data) -> float:
    """Independent separability check: classify by nearest class mean
    estimated from the training split."""
    means = np.stack([data.train_x[data.train_y == c].mean(axis=0)
                      for c in np.unique(data.train_y)])
    d2 = ((data.train_x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return float((d2.argmin(axis=1) == data.train_y).mean())


class TestGenBlobs:
    def test_well_separated_blobs_are_linearly_separable(self):
        data = gen_blobs(2, 10, 5, 2, sigma_means=10.0, sigma_noise=0.1,
                         seed=0)
        assert nearest_mean_accuracy(data) == 1.0

    def test_labels_partition_evenly(self):
        data = gen_blobs(7, 13, 4, 3, 1.0, 1.0, seed=5)
        assert np.bincount(data.train_y, minlength=7).tolist() == [13] * 7
        assert np.bincount(data.test_y, minlength=7).tolist() == [4] * 7
        assert data.train_x.shape == (91, 3)
        assert data.test_x.shape == (28, 3)

    def test_same_seed_is_bit_identical(self):
        a = gen_blobs(3, 6, 2, 4, 2.0, 0.5, seed=42)
        b = gen_blobs(3, 6, 2, 4, 2.0, 0.5, seed=42)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.test_x, b.test_x)
        assert np.array_equal(a.train_y, b.train_y)

    def test_different_seeds_differ(self):
        a = gen_blobs(3, 6, 2, 4, 2.0, 0.5, seed=1)
        b = gen_blobs(3, 6, 2, 4, 2.0, 0.5, seed=2)
        assert not np.array_equal(a.train_x, b.train_x)

    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError):
            gen_blobs(0, 5, 5, 2, 1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            gen_blobs(2, 0, 5, 2, 1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            gen_blobs(2, 5, 5, 2, 0.0, 1.0, seed=0)

    def test_rejects_label_noise_outside_unit_interval_or_one_class(self):
        for noise in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="^label_noise must be in"):
                gen_blobs(2, 5, 5, 2, 1.0, 1.0, seed=0, label_noise=noise)
        with pytest.raises(ValueError, match="one class"):
            gen_blobs(1, 5, 5, 2, 1.0, 1.0, seed=0, label_noise=0.5)
        gen_blobs(1, 5, 5, 2, 1.0, 1.0, seed=0, label_noise=0.0)

    @pytest.mark.parametrize("sigma_means, sigma_noise",
                             [(1e308, 1.0), (1.0, 1e308), (1e308, 1e308)])
    def test_points_that_are_not_finite_name_both_scales(self, sigma_means,
                                                         sigma_noise):
        with pytest.raises(ValueError, match=re.escape(
                f"sigma_means {sigma_means} and sigma_noise {sigma_noise} "
                "draw points that are not finite")):
            gen_blobs(10, 50, 20, 16, sigma_means, sigma_noise, seed=0)

    @pytest.mark.parametrize("label_noise", [None, 0.0])
    def test_bytes_are_pinned(self, label_noise):
        # sha256 taken when each split was still built as a repeated copy
        # of the class means plus a separate noise array
        extra = {} if label_noise is None else {"label_noise": label_noise}
        data = gen_blobs(10, 20, 30, 16, 3.0, 1.0, seed=7, **extra)
        digest = hashlib.sha256(b"".join(
            a.tobytes() for a in (data.train_x, data.train_y, data.test_x,
                                  data.test_y))).hexdigest()
        assert digest == ("447f0925d82b5d5ac561cc0ae9185eb8"
                          "26c178f757588f778b1f512dcca9f839")

    @pytest.mark.parametrize("label_noise", [0.05, 0.3, 0.9])
    def test_label_noise_flips_that_fraction_to_other_classes(self,
                                                             label_noise):
        classes = 10
        clean = gen_blobs(classes, 1000, 20, 3, 1.0, 1.0, seed=3)
        noisy = gen_blobs(classes, 1000, 20, 3, 1.0, 1.0, seed=3,
                          label_noise=label_noise)
        for name in ("train_x", "test_x", "test_y"):
            assert np.array_equal(getattr(noisy, name), getattr(clean, name))
        flipped = noisy.train_y != clean.train_y
        # every label is flipped, to another class, with probability
        # label_noise, so the count is Binomial(n, label_noise): 5 sd
        n, p = flipped.size, label_noise
        assert abs(np.count_nonzero(flipped) - n * p) < 5 * math.sqrt(
            n * p * (1 - p))
        # each of the other classes is as likely: Binomial(k, 1/9) each
        shifts = (noisy.train_y - clean.train_y)[flipped] % classes
        counts = np.bincount(shifts, minlength=classes)
        k = counts.sum()
        assert counts[0] == 0
        assert np.all(np.abs(counts[1:] - k / 9) < 5 * math.sqrt(
            k / 9 * 8 / 9))
