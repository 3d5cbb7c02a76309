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
