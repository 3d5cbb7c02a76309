"""Synthetic gaussian-blob classification tasks.

The images-per-class knob is the interesting one: it controls how thin
the training split is relative to the number of classes, which is the
regime where the choice of mini-batch sampler is expected to matter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import make_stream


@dataclass
class SyntheticDataset:
    classes: int
    dim: int
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def check_blob_params(classes: int, ipc_train: int, ipc_test: int, dim: int,
                      sigma_means: float, sigma_noise: float) -> None:
    """Raise ValueError unless every size is >= 1 and both scales are > 0."""
    if min(classes, ipc_train, ipc_test, dim) < 1:
        raise ValueError(
            "classes, ipc_train, ipc_test and dim must all be >= 1"
        )
    if sigma_means <= 0 or sigma_noise <= 0:
        raise ValueError("sigma_means and sigma_noise must be > 0")


def gen_blobs(classes: int, ipc_train: int, ipc_test: int, dim: int,
              sigma_means: float, sigma_noise: float,
              seed: int) -> SyntheticDataset:
    """Isotropic blobs: one class mean drawn with scale sigma_means, then
    ipc_train / ipc_test points per class with scale sigma_noise around it.

    Deterministic per seed; labels come in class-major blocks with exactly
    ipc points per class in each split.
    """
    check_blob_params(classes, ipc_train, ipc_test, dim, sigma_means,
                      sigma_noise)
    rng = make_stream(seed)
    means = rng.normal(0.0, sigma_means, size=(classes, dim))
    train_x = np.repeat(means, ipc_train, axis=0) + rng.normal(
        0.0, sigma_noise, size=(classes * ipc_train, dim)
    )
    train_y = np.repeat(np.arange(classes), ipc_train)
    test_x = np.repeat(means, ipc_test, axis=0) + rng.normal(
        0.0, sigma_noise, size=(classes * ipc_test, dim)
    )
    test_y = np.repeat(np.arange(classes), ipc_test)
    return SyntheticDataset(classes, dim, train_x, train_y, test_x, test_y)
