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
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def check_blob_params(classes: int, ipc_train: int, ipc_test: int, dim: int,
                      sigma_means: float, sigma_noise: float) -> None:
    """Raise ValueError unless every size is >= 1 and both scales are > 0."""
    for key, size in (("classes", classes), ("ipc_train", ipc_train),
                      ("ipc_test", ipc_test), ("dim", dim)):
        if size < 1:
            raise ValueError(f"{key} must be >= 1, got {size}")
    for key, scale in (("sigma_means", sigma_means),
                       ("sigma_noise", sigma_noise)):
        if scale <= 0:
            raise ValueError(f"{key} must be > 0, got {scale}")


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
    splits = []
    for ipc in (ipc_train, ipc_test):
        splits += [np.repeat(means, ipc, axis=0) + rng.normal(
            0.0, sigma_noise, size=(classes * ipc, dim)),
            np.repeat(np.arange(classes), ipc)]
    return SyntheticDataset(*splits)
