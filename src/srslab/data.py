"""Synthetic gaussian-blob classification tasks.

The images-per-class knob is the interesting one: it controls how thin
the training split is relative to the number of classes, which is the
regime where the choice of mini-batch sampler is expected to matter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import DATA_STREAM, LABEL_STREAM, make_stream


@dataclass
class SyntheticDataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def check_blob_params(classes: int, ipc_train: int, ipc_test: int, dim: int,
                      sigma_means: float, sigma_noise: float,
                      label_noise: float) -> None:
    """Raise ValueError unless every size is >= 1, both scales are > 0
    and label_noise is in [0, 1), and 0 if there is one class."""
    for key, size in (("classes", classes), ("ipc_train", ipc_train),
                      ("ipc_test", ipc_test), ("dim", dim)):
        if size < 1:
            raise ValueError(f"{key} must be >= 1, got {size}")
    for key, scale in (("sigma_means", sigma_means),
                       ("sigma_noise", sigma_noise)):
        if scale <= 0:
            raise ValueError(f"{key} must be > 0, got {scale}")
    if not 0.0 <= label_noise < 1.0:
        raise ValueError(f"label_noise must be in [0, 1), got {label_noise}")
    if label_noise and classes == 1:
        raise ValueError("label_noise must be 0 with one class: no other "
                         "class to flip a label to")


def gen_blobs(classes: int, ipc_train: int, ipc_test: int, dim: int,
              sigma_means: float, sigma_noise: float,
              seed: int, label_noise: float = 0.0) -> SyntheticDataset:
    """Isotropic blobs: one class mean drawn with scale sigma_means, then
    ipc_train / ipc_test points per class with scale sigma_noise around it,
    each split drawn as noise that its class means are added to in place.

    Deterministic per seed; labels come in class-major blocks with exactly
    ipc points per class in each split.  With label_noise p > 0, each
    train label is then, with probability p, replaced by one of the other
    classes drawn uniformly, from the seed's LABEL_STREAM, so every other
    byte is the same as at p = 0.  Raises ValueError if a drawn point is
    not finite.
    """
    check_blob_params(classes, ipc_train, ipc_test, dim, sigma_means,
                      sigma_noise, label_noise)
    rng = make_stream(seed, DATA_STREAM)
    means = rng.normal(0.0, sigma_means, size=(classes, dim))
    splits = []
    for ipc in (ipc_train, ipc_test):
        x = rng.normal(0.0, sigma_noise, size=(classes, ipc, dim))
        with np.errstate(over="ignore", invalid="ignore"):
            x += means[:, None]
        if not np.isfinite(x).all():
            raise ValueError(f"sigma_means {sigma_means} and sigma_noise "
                             f"{sigma_noise} draw points that are not finite")
        splits += [x.reshape(-1, dim), np.repeat(np.arange(classes), ipc)]
    if label_noise:
        y, rng = splits[1], make_stream(seed, LABEL_STREAM)
        flip = rng.random(y.size) < label_noise
        y[flip] += rng.integers(1, classes, size=np.count_nonzero(flip))
        y %= classes
    return SyntheticDataset(*splits)
