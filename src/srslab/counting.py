"""Exact counts of accessible mini-batch configurations.

Everything here is arbitrary-precision integer or rational arithmetic;
no value is ever rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def binomial(n: int, k: int) -> int:
    """C(n, k), exact at any size.  Unlike `math.comb`, k > n is an error,
    not 0."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial needs n, k >= 0, got n={n}, k={k}")
    if k > n:
        raise ValueError(f"binomial needs k <= n, got n={n}, k={k}")
    return math.comb(n, k)


@dataclass(frozen=True)
class CountParams:
    """Problem size for the configuration counts.

    `batches_per_epoch` is floor(dataset_size / batch_size): trailing
    samples that cannot fill a batch are dropped from the epoch.
    """

    dataset_size: int
    batch_size: int
    epochs: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.batch_size <= self.dataset_size:
            raise ValueError(
                f"need 1 <= batch_size <= dataset_size, got "
                f"B={self.batch_size}, N={self.dataset_size}"
            )
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")

    @property
    def batches_per_epoch(self) -> int:
        return self.dataset_size // self.batch_size


def configs_one_epoch(params: CountParams) -> int:
    """Distinct batch compositions reachable across the positions of one
    non-replacement epoch: sum of C(N - k*B, B) for k = 0..n_B-1.

    B! * C(m, B) is the falling factorial perm(m, B), the product of the B
    integers at one batch position, so the block products are summed and
    the sum is divided once, exactly, by B!; no term divides on its own.
    """
    n, b = params.dataset_size, params.batch_size
    blocks = sum(math.perm(n - k * b, b)
                 for k in range(params.batches_per_epoch))
    return blocks // math.factorial(b)


def configs_without(params: CountParams) -> int:
    """Total over a whole non-replacement run: epochs * one-epoch count."""
    return params.epochs * configs_one_epoch(params)


def configs_with(params: CountParams) -> int:
    """Total for batched replacement over the same number of iterations:
    every draw position sees all C(N, B) subsets."""
    p = params
    return p.epochs * p.batches_per_epoch * binomial(p.dataset_size, p.batch_size)


def config_ratio(dataset_size: int, batch_size: int, k: int) -> Fraction:
    """Exact C(N, B) / C(N - k*B, B), reduced.

    Valid for 0 <= k <= batches_per_epoch - 1, which keeps every factor of
    the denominator's falling factorial positive.  Strictly increasing in
    k: each of the B numerator factors exceeds its denominator counterpart
    once k >= 1.
    """
    _ = CountParams(dataset_size, batch_size)  # validates N, B
    n_b = dataset_size // batch_size
    if not 0 <= k <= n_b - 1:
        raise ValueError(
            f"k must be in [0, {n_b - 1}] for N={dataset_size}, "
            f"B={batch_size}; got {k}"
        )
    return Fraction(
        binomial(dataset_size, batch_size),
        binomial(dataset_size - k * batch_size, batch_size),
    )
