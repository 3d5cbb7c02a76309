"""SGD with momentum and weight decay, milestone schedules, epoch accounting."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .nets import Mlp


@dataclass
class OptimState:
    """Velocity buffer plus the two scalar knobs.

    `velocities` is one flat buffer laid out like `Mlp.flat`.  Weight
    decay is coupled: `wd*w` enters the velocity (see `sgd_step`), and it
    applies to weight matrices only, never to biases.
    """

    momentum: float
    weight_decay: float
    velocities: np.ndarray


def check_optim_params(momentum: float, weight_decay: float) -> None:
    """Raise ValueError unless 0 <= momentum < 1 and weight_decay >= 0."""
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    if weight_decay < 0.0:
        raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")


def init_optim(model: Mlp, momentum: float = 0.9,
               weight_decay: float = 0.0005) -> OptimState:
    check_optim_params(momentum, weight_decay)
    return OptimState(momentum, weight_decay, np.zeros_like(model.flat))


def sgd_step(model: Mlp, grads: Mlp | Mapping[str, np.ndarray],
             learning_rate: float, opt: OptimState) -> Mlp:
    """One in-place update: v = mu*v + g + wd*w (matrices only), then
    w = w - lr*v, each a whole-buffer op.  With momentum and decay both
    zero this reduces to the plain gradient step w - lr*g exactly.
    `grads` is a buffer from `backward` or a name -> array mapping."""
    if learning_rate <= 0.0:
        raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
    if not isinstance(grads, Mlp):
        grads = Mlp(**grads)
    v = opt.velocities
    v *= opt.momentum
    v += grads.flat
    if opt.weight_decay != 0.0:
        v[:model.weights.size] += opt.weight_decay * model.weights
    model.flat -= learning_rate * v
    return model


@dataclass(frozen=True)
class LrSchedule:
    """Piecewise-constant rate decayed at each milestone effective epoch."""

    initial_rate: float
    milestones: tuple[int, ...] = ()
    decay_factor: float = 0.1

    def __post_init__(self) -> None:
        if any(m < 1 for m in self.milestones):
            raise ValueError(
                f"milestones must be positive epochs, got {self.milestones}"
            )
        if self.initial_rate <= 0.0:
            raise ValueError(f"initial_rate must be > 0, got {self.initial_rate}")
        if not 0.0 < self.decay_factor < 1.0:
            raise ValueError(
                f"decay_factor must be in (0, 1), got {self.decay_factor}"
            )
        if any(b <= a for a, b in zip(self.milestones, self.milestones[1:])):
            raise ValueError(
                f"milestones must be strictly increasing, got {self.milestones}"
            )


def lr_at(schedule: LrSchedule, effective_epoch) -> float:
    """Rate in force at a given effective epoch: initial_rate times
    decay_factor to the number of milestones at or before it."""
    if effective_epoch < 0:
        raise ValueError(f"effective_epoch must be >= 0, got {effective_epoch}")
    passed = sum(1 for m in schedule.milestones if m <= effective_epoch)
    return schedule.initial_rate * schedule.decay_factor ** passed


def effective_epoch(iterations_done: int, dataset_size: int,
                    batch_size: int) -> Fraction:
    """Completed iterations over iterations-per-epoch, exact.

    One epoch is floor(dataset_size / batch_size) iterations, the count a
    non-replacement pass makes; the samplers that never finish a pass are
    measured on the same clock.
    """
    if iterations_done < 0:
        raise ValueError(f"iterations_done must be >= 0, got {iterations_done}")
    per_epoch = dataset_size // batch_size
    if per_epoch == 0:
        raise ValueError(
            f"no full batch fits: dataset_size={dataset_size} < "
            f"batch_size={batch_size}"
        )
    return Fraction(iterations_done, per_epoch)
