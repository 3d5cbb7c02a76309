"""SGD with momentum and weight decay, and effective-epoch accounting."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .nets import Mlp
from .samplers import check_sizes


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


def init_optim(model: Mlp, momentum: float,
               weight_decay: float) -> OptimState:
    check_optim_params(momentum, weight_decay)
    return OptimState(momentum, weight_decay, np.zeros_like(model.flat))


def sgd_step(model: Mlp, grads: Mlp | Mapping[str, np.ndarray],
             learning_rate: float, opt: OptimState) -> Mlp:
    """One in-place update: v = mu*v + g + wd*w (matrices only), then
    w = w - lr*v, each a whole-buffer op.  With momentum and decay both
    zero this reduces to the plain gradient step w - lr*g exactly.
    `grads` is a buffer from `backward` or a map shaped like the model."""
    if learning_rate <= 0.0:
        raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
    if isinstance(grads, Mlp):
        if (got := [w.shape for w in grads.ws]) != [w.shape for w in model.ws]:
            raise ValueError(f"gradient layers differ from the model: {got}")
    else:
        if differ := sorted(set(grads) ^ set(model)):
            raise ValueError(f"gradient names differ from the model: {differ}")
        if differ := [name for name, p in model.param_items()
                      if np.shape(grads[name]) != p.shape]:
            raise ValueError(f"gradient shapes differ from the model: {differ}")
        grads = Mlp(*(grads[name] for name in model))
    v = opt.velocities
    v *= opt.momentum
    v += grads.flat
    if opt.weight_decay != 0.0:
        v[:model.weights.size] += opt.weight_decay * model.weights
    model.flat -= learning_rate * v
    return model


def effective_epoch(iterations_done: int, dataset_size: int,
                    batch_size: int) -> Fraction:
    """Completed iterations over iterations-per-epoch, exact.

    One epoch is floor(dataset_size / batch_size) iterations, the count a
    non-replacement pass makes; the samplers that never finish a pass are
    measured on the same clock.
    """
    if iterations_done < 0:
        raise ValueError(f"iterations_done must be >= 0, got {iterations_done}")
    check_sizes(dataset_size, batch_size)
    return Fraction(iterations_done, dataset_size // batch_size)
