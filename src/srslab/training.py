"""End-to-end training loop comparing the three samplers on blob tasks."""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .data import check_blob_params, gen_blobs
from .nets import (backward, check_mlp_sizes, error_rate, forward_loss,
                   init_mlp)
from .optim import (LrSchedule, check_optim_params, effective_epoch,
                    init_optim, lr_at, sgd_step)
from .rng import make_stream
from .samplers import check_kind, check_sizes, make_sampler

# Stream ids carved out of the one config seed; the dataset stream is the
# default stream 0 inside gen_blobs.
MODEL_STREAM = 1
SAMPLER_STREAM = 2


@dataclass
class TrainConfig:
    """One training run.  Every field has a default; the optimizer block
    (batch 64, rate 0.1, momentum 0.9, decay 0.0005, factor 0.1) is the
    standard recipe this harness scales down."""

    sampler: str = "srs"
    classes: int = 10
    ipc_train: int = 50
    ipc_test: int = 20
    dim: int = 16
    sigma_means: float = 3.0
    sigma_noise: float = 1.0
    hidden: int = 64
    batch_size: int = 64
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0005
    lr_milestones: tuple[int, ...] = (120, 150, 175)
    lr_decay: float = 0.1
    epochs: int = 200
    seed: int = 0

    @property
    def train_size(self) -> int:
        return self.classes * self.ipc_train

    def schedule(self) -> LrSchedule:
        return LrSchedule(self.lr, self.lr_milestones, self.lr_decay)

    def validate(self) -> None:
        check_kind(self.sampler)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        check_blob_params(self.classes, self.ipc_train, self.ipc_test,
                          self.dim, self.sigma_means, self.sigma_noise)
        check_mlp_sizes(self.dim, self.hidden, self.classes)
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        check_sizes(self.train_size, self.batch_size)
        check_optim_params(self.momentum, self.weight_decay)
        make_stream(self.seed)  # validates the seed
        self.schedule()  # validates lr, lr_decay and the milestones


@dataclass
class MetricsRow:
    effective_epoch: float
    learning_rate: float
    train_loss: float
    test_error: float
    wall_iterations: int


@dataclass
class TrainResult:
    config: TrainConfig
    rows: list[MetricsRow] = field(default_factory=list)
    final_train_accuracy: float = 0.0

    @property
    def final_test_error(self) -> float:
        return self.rows[-1].test_error

    @property
    def best_test_error(self) -> float:
        return min(r.test_error for r in self.rows)


# Inside `shared_prefixes`: the rates two grid runs share before they
# part, and the states saved there by (run less its schedule, rates).
_SHARED: ContextVar = ContextVar("shared", default=((), {}))


@contextmanager
def shared_prefixes(runs: list[TrainConfig]):
    """Within the block, `train` resumes from the state of an earlier run
    that matches it but in its schedule, at the epoch where their rates
    part.  The states go with the block."""
    rates = [_rates(run) for run in runs]
    forks = {tuple(a[:next((e for e, (x, y) in enumerate(zip(a, b))
                            if x != y), 0)])
             for a in rates for b in rates}
    token = _SHARED.set((forks, {}))
    try:
        yield
    finally:
        _SHARED.reset(token)


def _rates(config: TrainConfig) -> list[float]:
    """Epoch e steps at rates[e]; its row reports rates[e + 1]."""
    schedule = config.schedule()
    return [lr_at(schedule, e) for e in range(config.epochs + 1)]


def train(config: TrainConfig) -> TrainResult:
    """Run the configured loop: per effective epoch, draw and gather its
    batches and take its rate; per batch, forward/backward into one
    gradient buffer and an SGD step; one MetricsRow per completed
    effective epoch.  Inside `shared_prefixes` it skips, but for their
    draws, the epochs it shares with an earlier run.  Raises ValueError
    if an epoch's train loss is not finite.  Deterministic given the
    config."""
    config.validate()
    data = gen_blobs(config.classes, config.ipc_train, config.ipc_test,
                     config.dim, config.sigma_means, config.sigma_noise,
                     seed=config.seed)
    n = config.train_size
    b = config.batch_size
    per_epoch = n // b
    model = init_mlp(config.dim, config.hidden, config.classes,
                     make_stream(config.seed, MODEL_STREAM))
    opt = init_optim(model, config.momentum, config.weight_decay)
    grads = model.zeros_like()
    draw = make_sampler(config.sampler, n, b,
                        make_stream(config.seed, SAMPLER_STREAM))

    forks, states = _SHARED.get()
    rates = _rates(config)
    key = astuple(replace(config, lr_milestones=None, lr_decay=None))
    resume = max((e for e in range(config.epochs + 1)
                  if (key, tuple(rates[:e])) in states), default=0)
    result = TrainResult(config)
    if resume:
        model.flat[:], opt.velocities[:], rows = states[
            key, tuple(rates[:resume])]
        # The fork epoch's row reports this run's own next rate.
        result.rows = [replace(row, learning_rate=rates[e + 1])
                       for e, row in enumerate(rows)]
        for _ in range(resume):  # redraws depend on the block size
            draw(per_epoch)
    iterations = resume * per_epoch
    # A diverging run overflows in numpy before the loss guard below
    # reports it in one error, so those warnings are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(resume, config.epochs):
            rate = rates[epoch]
            loss_sum = 0.0
            batches = draw(per_epoch)
            for x, y in zip(data.train_x[batches], data.train_y[batches]):
                loss, cache = forward_loss(model, x, y)
                backward(model, cache, grads)
                sgd_step(model, grads, rate, opt)
                loss_sum += loss
            iterations += per_epoch
            completed = effective_epoch(iterations, n, b)
            if not math.isfinite(loss_sum):
                raise ValueError(
                    f"training diverged: the train loss is not finite in "
                    f"effective epoch {completed} (iterations up to "
                    f"{iterations}); lower lr"
                )
            result.rows.append(MetricsRow(
                effective_epoch=float(completed),
                learning_rate=rates[epoch + 1],
                train_loss=loss_sum / per_epoch,
                test_error=error_rate(model, data.test_x, data.test_y),
                wall_iterations=iterations,
            ))
            if tuple(rates[:epoch + 1]) in forks:
                states[key, tuple(rates[:epoch + 1])] = (
                    model.flat.copy(), opt.velocities.copy(), result.rows[:])
    result.final_train_accuracy = 1.0 - error_rate(model, data.train_x,
                                                   data.train_y)
    return result
