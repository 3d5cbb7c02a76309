"""End-to-end training loop comparing the three samplers on blob tasks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .data import gen_blobs
from .nets import error_rate, backward, forward_loss, init_mlp
from .optim import LrSchedule, effective_epoch, init_optim, lr_at, sgd_step
from .rng import make_stream
from .samplers import SAMPLER_KINDS, make_sampler

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
        if self.sampler not in SAMPLER_KINDS:
            raise ValueError(
                f"sampler must be one of {SAMPLER_KINDS}, got {self.sampler!r}"
            )
        if min(self.classes, self.ipc_train, self.ipc_test, self.dim,
               self.hidden, self.batch_size, self.epochs) < 1:
            raise ValueError(
                "classes, ipc_train, ipc_test, dim, hidden, batch_size and "
                "epochs must all be >= 1"
            )
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.sigma_means <= 0 or self.sigma_noise <= 0:
            raise ValueError("sigma_means and sigma_noise must be > 0")
        if self.batch_size > self.train_size:
            raise ValueError(
                f"batch_size {self.batch_size} exceeds the training split "
                f"({self.train_size} samples)"
            )
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if any(m < 1 for m in self.lr_milestones):
            raise ValueError(
                f"milestones must be positive epochs, got {self.lr_milestones}"
            )
        self.schedule()  # validates lr, lr_decay, milestone ordering


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


def train(config: TrainConfig) -> TrainResult:
    """Run the configured loop: per effective epoch, draw and gather its
    batches and set the schedule's rate; per batch, forward/backward into
    one gradient buffer and an SGD step; one MetricsRow per completed
    effective epoch.  Raises ValueError if an epoch's train loss is not
    finite.  Deterministic given the config."""
    config.validate()
    data = gen_blobs(config.classes, config.ipc_train, config.ipc_test,
                     config.dim, config.sigma_means, config.sigma_noise,
                     seed=config.seed)
    n = data.train_size
    b = config.batch_size
    per_epoch = n // b
    model = init_mlp(config.dim, config.hidden, config.classes,
                     make_stream(config.seed, MODEL_STREAM))
    opt = init_optim(model, config.momentum, config.weight_decay)
    grads = model.zeros_like()
    schedule = config.schedule()
    draw = make_sampler(config.sampler, n, b,
                        make_stream(config.seed, SAMPLER_STREAM))

    result = TrainResult(config)
    iterations = 0
    for _ in range(config.epochs):
        # Milestones are whole epochs, so the rate holds for all of this one.
        rate = lr_at(schedule, effective_epoch(iterations, n, b))
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
            learning_rate=lr_at(schedule, completed),
            train_loss=loss_sum / per_epoch,
            test_error=error_rate(model, data.test_x, data.test_y),
            wall_iterations=iterations,
        ))
    result.final_train_accuracy = 1.0 - error_rate(model, data.train_x,
                                                   data.train_y)
    return result
