"""End-to-end training loop comparing the three samplers on blob tasks."""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields, replace

import numpy as np

from .data import check_blob_params, gen_blobs
from .nets import (backward, check_mlp_sizes, error_rate, forward_loss,
                   init_mlp)
from .optim import check_optim_params, effective_epoch, init_optim, sgd_step
from .rng import MODEL_STREAM, SAMPLER_STREAM, SEQUENCE_STREAM, make_stream
from .samplers import check_kind, check_sizes, make_sampler

# The srs refill order: sequence index s holds sample s, or sample p[s] of
# a fixed permutation p from the run's SEQUENCE_STREAM.
SEQUENCES = ("identity", "shuffled")


@dataclass(frozen=True)
class TrainConfig:
    """One training run, which checks itself when it is built.
    Every field has a default; the optimizer block's are the standard
    recipe this harness scales down."""

    sampler: str = "srs"
    sequence: str = "identity"
    classes: int = 10
    ipc_train: int = 50
    ipc_test: int = 20
    dim: int = 16
    sigma_means: float = 3.0
    sigma_noise: float = 1.0
    label_noise: float = 0.0
    hidden: tuple[int, ...] = (64,)
    batch_size: int = 64
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0005
    lr_milestones: tuple[int, ...] = (120, 150, 175)
    lr_decay: float = 0.1
    epochs: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        check_kind(self.sampler)
        if self.sequence not in SEQUENCES:
            raise ValueError(f"sequence must be one of {SEQUENCES}, "
                             f"got {self.sequence!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        check_blob_params(self.classes, self.ipc_train, self.ipc_test,
                          self.dim, self.sigma_means, self.sigma_noise,
                          self.label_noise)
        object.__setattr__(self, "hidden", check_mlp_sizes(
            self.dim, self.hidden, self.classes)[1:-1])
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size > self.train_size:
            raise ValueError(f"batch_size {self.batch_size} exceeds "
                             f"classes × ipc_train = {self.train_size}")
        check_sizes(self.train_size, self.batch_size)
        check_optim_params(self.momentum, self.weight_decay)
        make_stream(self.seed)  # validates the seed
        milestones = self.lr_milestones
        if any(m < 1 for m in milestones):
            raise ValueError(
                f"lr_milestones must be positive epochs, got {milestones}")
        if self.lr <= 0.0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not 0.0 < self.lr_decay < 1.0:
            raise ValueError(f"lr_decay must be in (0, 1), got {self.lr_decay}")
        if any(b <= a for a, b in zip(milestones, milestones[1:])):
            raise ValueError(
                f"lr_milestones must be strictly increasing, got {milestones}")
        if lr_at(self, self.epochs - 1) == 0.0:
            raise ValueError(f"lr {self.lr} at lr_decay {self.lr_decay} per "
                             f"milestone underflows to 0 by the last epoch")

    @property
    def train_size(self) -> int:
        return self.classes * self.ipc_train


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
    rows: list[MetricsRow]
    final_train_accuracy: float

    @property
    def final_test_error(self) -> float:
        return self.rows[-1].test_error

    @property
    def best_test_error(self) -> float:
        return min(r.test_error for r in self.rows)


# Inside `shared_prefixes`: each run's (source run, parting epoch), the
# last run to read each such (run, epoch), and the states saved there.
_SHARED: ContextVar = ContextVar("shared", default=({}, {}, {}))


@contextmanager
def shared_prefixes(runs: list[TrainConfig]):
    """Within the block, `train` resumes each of `runs`, which must be
    distinct as a grid's are, from the earliest earlier run that matches
    it but in its schedule and shares the most epochs of rates with it,
    at the first epoch where their rates part, or at `epochs` if none,
    saving only the states later runs resume from, each until its last
    reader has loaded it."""
    sources, alike = {}, {}
    for run in runs:
        # the run at a constant rate stands for it less its schedule
        earlier = alike.setdefault(replace(
            run, lr_milestones=(), lr_decay=TrainConfig.lr_decay), [])
        for other in earlier:
            part = next((e for e in range(run.epochs)
                         if lr_at(run, e) != lr_at(other, e)), run.epochs)
            if part > sources.get(run, (None, 0))[1]:
                sources[run] = (other, part)
        earlier.append(run)
    last = {key: run for run, key in sources.items()}
    token = _SHARED.set((sources, last, {}))
    try:
        yield
    finally:
        _SHARED.reset(token)


def lr_at(config: TrainConfig, epoch) -> float:
    """Rate in force at effective epoch `epoch`: lr times lr_decay to the
    number of lr_milestones at or before it."""
    if epoch < 0:
        raise ValueError(f"effective_epoch must be >= 0, got {epoch}")
    passed = sum(1 for m in config.lr_milestones if m <= epoch)
    return config.lr * config.lr_decay ** passed


def make_draw(config: TrainConfig):
    """The run's `draw(k)`: `make_sampler` on its sampler stream, with an
    srs run's drawn sequence indices mapped to samples by its sequence."""
    n = config.train_size
    draw = make_sampler(config.sampler, n, config.batch_size,
                        make_stream(config.seed, SAMPLER_STREAM))
    if config.sampler != "srs" or config.sequence == "identity":
        return draw
    order = make_stream(config.seed, SEQUENCE_STREAM).permutation(n)
    return lambda k: order[draw(k)]


def train(config: TrainConfig) -> TrainResult:
    """Run the configured loop: per effective epoch, draw its batches and
    take its rate; per batch, gather its rows, forward/backward into one
    gradient buffer and an SGD step; one MetricsRow per completed
    effective epoch.  Inside `shared_prefixes` it skips, but for their
    draws, the epochs it shares with an earlier run.  Raises ValueError
    if an epoch's train loss is not finite.  Deterministic given the
    config."""
    data = gen_blobs(config.classes, config.ipc_train, config.ipc_test,
                     config.dim, config.sigma_means, config.sigma_noise,
                     seed=config.seed, label_noise=config.label_noise)
    n = config.train_size
    b = config.batch_size
    per_epoch = n // b
    model = init_mlp(config.dim, config.hidden, config.classes,
                     make_stream(config.seed, MODEL_STREAM))
    opt = init_optim(model, config.momentum, config.weight_decay)
    grads = model.zeros_like()
    draw = make_draw(config)

    sources, last, states = _SHARED.get()
    rates = [lr_at(config, e) for e in range(config.epochs + 1)]
    source, resume = sources.get(config, (None, 0))
    records = []  # (train_loss, test_error) per completed effective epoch
    if resume:
        key = source, resume
        model.flat[:], opt.velocities[:], saved = (
            states.pop(key) if last[key] == config else states[key])
        records = list(saved)
    # A diverging run overflows in numpy before the loss guard below
    # reports it in one error, so those warnings are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            batches = draw(per_epoch)  # redraws depend on the block size
            if epoch < resume:
                continue
            loss_sum = 0.0
            for batch in batches:
                loss, cache = forward_loss(model, data.train_x[batch],
                                           data.train_y[batch])
                backward(model, cache, grads)
                sgd_step(model, grads, rates[epoch], opt)
                loss_sum += loss
            if not math.isfinite(loss_sum):
                # In the first epoch the inputs' scale may be the cause.
                scale = (f", or check the input scale: sigma_means "
                         f"{config.sigma_means} and sigma_noise "
                         f"{config.sigma_noise}" if epoch == 0 else "")
                raise ValueError(
                    f"training diverged: the train loss is not finite in "
                    f"effective epoch {epoch + 1} (iterations up to "
                    f"{(epoch + 1) * per_epoch}); lower lr{scale}"
                )
            records.append((loss_sum / per_epoch,
                            error_rate(model, data.test_x, data.test_y)))
            if (config, epoch + 1) in last:
                states[config, epoch + 1] = (
                    model.flat.copy(), opt.velocities.copy(), tuple(records))
    rows = [MetricsRow(float(effective_epoch(e * per_epoch, n, b)), rates[e],
                       loss, error, e * per_epoch)
            for e, (loss, error) in enumerate(records, 1)]
    return TrainResult(config, rows, 1.0 - error_rate(model, data.train_x,
                                                      data.train_y))
