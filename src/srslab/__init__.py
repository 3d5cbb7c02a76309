"""Sequenced-replacement mini-batch sampling, measured three ways: exact
configuration counts, Monte-Carlo coverage statistics, and desk-scale SGD
training runs against epoch-shuffle and batched-replacement baselines."""

from .counting import (CountParams, binomial, config_ratio, configs_one_epoch,
                       configs_with, configs_without)
from .coverage import (ReplicaReport, VisitStats, chi_square_uniform,
                       expected_untouched_replacement, simulate_coverage)
from .data import SyntheticDataset, gen_blobs
from .nets import Mlp, backward, error_rate, forward_loss, init_mlp, predict
from .optim import (LrSchedule, OptimState, effective_epoch, init_optim,
                    lr_at, sgd_step)
from .rng import make_stream
from .samplers import (SAMPLER_KINDS, EpochShuffleState, SrsPool,
                       draw_batch_epoch, draw_batch_replacement,
                       draw_batch_srs, draw_epoch, draw_replacement, draw_srs,
                       init_epoch_shuffle, init_srs, make_sampler,
                       pool_histogram, refill_count, srs_draw_at)
from .training import MetricsRow, TrainConfig, TrainResult, train

__all__ = [
    "CountParams", "binomial", "config_ratio", "configs_one_epoch",
    "configs_with", "configs_without",
    "ReplicaReport", "VisitStats", "chi_square_uniform",
    "expected_untouched_replacement", "simulate_coverage",
    "SyntheticDataset", "gen_blobs",
    "Mlp", "backward", "error_rate", "forward_loss", "init_mlp", "predict",
    "LrSchedule", "OptimState", "effective_epoch", "init_optim", "lr_at",
    "sgd_step",
    "make_stream",
    "SAMPLER_KINDS", "EpochShuffleState", "SrsPool", "draw_batch_epoch",
    "draw_batch_replacement", "draw_batch_srs", "draw_epoch",
    "draw_replacement", "draw_srs", "init_epoch_shuffle",
    "init_srs", "make_sampler", "pool_histogram", "refill_count",
    "srs_draw_at",
    "MetricsRow", "TrainConfig", "TrainResult", "train",
]
