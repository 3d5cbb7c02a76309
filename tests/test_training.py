import dataclasses
import importlib.util
import math
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srslab.training
from srslab.cli import main
from srslab.nets import backward, forward_loss
from srslab.optim import effective_epoch, init_optim, sgd_step
from srslab.rng import SAMPLER_STREAM, SEQUENCE_STREAM, make_stream
from srslab.samplers import (BLOCK_ELEMENTS, draw_batch_srs, init_srs,
                             make_sampler)
from srslab.training import TrainConfig, lr_at, make_draw, train
from test_nets import weighted_grads

SPANS_PATH = Path(__file__).resolve().parent.parent / "srsbench" / "spans.py"

SEPARABLE = TrainConfig(classes=2, ipc_train=50, ipc_test=20, dim=2,
                        sigma_means=3.0, sigma_noise=0.3, hidden=64,
                        batch_size=10, epochs=50, seed=0)


class TestTrainLoop:
    @pytest.mark.parametrize("sampler", ["srs", "epoch", "replacement"])
    def test_separable_blobs_converge(self, sampler):
        result = train(dataclasses.replace(SEPARABLE, sampler=sampler))
        assert result.final_train_accuracy >= 0.99

    def test_identical_config_reproduces_identical_metrics(self):
        config = dataclasses.replace(SEPARABLE, sampler="srs", epochs=8)
        assert train(config).rows == train(config).rows

    def test_wall_iteration_bookkeeping(self):
        config = dataclasses.replace(SEPARABLE, epochs=12)
        rows = train(config).rows
        per_epoch = config.train_size // config.batch_size
        assert len(rows) == 12
        assert [r.wall_iterations for r in rows] == [
            (k + 1) * per_epoch for k in range(12)
        ]
        assert [r.effective_epoch for r in rows] == [
            float(k + 1) for k in range(12)
        ]

    def test_learning_rate_column_reproduces_schedule(self):
        config = dataclasses.replace(
            SEPARABLE, epochs=20, lr_milestones=(5, 12), lr_decay=0.1)
        rows = train(config).rows
        for row in rows:
            assert row.learning_rate == lr_at(config, row.effective_epoch)

    def test_two_schedules_produce_full_curves(self):
        # same run twice under different milestone placements
        for milestones in ((6, 8, 9), (3, 6, 8)):
            config = dataclasses.replace(
                SEPARABLE, sampler="srs", epochs=10, lr_milestones=milestones)
            rows = train(config).rows
            assert len(rows) == 10
            assert all(np.isfinite(r.train_loss) for r in rows)
            assert all(0.0 <= r.test_error <= 1.0 for r in rows)

    def test_effective_epochs_are_nondecreasing(self):
        rows = train(dataclasses.replace(SEPARABLE, epochs=6)).rows
        effs = [r.effective_epoch for r in rows]
        assert effs == sorted(effs)

    def test_rejects_inconsistent_config(self):
        with pytest.raises(ValueError):
            train(dataclasses.replace(SEPARABLE, batch_size=1000))
        with pytest.raises(ValueError):
            train(dataclasses.replace(SEPARABLE, sampler="bogus"))
        with pytest.raises(ValueError):
            dataclasses.replace(SEPARABLE, momentum=1.5)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=4, max_value=30),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=6),
           st.lists(st.integers(min_value=1, max_value=7), unique=True,
                    max_size=3))
    def test_rate_of_every_iteration_follows_the_schedule(
            self, ipc_train, batch_size, epochs, milestones):
        config = dataclasses.replace(
            SEPARABLE, ipc_train=ipc_train, batch_size=batch_size,
            hidden=4, epochs=epochs, lr_milestones=tuple(sorted(milestones)))
        rates = []

        def recording_step(model, grads, rate, opt):
            rates.append(rate)
            return sgd_step(model, grads, rate, opt)

        with mock.patch.object(srslab.training, "sgd_step", recording_step):
            train(config)
        n = config.train_size
        assert len(rates) == epochs * (n // batch_size)
        assert rates == [lr_at(config, effective_epoch(i, n, batch_size))
                         for i in range(len(rates))]

    def test_diverging_run_raises_with_epoch_and_iteration(self, tmp_path,
                                                           capsys):
        # lr = 50 turns the loss into nan within the first 20 epochs
        config = TrainConfig(lr=50.0, epochs=20)
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match=r"effective epoch \d+ .*iterations"):
            train(config)
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text("lr = 50\nepochs = 20\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        with np.errstate(all="ignore"):
            assert main(["train", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("error:")] == [
            err[-1]]
        assert "not finite" in err[-1]
        assert not out.exists()

    def test_first_epoch_divergence_also_names_the_input_scale(self):
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match=r"effective epoch 1 .*; "
                               r"lower lr, or check the input scale: "
                               r"sigma_means 3\.0 and sigma_noise 1\.0$"):
                train(TrainConfig(lr=1e30, epochs=3))

    def test_later_divergence_names_only_lr(self):
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError) as info:
                train(TrainConfig(lr=50.0, lr_milestones=(), epochs=20))
        assert "effective epoch 1 " not in str(info.value)
        assert str(info.value).endswith("); lower lr")

    def test_diverging_run_prints_only_its_error(self, tmp_path, capsys):
        # No errstate here: train itself keeps numpy's overflow warnings
        # quiet, and any warning that still escapes fails the test.
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text("lr = 50\nepochs = 20\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", str(cfg), "--out",
                         str(tmp_path / "out.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: training diverged")

    def test_memory_grows_only_by_the_test_split_itself(self):
        def peak(ipc_test):
            config = TrainConfig(classes=2, ipc_train=10, ipc_test=ipc_test,
                                 dim=2, hidden=64, batch_size=5,
                                 lr_milestones=(), epochs=2)
            tracemalloc.start()
            try:
                train(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        big = 20_000
        # the split's own points and labels, (dim + 1) float64-sized
        # entries a row, plus two eval blocks of BLOCK_ELEMENTS float64
        # entries; evaluating the whole split at once would add 20 MB
        margin = 2 * big * (2 + 1) * 8 + 2 * BLOCK_ELEMENTS * 8
        assert peak(big) - peak(5) < margin

    def test_traced_run_has_one_span_per_iteration(self):
        # The benchmark's trace replaces these names in srslab.training;
        # train must keep calling them, once per iteration.
        spec = importlib.util.spec_from_file_location("srsbench_spans",
                                                      SPANS_PATH)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        config = dataclasses.replace(SEPARABLE, epochs=2)
        tracer = spans.Tracer()
        with spans.patched(tracer, lambda result: None):
            rows = srslab.training.train(config).rows
        counts = {}
        for name, *_ in tracer.spans:
            counts[name] = counts.get(name, 0) + 1
        iterations = rows[-1].wall_iterations
        assert iterations == 2 * (config.train_size // config.batch_size)
        for name in ("nets.forward", "nets.backward", "optim.sgd_step"):
            assert counts[name] == iterations, name
        assert counts["nets.eval"] == 3  # once per epoch, then train accuracy
        assert counts["samplers.srs.draw"] == 2
        assert counts["data.gen_blobs"] == 1


class TestKnownSamplerEffect:
    # A short budget on the desk-grid task with 5 images per class, B
    # dividing N = 500 and a 10,000-point test split: after 3 epochs the
    # samplers rank by how evenly they spread their draws, each gap at
    # least 3.8 points on these seeds.
    SHORT = TrainConfig(classes=100, ipc_train=5, ipc_test=100, dim=32,
                        sigma_means=1.0, sigma_noise=1.0, hidden=64,
                        batch_size=50, lr=0.1, momentum=0.9,
                        weight_decay=0.0005, lr_milestones=(2,),
                        lr_decay=0.1, epochs=3)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_epoch_beats_srs_beats_replacement(self, seed):
        epoch, srs, replacement = (
            train(dataclasses.replace(self.SHORT, sampler=s, seed=seed))
            .final_test_error for s in ("epoch", "srs", "replacement"))
        assert epoch < srs < replacement


class TestDuplicateBatchTraining:
    def test_step_on_duplicate_batch_matches_weighted_dedup(self):
        # drive the pool until a duplicate shows up, then compare one
        # update against the weighted deduplicated equivalent
        rng = make_stream(15)
        data_rng = make_stream(16)
        x_all = data_rng.normal(size=(12, 3))
        y_all = data_rng.integers(0, 2, size=12)
        state = init_srs(12, 4)
        batch = draw_batch_srs(state, rng)
        while len(set(batch.tolist())) == len(batch):
            batch = draw_batch_srs(state, rng)

        def fresh_model():
            from srslab.nets import init_mlp
            return init_mlp(3, 5, 2, make_stream(17))

        model_dup = fresh_model()
        _, cache = forward_loss(model_dup, x_all[batch], y_all[batch])
        grads_dup = backward(model_dup, cache)
        opt = init_optim(model_dup, momentum=0.9, weight_decay=0.0)
        sgd_step(model_dup, grads_dup, 0.1, opt)

        unique, counts = np.unique(batch, return_counts=True)
        model_ded = fresh_model()
        grads_ded = weighted_grads(model_ded, x_all[unique], y_all[unique],
                                   counts / len(batch))
        opt2 = init_optim(model_ded, momentum=0.9, weight_decay=0.0)
        sgd_step(model_ded, grads_ded, 0.1, opt2)

        for (_, a), (_, b) in zip(model_dup.param_items(),
                                  model_ded.param_items()):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)


def sweep_ages(draws, samples, n, b):
    """Draws since the refill cursor, sweeping samples in index order, last
    wrote each of `samples` before each of `draws`: one row per draw, age
    0 for a sample written by the draw before."""
    written = draws[:, None] * b - 1 - (draws[:, None] * b - 1 - samples) % n
    return draws[:, None] - 1 - written // b


class TestSequence:
    """The srs refill order at (N, B) = (2000, 64): ten classes of 200
    samples, class-major as gen_blobs emits them, counted over 200 epochs
    after a 20-epoch warm-up.  A class's age is that of its first sample
    in the identity sweep.  In steady state a sample written a draws ago
    has q**a / (1 - q**L) expected copies in the pool, q = 1 - B/N and
    L = N/B, and each copy is drawn with probability B/N."""

    N, B, CLASSES, WARM, EPOCHS = 2000, 64, 10, 20, 200
    Z_BOUND = 4.0  # per age bin, on a Poisson scale, over 32 bins

    def rates_by_class_age(self, sampler, sequence):
        """Per class age: draws observed, expected under the closed form,
        and expected under uniform draws."""
        n, b, classes = self.N, self.B, self.CLASSES
        ipc, per = n // classes, n // b
        draw = make_draw(TrainConfig(sampler=sampler, sequence=sequence,
                                     classes=classes, ipc_train=ipc,
                                     batch_size=b))
        draw(self.WARM * per)
        t = np.arange(self.WARM * per, (self.WARM + self.EPOCHS) * per)
        labels = draw(len(t)) // ipc + classes * np.arange(len(t))[:, None]
        drawn = np.bincount(labels.ravel(), minlength=len(t) * classes)
        ages = sweep_ages(t, np.arange(classes) * ipc, n, b).ravel()
        # A class's closed form sums its samples' and repeats with the
        # cursor's period, N / gcd(N, B) draws.
        q, period = 1 - b / n, n // math.gcd(n, b)
        copies = q ** sweep_ages(t[:period], np.arange(n), n, b) / (
            1 - q ** (n / b))
        closed = np.resize(copies.reshape(period, classes, ipc).sum(axis=2)
                           * b / n, (len(t), classes)).ravel()
        return (np.bincount(ages, weights=drawn),
                np.bincount(ages, weights=closed),
                np.bincount(ages) * b / classes)

    def test_identity_sweep_matches_the_closed_form(self):
        drawn, closed, uniform = self.rates_by_class_age("srs", "identity")
        assert len(drawn) == 32
        assert np.abs((drawn - closed) / np.sqrt(closed)).max() < self.Z_BOUND
        rate = drawn / uniform
        assert rate.max() / rate.min() > 2.0

    @pytest.mark.parametrize("sampler, sequence", [("srs", "shuffled"),
                                                   ("epoch", "identity")])
    def test_shuffled_sequence_is_as_flat_as_epoch(self, sampler, sequence):
        drawn, _, uniform = self.rates_by_class_age(sampler, sequence)
        z = (drawn - uniform) / np.sqrt(uniform)
        assert np.abs(z).max() < self.Z_BOUND

    def test_shuffled_maps_srs_draws_through_a_fixed_permutation(self):
        config = TrainConfig(ipc_train=20, batch_size=8, seed=5)

        def plain():
            return make_sampler("srs", 200, 8, make_stream(5, SAMPLER_STREAM))

        order = make_stream(5, SEQUENCE_STREAM).permutation(200)
        shuffled = make_draw(dataclasses.replace(config, sequence="shuffled"))
        assert np.array_equal(make_draw(config)(30), plain()(30))
        assert np.array_equal(shuffled(30), order[plain()(30)])

    @pytest.mark.parametrize("sampler", ["epoch", "replacement", "once"])
    def test_only_srs_reads_the_sequence(self, sampler):
        config = TrainConfig(sampler=sampler, ipc_train=20, batch_size=8,
                             lr_milestones=(), epochs=2)
        shuffled = dataclasses.replace(config, sequence="shuffled")
        assert np.array_equal(make_draw(config)(30), make_draw(shuffled)(30))
        assert train(config).rows == train(shuffled).rows

    def test_rejects_an_unknown_sequence(self):
        with pytest.raises(ValueError, match=r"^sequence must be one of "
                                             r"\('identity', 'shuffled'\), "
                                             r"got 'sorted'$"):
            TrainConfig(sequence="sorted")


class TestTrainConfig:
    def test_defaults_follow_the_standard_recipe(self):
        config = TrainConfig()
        assert config.sampler == "srs"
        assert config.batch_size == 64
        assert config.lr == 0.1
        assert config.momentum == 0.9
        assert config.weight_decay == 0.0005
        assert config.lr_decay == 0.1
        assert config.lr_milestones == (120, 150, 175)

    def test_validate_catches_bad_ranges(self):
        for bad in (
            {"classes": 0},
            {"sigma_noise": 0.0},
            {"lr": -0.1},
            {"lr_decay": 1.0},
            {"lr_milestones": (10, 10)},
            {"lr": float("nan")},
            {"weight_decay": float("inf")},
            {"seed": -1},
            {"epochs": 0},
            {"dim": 0},
            {"hidden": 0},
            {"batch_size": TrainConfig().train_size + 1},
            {"momentum": 1.0},
            {"weight_decay": -1e-3},
            {"label_noise": -0.1},
            {"label_noise": 1.0},
            {"label_noise": float("nan")},
            {"label_noise": 0.1, "classes": 1, "batch_size": 50},
        ):
            with pytest.raises(ValueError):
                dataclasses.replace(TrainConfig(), **bad)


class TestCheckedAtConstruction:
    def test_bad_value_raises_when_built(self):
        with pytest.raises(ValueError, match="^hidden must be >= 1, got 0$"):
            TrainConfig(hidden=0)

    def test_hidden_is_stored_as_a_tuple_of_ints(self):
        configs = [TrainConfig(hidden=h)
                   for h in (64, (64,), [64], np.int64(64), [np.int64(64)])]
        assert all(c == configs[0] for c in configs)
        assert len({hash(c) for c in configs}) == 1
        assert [type(w) for c in configs for w in c.hidden] == [int] * 5
        deep = TrainConfig(hidden=[32, 32])
        assert deep.hidden == (32, 32) and TrainConfig(hidden=()).hidden == ()
        # shared_prefixes keys its plan by the runs, so they must hash
        with srslab.training.shared_prefixes([deep, dataclasses.replace(
                deep, lr_milestones=(150,))]):
            pass

    def test_fields_are_frozen(self):
        config = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.lr = 0.5
        assert config.lr == 0.1

    def test_rate_that_underflows_before_the_last_epoch_is_rejected(self):
        # 1e-300 * 1e-30 is below the smallest subnormal double
        schedule = dict(lr=1e-300, lr_decay=1e-30, lr_milestones=(1, 2))
        with pytest.raises(ValueError, match="^lr 1e-300 at lr_decay 1e-30 "
                                             "per milestone underflows"):
            TrainConfig(**schedule, epochs=2)
        # the one epoch it steps through runs at 1e-300
        assert lr_at(TrainConfig(**schedule, epochs=1), 0) == 1e-300
