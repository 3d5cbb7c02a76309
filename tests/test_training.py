import dataclasses
import importlib.util
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
from srslab.optim import effective_epoch, init_optim, lr_at, sgd_step
from srslab.rng import make_stream
from srslab.samplers import draw_batch_srs, init_srs
from srslab.training import TrainConfig, train
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
        schedule = config.schedule()
        for row in rows:
            assert row.learning_rate == lr_at(schedule, row.effective_epoch)

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
            dataclasses.replace(SEPARABLE, momentum=1.5).validate()

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
        n, schedule = config.train_size, config.schedule()
        assert len(rates) == epochs * (n // batch_size)
        assert rates == [lr_at(schedule, effective_epoch(i, n, batch_size))
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
        config.validate()

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
        ):
            with pytest.raises(ValueError):
                dataclasses.replace(TrainConfig(), **bad).validate()
