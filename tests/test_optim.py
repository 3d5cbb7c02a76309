from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srslab.nets import Mlp
from srslab.optim import (LrSchedule, effective_epoch, init_optim, lr_at,
                          sgd_step)


def scalar_model(value: float) -> Mlp:
    return Mlp(np.array([[value]]), np.zeros(1), np.zeros((1, 1)),
               np.zeros(1))


def scalar_grads(value: float) -> dict:
    return {"w1": np.array([[value]]), "b1": np.zeros(1),
            "w2": np.zeros((1, 1)), "b2": np.zeros(1)}


class TestSgdStep:
    def test_plain_gradient_step(self):
        model = scalar_model(1.0)
        opt = init_optim(model, momentum=0.0, weight_decay=0.0)
        sgd_step(model, scalar_grads(2.0), 0.1, opt)
        assert model.w1[0, 0] == 1.0 - 0.1 * 2.0  # bitwise, not approx

    def test_plain_step_equals_w_minus_lr_g_elementwise(self):
        rng = np.random.default_rng(5)
        model = Mlp(rng.normal(size=(3, 4)), rng.normal(size=4),
                    rng.normal(size=(4, 2)), rng.normal(size=2))
        grads = {name: rng.normal(size=w.shape)
                 for name, w in model.param_items()}
        expected = {name: w - 0.05 * grads[name]
                    for name, w in model.param_items()}
        opt = init_optim(model, momentum=0.0, weight_decay=0.0)
        sgd_step(model, grads, 0.05, opt)
        for name, w in model.param_items():
            assert np.array_equal(w, expected[name])

    def test_zero_gradient_is_a_fixed_point(self):
        model = scalar_model(3.5)
        opt = init_optim(model, momentum=0.9, weight_decay=0.0)
        sgd_step(model, scalar_grads(0.0), 0.1, opt)
        assert model.w1[0, 0] == 3.5

    def test_two_momentum_steps_hand_computed(self):
        # v1 = 1, w1 = -0.1; v2 = 0.9 + 1 = 1.9, w2 = -0.29
        model = scalar_model(0.0)
        opt = init_optim(model, momentum=0.9, weight_decay=0.0)
        sgd_step(model, scalar_grads(1.0), 0.1, opt)
        assert model.w1[0, 0] == pytest.approx(-0.1, abs=1e-12)
        sgd_step(model, scalar_grads(1.0), 0.1, opt)
        assert model.w1[0, 0] == pytest.approx(-0.29, abs=1e-12)

    def test_weight_decay_touches_matrices_not_biases(self):
        model = Mlp(np.ones((1, 1)), np.ones(1), np.ones((1, 1)), np.ones(1))
        grads = {"w1": np.zeros((1, 1)), "b1": np.zeros(1),
                 "w2": np.zeros((1, 1)), "b2": np.zeros(1)}
        opt = init_optim(model, momentum=0.0, weight_decay=0.5)
        sgd_step(model, grads, 1.0, opt)
        assert model.w1[0, 0] == 0.5  # decayed
        assert model.b1[0] == 1.0     # untouched

    def test_velocities_are_one_buffer_in_the_model_layout(self):
        model = Mlp(np.ones((2, 3)), np.ones(3), np.ones((3, 1)), np.ones(1))
        opt = init_optim(model, momentum=0.5, weight_decay=0.25)
        grads = model.zeros_like()
        grads.flat[:] = 1.0
        sgd_step(model, grads, 0.1, opt)
        assert opt.velocities.shape == model.flat.shape
        # v = g + wd*w on the weight slice, v = g on the biases
        nw = model.weights.size
        assert np.array_equal(opt.velocities[:nw], np.full(nw, 1.25))
        assert np.array_equal(opt.velocities[nw:], np.ones(3 + 1))
        assert np.array_equal(model.b1, np.full(3, 0.9))

    def test_matches_the_per_parameter_reference_loop(self):
        # reference: g' = g + wd*w on matrices, v = mu*v + g', w -= lr*v
        rng = np.random.default_rng(9)
        model = Mlp(rng.normal(size=(3, 4)), rng.normal(size=4),
                    rng.normal(size=(4, 2)), rng.normal(size=2))
        ref = {name: w.copy() for name, w in model.param_items()}
        vel = {name: np.zeros_like(w) for name, w in ref.items()}
        opt = init_optim(model, momentum=0.9, weight_decay=0.01)
        for step in range(5):
            grads = {name: rng.normal(size=w.shape) for name, w in ref.items()}
            sgd_step(model, grads, 0.05, opt)
            for name, w in ref.items():
                g = grads[name] + (0.01 * w if w.ndim > 1 else 0.0)
                vel[name] = 0.9 * vel[name] + g
                w -= 0.05 * vel[name]
        for name, w in model.param_items():
            np.testing.assert_allclose(w, ref[name], rtol=1e-13, atol=1e-15)

    def test_rejects_nonpositive_rate(self):
        model = scalar_model(1.0)
        opt = init_optim(model)
        with pytest.raises(ValueError):
            sgd_step(model, scalar_grads(1.0), 0.0, opt)

    def test_init_optim_validates_momentum(self):
        with pytest.raises(ValueError):
            init_optim(scalar_model(0.0), momentum=1.0)


class TestLrSchedule:
    def test_mid_schedule_decay(self):
        schedule = LrSchedule(0.1, (120, 150, 175), 0.1)
        assert lr_at(schedule, 130) == pytest.approx(0.01, rel=1e-12)

    def test_alternate_decay_factor(self):
        schedule = LrSchedule(0.1, (60, 120, 160), 0.2)
        assert lr_at(schedule, 61) == pytest.approx(0.02, rel=1e-12)

    def test_initial_rate_at_zero(self):
        schedule = LrSchedule(0.1, (120, 150, 175), 0.1)
        assert lr_at(schedule, 0) == 0.1

    def test_decay_applies_exactly_at_the_milestone(self):
        schedule = LrSchedule(1.0, (10,), 0.5)
        assert lr_at(schedule, 9.999) == 1.0
        assert lr_at(schedule, 10) == 0.5
        assert lr_at(schedule, 10.001) == 0.5  # right-continuous

    def test_rejects_bad_schedules(self):
        with pytest.raises(ValueError):
            LrSchedule(0.0, (10,), 0.1)
        with pytest.raises(ValueError):
            LrSchedule(0.1, (10, 10), 0.1)
        with pytest.raises(ValueError):
            LrSchedule(0.1, (10,), 1.0)
        with pytest.raises(ValueError):
            LrSchedule(0.1, (0, 5), 0.1)
        with pytest.raises(ValueError):
            lr_at(LrSchedule(0.1, (), 0.1), -1)

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=1, max_value=300), min_size=0,
                    max_size=6, unique=True),
           st.floats(min_value=0.05, max_value=0.9),
           st.floats(min_value=1e-4, max_value=10.0))
    def test_step_function_shape(self, milestones, decay, initial):
        schedule = LrSchedule(initial, tuple(sorted(milestones)), decay)
        horizon = (max(milestones) + 5) if milestones else 5
        values = [lr_at(schedule, e) for e in range(horizon + 1)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert len(set(values)) == len(milestones) + 1


class TestEffectiveEpoch:
    def test_one_epoch_of_iterations(self):
        assert effective_epoch(7, 15, 2) == 1

    def test_large_run_exact_ratio(self):
        assert effective_epoch(782, 50000, 64) == Fraction(782, 781)

    def test_zero_iterations(self):
        assert effective_epoch(0, 100, 10) == 0

    def test_rejects_no_full_batch(self):
        with pytest.raises(ValueError):
            effective_epoch(5, 3, 4)

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError):
            effective_epoch(-1, 10, 2)

    def test_interoperates_with_lr_at(self):
        schedule = LrSchedule(0.1, (2,), 0.1)
        eff = effective_epoch(20, 100, 10)  # exactly epoch 2
        assert lr_at(schedule, eff) == pytest.approx(0.01, rel=1e-12)
