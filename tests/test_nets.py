import math
import tracemalloc

import numpy as np
import pytest

from srslab.nets import Mlp, backward, error_rate, forward_loss, init_mlp
from srslab.rng import make_stream
from srslab.samplers import BLOCK_ELEMENTS


def naive_forward_loss(model, x, y):
    """Straightforward second implementation: plain exp/softmax, no
    log-sum-exp trick.  Only safe for moderate logits."""
    hidden = np.maximum(x @ model.w1 + model.b1, 0.0)
    logits = hidden @ model.w2 + model.b2
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    return float(-np.log(probs[np.arange(len(y)), y]).mean())


def weighted_grads(model, x, y, weights):
    """Cross-entropy gradients with per-row weights summing to one;
    independent of the library's backward pass."""
    hidden_pre = x @ model.w1 + model.b1
    hidden = np.maximum(hidden_pre, 0.0)
    logits = hidden @ model.w2 + model.b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    dz2 = probs.copy()
    dz2[np.arange(len(y)), y] -= 1.0
    dz2 *= weights[:, None]
    da1 = dz2 @ model.w2.T
    dz1 = da1 * (hidden_pre > 0.0)
    return {
        "w1": x.T @ dz1,
        "b1": dz1.sum(axis=0),
        "w2": hidden.T @ dz2,
        "b2": dz2.sum(axis=0),
    }


def finite_difference_grads(model, x, y, step=1e-5):
    grads = {}
    for name, w in model.param_items():
        flat = w.ravel()
        out = np.zeros_like(flat)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            plus, _ = forward_loss(model, x, y)
            flat[i] = saved - step
            minus, _ = forward_loss(model, x, y)
            flat[i] = saved
            out[i] = (plus - minus) / (2.0 * step)
        grads[name] = out.reshape(w.shape)
    return grads


def random_instance(rng):
    dim = int(rng.integers(2, 6))
    hidden = int(rng.integers(2, 7))
    classes = int(rng.integers(2, 6))
    rows = int(rng.integers(1, 9))
    model = init_mlp(dim, hidden, classes, rng)
    x = rng.normal(0.0, 1.0, size=(rows, dim))
    y = rng.integers(0, classes, size=rows)
    return model, x, y


def two_layer_pass(model, x, y):
    """The one-hidden-layer forward and backward pass with every
    parameter written out by name: the numpy calls, in their order, that
    the library made before its layers became a loop.  Returns the loss,
    the probabilities, the gradient buffer and the error rate."""
    a1 = x @ model.w1
    a1 += model.b1
    np.maximum(a1, 0.0, out=a1)
    z2 = a1 @ model.w2
    z2 += model.b2
    error = float(np.count_nonzero(z2.argmax(axis=1) != y) / y.size)
    probs = z2
    probs -= probs.max(axis=1, keepdims=True)
    picked = probs[np.arange(x.shape[0]), y]
    np.exp(probs, out=probs)
    norm = probs.sum(axis=1)
    probs /= norm[:, None]
    loss = float((np.log(norm) - picked).sum()) / x.shape[0]
    grads = model.zeros_like()
    dz2 = probs.copy()
    n = x.shape[0]
    dz2[np.arange(n), y] -= 1.0
    dz2 /= n
    np.matmul(a1.T, dz2, out=grads.w2)
    np.sum(dz2, axis=0, out=grads.b2)
    dz1 = dz2 @ model.w2.T
    dz1 *= a1 > 0.0
    np.matmul(x.T, dz1, out=grads.w1)
    np.sum(dz1, axis=0, out=grads.b1)
    return loss, probs, grads, error


def hand_built(widths, rng):
    """An Mlp with one layer per consecutive pair of widths, every
    weight and bias drawn at random."""
    params = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        params += [rng.normal(size=(fan_in, fan_out)),
                   rng.normal(size=fan_out)]
    return Mlp(*params)


DEPTHS = pytest.mark.parametrize("widths", [(4, 2), (4, 5, 3, 2)],
                                 ids=["depth1", "depth3"])


class TestForwardLoss:
    def test_zero_model_gives_log_classes(self):
        classes = 7
        model = Mlp(np.zeros((3, 4)), np.zeros(4), np.zeros((4, classes)),
                    np.zeros(classes))
        loss, _ = forward_loss(model, np.ones((5, 3)), np.zeros(5, dtype=int))
        assert loss == pytest.approx(math.log(classes), rel=1e-12)

    def test_extreme_logits_are_stable(self):
        # contrived weights driving logits to (+1000, -1000)
        model = Mlp(np.array([[1000.0]]), np.zeros(1),
                    np.array([[1.0, -1.0]]), np.zeros(2))
        loss, _ = forward_loss(model, np.array([[1.0]]), np.array([0]))
        assert math.isfinite(loss)
        assert loss == pytest.approx(0.0, abs=1e-12)
        # and the other label costs ~2000 nats without overflowing
        loss_bad, _ = forward_loss(model, np.array([[1.0]]), np.array([1]))
        assert loss_bad == pytest.approx(2000.0, rel=1e-9)

    def test_matches_naive_reimplementation(self):
        rng = make_stream(2024)
        for _ in range(20):
            model, x, y = random_instance(rng)
            loss, _ = forward_loss(model, x, y)
            assert loss == pytest.approx(naive_forward_loss(model, x, y),
                                         rel=1e-12)

    def test_rejects_dimension_mismatch(self):
        model = init_mlp(4, 3, 2, make_stream(0))
        with pytest.raises(ValueError):
            forward_loss(model, np.ones((2, 5)), np.array([0, 1]))


class TestBackward:
    def test_duplicate_rows_equal_weighted_rows(self):
        rng = make_stream(8)
        model, x, y = random_instance(rng)
        x2 = np.vstack([x[0], x[0], x[1 % len(y)]])
        y2 = np.array([y[0], y[0], y[1 % len(y)]])
        _, cache = forward_loss(model, x2, y2)
        dup = backward(model, cache)
        dedup = weighted_grads(model, np.vstack([x[0], x[1 % len(y)]]),
                               np.array([y[0], y[1 % len(y)]]),
                               np.array([2 / 3, 1 / 3]))
        for name in dup:
            np.testing.assert_allclose(dup[name], dedup[name],
                                       rtol=1e-12, atol=1e-15)

    def test_zero_input_batch_gives_zero_first_layer_gradient(self):
        model = init_mlp(3, 5, 2, make_stream(4))
        x = np.zeros((4, 3))
        y = np.array([0, 1, 0, 1])
        _, cache = forward_loss(model, x, y)
        grads = backward(model, cache)
        assert np.all(grads["w1"] == 0.0)
        assert np.all(grads["b1"] == 0.0)

    def test_bits_match_the_two_layer_pass_written_by_name(self):
        rng = make_stream(21)
        cases = [random_instance(rng) for _ in range(20)]
        desk = init_mlp(32, 64, 100, rng)
        cases.append((desk, rng.normal(size=(64, 32)),
                      rng.integers(0, 100, size=64)))
        for model, x, y in cases:
            loss, probs, grads, error = two_layer_pass(model, x, y)
            got_loss, cache = forward_loss(model, x, y)
            assert got_loss == loss
            assert np.array_equal(cache[-1], probs)
            got = backward(model, cache)
            for name, g in grads.param_items():
                assert np.array_equal(got[name], g), name
            assert error_rate(model, x, y) == error


class TestParameterBuffer:
    def test_named_parameters_are_views_of_one_buffer(self):
        model = init_mlp(3, 5, 2, make_stream(6))
        assert model.flat.size == 3 * 5 + 5 + 5 * 2 + 2
        for name, w in model.param_items():
            assert np.shares_memory(w, model.flat), name
        model.flat[:] = 7.0
        assert all((w == 7.0).all() for _, w in model.param_items())
        # the weight slice holds both matrices and no bias
        model.weights[:] = 0.0
        assert not model.w1.any() and not model.w2.any()
        assert (model.b1 == 7.0).all() and (model.b2 == 7.0).all()

    def test_backward_fills_the_given_buffer(self):
        rng = make_stream(12)
        model, x, y = random_instance(rng)
        fresh = backward(model, forward_loss(model, x, y)[1])
        grads = model.zeros_like()
        grads.flat[:] = np.nan  # every entry must be overwritten
        assert backward(model, forward_loss(model, x, y)[1], grads) is grads
        assert np.array_equal(grads.flat, fresh.flat)

    def test_init_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            init_mlp(0, 3, 2, make_stream(0))
        with pytest.raises(ValueError, match="^hidden must be >= 1, got 0$"):
            init_mlp(3, (4, 0), 2, make_stream(0))

    def test_one_width_and_a_one_width_list_build_the_same_bytes(self):
        flats = [init_mlp(16, hidden, 10, make_stream(7)).flat.tobytes()
                 for hidden in (64, (64,), [64], np.int64(64))]
        assert flats[1:] == flats[:1] * 3


class TestLayers:
    @DEPTHS
    def test_names_run_in_layer_order(self, widths):
        model = hand_built(widths, make_stream(3))
        names = [f"{kind}{k}" for k in range(1, len(widths))
                 for kind in "wb"]
        assert [name for name, _ in model.param_items()] == names
        assert list(model) == names
        for name, w in model.param_items():
            assert getattr(model, name) is w and model[name] is w

    @DEPTHS
    def test_views_share_one_buffer_weights_first(self, widths):
        model = hand_built(widths, make_stream(4))
        for name, w in model.param_items():
            assert np.shares_memory(w, model.flat), name
        assert model.weights.size == sum(w.size for w in model.ws)
        model.flat[:] = 7.0
        model.weights[:] = 0.0
        assert not any(w.any() for w in model.ws)
        assert all((b == 7.0).all() for b in model.bs)

    @DEPTHS
    def test_copies_keep_the_layout(self, widths):
        model = hand_built(widths, make_stream(5))
        copy = Mlp(*(a for _, a in model.param_items()))
        zeros = model.zeros_like()
        for other in (copy, zeros):
            assert not np.shares_memory(other.flat, model.flat)
            assert [(n, a.shape) for n, a in other.param_items()] == [
                (n, a.shape) for n, a in model.param_items()]
            assert other.weights.size == model.weights.size
        assert np.array_equal(copy.flat, model.flat)
        assert not zeros.flat.any()

    def test_arrays_must_come_in_weight_bias_pairs(self):
        for count in (0, 3):
            with pytest.raises(TypeError):
                Mlp(*(np.ones((1, 1)) for _ in range(count)))

    @pytest.mark.parametrize("params", [
        (np.ones((2, 3)), np.zeros(3), np.ones((4, 5)), np.zeros(5)),
        (np.ones((2, 3)), np.zeros(2), np.ones((3, 5)), np.zeros(5)),
        (np.ones((2, 3)), np.zeros((1, 3)), np.ones((3, 5)), np.zeros(5)),
        (np.ones(6), np.zeros(3), np.ones((3, 5)), np.zeros(5)),
    ], ids=["fan_in_mismatch", "short_bias", "2d_bias", "flat_weight"])
    def test_layers_must_chain(self, params):
        with pytest.raises(ValueError, match="layers do not chain"):
            Mlp(*params)

    @DEPTHS
    def test_backward_matches_finite_differences(self, widths):
        rng = make_stream(6)
        built = init_mlp(widths[0], widths[1:-1], widths[-1], rng)
        assert [w.shape for w in built.ws] == list(zip(widths, widths[1:]))
        for model in (hand_built(widths, rng), built):
            x = rng.normal(size=(7, widths[0]))
            y = rng.integers(0, widths[-1], size=7)
            analytic = backward(model, forward_loss(model, x, y)[1])
            numeric = finite_difference_grads(model, x, y)
            for name in analytic:
                a, f = analytic[name], numeric[name]
                denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
                assert (np.abs(a - f) / denom).max() < 1e-4, name


class TestErrorRate:
    def test_error_rate_counts_mismatches(self):
        model = Mlp(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2))
        x = np.array([[5.0, 0.0], [0.0, 5.0], [5.0, 0.0]])
        assert error_rate(model, x, np.array([0, 1, 0])) == 0.0
        assert error_rate(model, x, np.array([0, 1, 1])) == pytest.approx(1 / 3)

    def test_memory_is_one_block_of_rows(self):
        rng = make_stream(0)
        model = init_mlp(16, 100, 10, rng)
        x = rng.normal(0.0, 1.0, size=(20_000, 16))
        y = rng.integers(0, 10, size=20_000)
        # unblocked: argmax over the whole split's logits at once
        hidden = np.maximum(x @ model.w1 + model.b1, 0.0)
        wrong = np.count_nonzero((hidden @ model.w2 + model.b2).argmax(axis=1)
                                 != y)
        del hidden
        tracemalloc.start()
        try:
            rate = error_rate(model, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rate == wrong / y.size
        # One block is BLOCK_ELEMENTS float64 entries of hidden output
        # (256 KiB) and its logits; the whole split's would be 16 MB.
        assert peak < 2 * BLOCK_ELEMENTS * 8
