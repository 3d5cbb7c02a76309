"""Rectifier networks with softmax cross-entropy.

`Mlp` holds a network of any depth; `init_mlp` builds it from a list of
hidden widths, by default one: the smallest model whose training is
nonconvex, so sampler effects are observable while the gradients stay cheap
to verify against finite differences.  No hidden layer is softmax regression.
"""

from __future__ import annotations

import operator

import numpy as np

from .samplers import BLOCK_ELEMENTS


class Mlp:
    """Layer k's weight `ws[k]` (fan-in, fan-out) and bias `bs[k]` as
    views into one contiguous float64 buffer `flat`, which stores every
    weight and then every bias, so that `weights`, the entries of all
    weight matrices, is a single leading slice.  Built as
    `Mlp(w1, b1, w2, b2, ...)` from layers that chain; it copies them into
    a fresh buffer and names each view as in `param_items`.  Gradients use
    the same class, so a whole-model update is a few whole-buffer ops.
    """

    def __init__(self, *params: np.ndarray) -> None:
        depth, odd = divmod(len(params), 2)
        if odd or not depth:
            raise TypeError(f"Mlp takes weight, bias pairs, got {len(params)}")
        parts = [np.asarray(p, dtype=np.float64) for p in params]
        ws, bs = parts[0::2], parts[1::2]
        if (any(w.ndim != 2 for w in ws)
                or [b.shape for b in bs] != [w.shape[1:] for w in ws]
                or [w.shape[0] for w in ws[1:]] != [b.size for b in bs[:-1]]):
            raise ValueError(f"layers do not chain: {[p.shape for p in parts]}")
        parts = ws + bs
        self.flat = np.concatenate([p.ravel() for p in parts])
        bounds = np.cumsum([0] + [p.size for p in parts])
        views = [self.flat[i:j].reshape(p.shape)
                 for i, j, p in zip(bounds, bounds[1:], parts)]
        self.ws, self.bs = views[:depth], views[depth:]
        self.weights = self.flat[:bounds[depth]]
        for name, view in self.param_items():
            setattr(self, name, view)

    def zeros_like(self) -> Mlp:
        """A zero buffer with this layout, e.g. for gradients."""
        return Mlp(*(np.zeros_like(p) for _, p in self.param_items()))

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """(name, view) in layer order: w1, b1, w2, b2, ..."""
        return [(f"{kind}{k}", p)
                for k, layer in enumerate(zip(self.ws, self.bs), start=1)
                for kind, p in zip("wb", layer)]

    def __iter__(self):
        return (name for name, _ in self.param_items())

    def __getitem__(self, name: str) -> np.ndarray:
        return dict(self.param_items())[name]


def check_mlp_sizes(dim: int, hidden: int | tuple[int, ...],
                    classes: int) -> tuple[int, ...]:
    """Layer widths `(dim, *hidden, classes)` as ints, each must be >= 1."""
    widths = tuple(map(operator.index, (dim, *np.atleast_1d(hidden), classes)))
    keys = ("dim", *["hidden"] * (len(widths) - 2), "classes")
    for key, width in zip(keys, widths):
        if width < 1:
            raise ValueError(f"{key} must be >= 1, got {width}")
    return widths


def init_mlp(dim: int, hidden: int | tuple[int, ...], classes: int,
             rng: np.random.Generator) -> Mlp:
    """Layers of widths `(dim, *hidden, classes)`: Gaussian weights /
    sqrt(fan-in), drawn in layer order; zero biases."""
    widths = check_mlp_sizes(dim, hidden, classes)
    params = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        params += [rng.normal(0.0, 1.0, size=(fan_in, fan_out))
                   / np.sqrt(fan_in), np.zeros(fan_out)]
    return Mlp(*params)


def _logits(model: Mlp, x: np.ndarray) -> tuple[list, np.ndarray]:
    """Every layer's input, `x` and then each hidden activation, and the
    output logits; each activation and the logits are made in place."""
    acts = [x]
    for w, b in zip(model.ws[:-1], model.bs[:-1]):
        a = acts[-1] @ w
        a += b
        acts.append(np.maximum(a, 0.0, out=a))
    z = acts[-1] @ model.ws[-1]
    z += model.bs[-1]
    return acts, z


def forward_loss(model: Mlp, x: np.ndarray,
                 y: np.ndarray) -> tuple[float, tuple]:
    """Mean cross-entropy of softmax outputs over the batch.

    The logits are shifted by their row maximum and the label logits read
    before one in-place exp turns them into probabilities, so the loss
    mean(log norm - picked) is finite for any finite logits.  Returns the
    loss and the cache `(y, acts, probs)` that `backward` needs.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    dim = model.ws[0].shape[0]
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"batch features must be (n, {dim}), got {x.shape}")
    acts, probs = _logits(model, x)
    # ufunc reductions called directly: the loops of ndarray.max and .sum
    # without their dispatch
    probs -= np.maximum.reduce(probs, axis=1, keepdims=True)
    picked = probs[np.arange(x.shape[0]), y]
    np.exp(probs, out=probs)
    norm = np.add.reduce(probs, axis=1)
    probs /= norm[:, None]
    loss = float(np.add.reduce(np.log(norm) - picked)) / x.shape[0]
    return loss, (y, acts, probs)


def backward(model: Mlp, cache: tuple, grads: Mlp | None = None) -> Mlp:
    """Analytic gradient of the mean cross-entropy for every parameter.

    Written into `grads` (a buffer with the model's layout) when given,
    else into a new one.  The cache's `probs` is taken over as the logit
    gradient and overwritten, so a cache serves one backward pass.
    """
    if grads is None:
        grads = model.zeros_like()
    y, acts, dz = cache
    n = acts[0].shape[0]
    dz[np.arange(n), y] -= 1.0
    dz /= n
    for k in reversed(range(len(acts))):
        np.matmul(acts[k].T, dz, out=grads.ws[k])
        np.add.reduce(dz, axis=0, out=grads.bs[k])
        if k:
            dz = dz @ model.ws[k].T
            dz *= acts[k] > 0.0
    return grads


def error_rate(model: Mlp, x: np.ndarray, y: np.ndarray) -> float:
    """Misclassification rate in [0, 1] of the argmax class labels,
    counted over blocks of rows, each about BLOCK_ELEMENTS entries of the
    widest layer output, so its memory does not grow with the split."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    step = max(1, BLOCK_ELEMENTS // max(w.shape[1] for w in model.ws))
    wrong = sum(np.count_nonzero(
        _logits(model, x[i:i + step])[1].argmax(axis=1) != y[i:i + step])
        for i in range(0, len(x), step))
    return float(wrong / y.size)
