"""One-hidden-layer rectifier network with softmax cross-entropy.

Deliberately the smallest model whose training is nonconvex, so sampler
effects are observable while the gradients stay cheap to verify against
finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PARAM_NAMES = ("w1", "b1", "w2", "b2")
_STORAGE_ORDER = ("w1", "w2", "b1", "b2")


@dataclass(eq=False)
class Mlp:
    """The four parameters as named views into one contiguous float64
    buffer `flat`, stored w1, w2, b1, b2 so that `weights`, the entries
    of both weight matrices, is a single leading slice.  Gradients use
    the same class, so a whole-model update is a few whole-buffer ops.
    The constructor copies its arrays into a fresh buffer.
    """

    w1: np.ndarray  # (dim, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, classes)
    b2: np.ndarray  # (classes,)
    flat: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        parts = [np.asarray(getattr(self, name), dtype=np.float64)
                 for name in _STORAGE_ORDER]
        self.flat = np.concatenate([p.ravel() for p in parts])
        offset = 0
        for name, part in zip(_STORAGE_ORDER, parts):
            view = self.flat[offset:offset + part.size].reshape(part.shape)
            setattr(self, name, view)
            offset += part.size
        self.weights = self.flat[:self.w1.size + self.w2.size]

    def zeros_like(self) -> Mlp:
        """A zero buffer with this layout, e.g. for gradients."""
        return Mlp(*(np.zeros_like(p) for _, p in self.param_items()))

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in PARAM_NAMES]

    def __iter__(self):
        return iter(PARAM_NAMES)

    def __getitem__(self, name: str) -> np.ndarray:
        return dict(self.param_items())[name]


@dataclass
class ForwardCache:
    x: np.ndarray
    y: np.ndarray
    a1: np.ndarray
    probs: np.ndarray


def check_mlp_sizes(dim: int, hidden: int, classes: int) -> None:
    """Raise ValueError unless every layer width is >= 1."""
    if min(dim, hidden, classes) < 1:
        raise ValueError("dim, hidden and classes must all be >= 1")


def init_mlp(dim: int, hidden: int, classes: int,
             rng: np.random.Generator) -> Mlp:
    """Gaussian weights scaled by 1/sqrt(fan-in), zero biases."""
    check_mlp_sizes(dim, hidden, classes)
    w1 = rng.normal(0.0, 1.0, size=(dim, hidden)) / np.sqrt(dim)
    w2 = rng.normal(0.0, 1.0, size=(hidden, classes)) / np.sqrt(hidden)
    return Mlp(w1, np.zeros(hidden), w2, np.zeros(classes))


def _logits(model: Mlp, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and output logits, each made in place."""
    a1 = x @ model.w1
    a1 += model.b1
    np.maximum(a1, 0.0, out=a1)
    z2 = a1 @ model.w2
    z2 += model.b2
    return a1, z2


def forward_loss(model: Mlp, x: np.ndarray,
                 y: np.ndarray) -> tuple[float, ForwardCache]:
    """Mean cross-entropy of softmax outputs over the batch.

    The logits are shifted by their row maximum and the label logits read
    before one in-place exp turns them into probabilities, so the loss
    mean(log norm - picked) is finite for any finite logits.  Returns the
    cached activations needed by `backward`.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[1] != model.w1.shape[0]:
        raise ValueError(
            f"batch features must be (n, {model.w1.shape[0]}), "
            f"got {x.shape}"
        )
    a1, probs = _logits(model, x)
    probs -= probs.max(axis=1, keepdims=True)
    picked = probs[np.arange(x.shape[0]), y]
    np.exp(probs, out=probs)
    norm = probs.sum(axis=1)
    probs /= norm[:, None]
    loss = float((np.log(norm) - picked).sum()) / x.shape[0]
    return loss, ForwardCache(x, y, a1, probs)


def backward(model: Mlp, cache: ForwardCache,
             grads: Mlp | None = None) -> Mlp:
    """Analytic gradient of the mean cross-entropy for every parameter.

    Written into `grads` (a buffer with the model's layout) when given,
    else into a new one.  `cache.probs` is taken over as the logit
    gradient and overwritten, so a cache serves one backward pass.
    """
    if grads is None:
        grads = model.zeros_like()
    n = cache.x.shape[0]
    dz2 = cache.probs
    dz2[np.arange(n), cache.y] -= 1.0
    dz2 /= n
    np.matmul(cache.a1.T, dz2, out=grads.w2)
    np.sum(dz2, axis=0, out=grads.b2)
    dz1 = dz2 @ model.w2.T
    dz1 *= cache.a1 > 0.0
    np.matmul(cache.x.T, dz1, out=grads.w1)
    np.sum(dz1, axis=0, out=grads.b1)
    return grads


def predict(model: Mlp, x: np.ndarray) -> np.ndarray:
    """Argmax class labels for a feature matrix."""
    _, z2 = _logits(model, np.asarray(x, dtype=np.float64))
    return z2.argmax(axis=1)


def error_rate(model: Mlp, x: np.ndarray, y: np.ndarray) -> float:
    """Misclassification rate in [0, 1]."""
    y = np.asarray(y)
    return float(np.count_nonzero(predict(model, x) != y) / y.size)
