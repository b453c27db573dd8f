"""Losses (MSE, and binary cross-entropy on the discriminator's logits),
the flat parameter mapping and the Nadam optimizer.

The discriminator emits a logit z, and ``bce`` takes it: -log sigmoid(z)
is softplus(-z) and -log(1 - sigmoid(z)) is softplus(z). So the loss
needs no clamp and its gradient, sigmoid(z) - y, never vanishes where
the discriminator saturates. For label 1 this is the stable form of the
non-saturating generator loss -log D(G(x)) (Goodfellow et al. 2014,
arXiv:1406.2661).
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import LabelOutOfRange, ShapeMismatch


def mse(pred, target):
    """Mean over all elements of the squared difference; an error too
    large to square gives inf, which training reports as diverged."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"{pred.shape} vs {target.shape}")
    with np.errstate(over="ignore"):
        return float(np.mean((pred - target) ** 2))


def mse_grad(pred, target):
    """d mse / d pred = 2 (pred - target) / count, in the inputs' dtype."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"{pred.shape} vs {target.shape}")
    return 2.0 * (pred - target) / pred.size


def bce(logits, label):
    """Binary cross-entropy of sigmoid(``logits``) against one label,
    averaged over the batch, and its gradient d bce / d logits.

    ``label`` is one literal 0 or 1 for the whole batch. The loss is the
    mean of softplus(-z) for label 1 and of softplus(z) for label 0, as
    ``logaddexp(0, -+z)``; the gradient is (sigmoid(z) - label) / count,
    as 0.5 (tanh(z / 2) -+ 1) / count. Neither can overflow. Returns
    (loss, grad), the gradient in the dtype of ``logits``.
    """
    if not isinstance(label, (int, float)) or label not in (0, 1):
        raise LabelOutOfRange("the label must be a literal 0 or 1")
    z = np.atleast_1d(np.asarray(logits))
    loss = float(np.logaddexp(0.0, -z if label else z).sum()) / z.size
    grad = np.tanh(0.5 * z)
    grad -= 1.0 if label else -1.0
    grad *= 0.5 / z.size
    return loss, grad


def bce_grad(logits, label):
    """The gradient of ``bce`` alone (``perfbench/spans.py`` traces it)."""
    return bce(logits, label)[1]


class FlatParams(Mapping):
    """Named arrays laid out one after another in one buffer, of their
    common floating dtype (float64 for models on disk and in inference,
    float32 while training).

    ``flat`` is the buffer and ``self[name]`` a view into it, so writing
    either writes both. ``layout`` maps each name to its (offset, shape);
    mappings with equal layouts line up element for element, which lets
    Nadam and clipping act on ``flat`` alone.
    """

    def __init__(self, flat, layout):
        self.flat = flat
        self.layout = layout

    @classmethod
    def pack(cls, arrays):
        """Copy named arrays, in order, into a new buffer of their
        common floating dtype."""
        layout = {}
        offset = 0
        for key, arr in arrays.items():
            layout[key] = (offset, np.shape(arr))
            offset += np.size(arr)
        flat = np.empty(offset, np.result_type(np.float32, *arrays.values()))
        params = cls(flat, layout)
        for key, arr in arrays.items():
            params[key][...] = arr
        return params

    def __getitem__(self, key):
        offset, shape = self.layout[key]
        return self.flat[offset:offset + math.prod(shape)].reshape(shape)

    def __iter__(self):
        return iter(self.layout)

    def __len__(self):
        return len(self.layout)


@dataclass
class NadamState:
    """Step count plus first/second-moment accumulators, flat like the
    parameter buffer (allocated on the first step)."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray = None
    v: np.ndarray = None


def nadam_step(state, params, grads):
    """One Nesterov-Adam update, in place on ``params``.

    ``params`` and ``grads`` are ``FlatParams`` of one layout; the update
    is one vectorised pass over their buffers. With t incremented first:
        m <- b1 m + (1-b1) g          v <- b2 v + (1-b2) g^2
        m_hat = m / (1 - b1^(t+1))    g_hat = g / (1 - b1^t)
        theta -= lr (b1 m_hat + (1-b1) g_hat) / (sqrt(v / (1 - b2^t)) + eps)
    """
    if grads.layout != params.layout:
        raise ShapeMismatch("gradient layout differs from the parameters'")
    theta, g = params.flat, grads.flat
    if state.m is None:
        state.m = np.zeros_like(theta)
        state.v = np.zeros_like(theta)
    state.t += 1
    t = state.t
    b1, b2 = state.beta1, state.beta2
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    # the update above with its scalar factors folded: one division and
    # one square root per element
    step = m * (state.lr * b1 / (1.0 - b1 ** (t + 1)))
    step += g * (state.lr * (1.0 - b1) / (1.0 - b1**t))
    den = np.sqrt(v)
    den *= 1.0 / math.sqrt(1.0 - b2**t)
    den += state.eps
    step /= den
    theta -= step
    return params, state


def clip_global_norm(grads, max_norm):
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.

    The norm is taken in float64: a float32 sum of squares overflows
    above ~1e19 and would scale the gradient to zero."""
    if max_norm <= 0:
        return grads
    flat = grads.flat.astype(np.float64, copy=False)
    total = math.sqrt(float(flat @ flat))
    if total > max_norm:
        grads.flat *= max_norm / total
    return grads
