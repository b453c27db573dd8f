"""Losses (MSE, binary cross-entropy), the flat parameter mapping and
the Nadam optimizer."""

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import LabelOutOfRange, ShapeMismatch

BCE_CLAMP = 1e-7  # predictions are clamped to [eps, 1-eps] before the log


def mse(pred, target):
    """Mean over all elements of the squared difference."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"{pred.shape} vs {target.shape}")
    return float(np.mean((pred - target) ** 2))


def mse_grad(pred, target):
    """d mse / d pred = 2 (pred - target) / count."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"{pred.shape} vs {target.shape}")
    return 2.0 * (pred - target) / pred.size


def _check_labels(label, shape):
    label = np.broadcast_to(np.asarray(label, dtype=np.float64), shape)
    if not np.all((label == 0.0) | (label == 1.0)):
        raise LabelOutOfRange("labels must be exactly 0 or 1")
    return label


def bce(pred, label):
    """Binary cross-entropy averaged over the batch, with clamped preds."""
    pred = np.atleast_1d(np.asarray(pred, dtype=np.float64))
    label = _check_labels(label, pred.shape)
    p = np.clip(pred, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return float(np.mean(-(label * np.log(p) + (1.0 - label) * np.log1p(-p))))


def bce_grad(pred, label):
    """d bce / d pred; zero where the clamp is active."""
    pred = np.atleast_1d(np.asarray(pred, dtype=np.float64))
    label = _check_labels(label, pred.shape)
    p = np.clip(pred, BCE_CLAMP, 1.0 - BCE_CLAMP)
    inside = (pred > BCE_CLAMP) & (pred < 1.0 - BCE_CLAMP)
    grad = np.where(inside, (p - label) / (p * (1.0 - p)), 0.0)
    return grad / pred.size


class FlatParams(Mapping):
    """Named arrays laid out one after another in one float64 buffer.

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
        """Copy named arrays, in order, into a new buffer."""
        layout = {}
        offset = 0
        for key, arr in arrays.items():
            layout[key] = (offset, np.shape(arr))
            offset += np.size(arr)
        flat = np.empty(offset)
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
    """Scale all gradients so their joint L2 norm is at most ``max_norm``."""
    if max_norm <= 0:
        return grads
    total = math.sqrt(float(grads.flat @ grads.flat))
    if total > max_norm:
        grads.flat *= max_norm / total
    return grads
