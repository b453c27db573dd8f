"""Independent oracle implementations used by the test suite.

Everything here is written against the mathematical definitions, not the
package internals: extended-precision straight-line forward passes for
finite-difference gradient checks and the central-difference checker
that runs them, a brute-force covariance eigendecomposition for PCA, and
a scalar Nesterov-Adam update.
"""

import math

import numpy as np

LD = np.longdouble


def ld_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ld_lstm_final_hidden(params, seq):
    """Final hidden state of the standard LSTM recurrence in longdouble.

    ``params`` uses the live float64 arrays keyed "lstm.W", "lstm.U",
    "lstm.b", whose row blocks are the gates i, f, o, g; ``seq`` is
    (B, T, D).
    """
    P = {key: val.astype(LD) for key, val in params.items()}
    x = seq.astype(LD)
    batch, steps, _ = x.shape
    hidden = P["lstm.U"].shape[1]
    gate = {}
    for k, name in enumerate("ifog"):
        rows = slice(k * hidden, (k + 1) * hidden)
        gate[name] = (P["lstm.W"][rows], P["lstm.U"][rows], P["lstm.b"][rows])
    h = np.zeros((batch, hidden), dtype=LD)
    c = np.zeros((batch, hidden), dtype=LD)
    for t in range(steps):
        xt = x[:, t]
        pre = {name: xt @ w.T + h @ u.T + b
               for name, (w, u, b) in gate.items()}
        gi, gf, go = (ld_sigmoid(pre[name]) for name in "ifo")
        gg = np.tanh(pre["g"])
        c = gf * c + gi * gg
        h = go * np.tanh(c)
    return h, P


def ld_forecaster_output(params, seq, activation, mask=None):
    h, P = ld_lstm_final_hidden(params, seq)
    if mask is not None:
        h = h * mask.astype(LD)
    y = h @ P["head.weight"].T + P["head.bias"]
    if activation == "sigmoid":
        return ld_sigmoid(y)
    if activation == "relu":
        return np.maximum(y, LD(0.0))
    return y


def ld_mse(pred, target):
    return np.mean((pred - target.astype(LD)) ** 2)


def ld_softplus(z):
    """softplus(z) = log(1 + e^z) in longdouble, without overflow."""
    z = np.asarray(z, dtype=LD)
    return np.maximum(z, 0) + np.log1p(np.exp(-np.abs(z)))


def ld_bce(z, label):
    """The mean BCE of sigmoid(z) against ``label``, from the logits z:
    -log sigmoid(z) = softplus(-z) and -log(1 - sigmoid(z)) = softplus(z).
    """
    return np.mean(ld_softplus(-z if label else z))


def ld_discriminator_logit(params, seq):
    """The discriminator's linear head on its final hidden state, (B,)."""
    h, P = ld_lstm_final_hidden(params, seq)
    return (h @ P["head.weight"].T + P["head.bias"])[:, 0]


def forecaster_mse_loss(params, window, target, activation, mask=None):
    """Longdouble loss closure factory for the finite-difference checker."""
    def loss():
        pred = ld_forecaster_output(params, window, activation, mask=mask)
        return ld_mse(pred, target)
    return loss


def discriminator_bce_loss(params, seq, label):
    def loss():
        return ld_bce(ld_discriminator_logit(params, seq), label)
    return loss


def combined_adversarial_loss(g_params, d_params, window, target, activation,
                              adv_weight, mask=None):
    """Generator loss: mse(pred, target) + adv_weight * bce(D(seq), 1),
    where D scores each window followed by its prediction."""
    def loss():
        pred = ld_forecaster_output(g_params, window, activation, mask=mask)
        seq = np.concatenate([window.astype(LD), pred[:, None, :]], axis=1)
        adv = ld_bce(ld_discriminator_logit(d_params, seq), 1)
        return ld_mse(pred, target) + LD(adv_weight) * adv
    return loss


def covariance_eig(data):
    """Brute-force PCA oracle: eigendecomposition of the scatter matrix.

    Returns (mean, eigenvalues desc, eigenvectors as rows) where the
    eigenvalues equal the squared singular values of the centered data.
    """
    data = np.asarray(data, dtype=np.float64)
    mean = data.mean(axis=0)
    centered = data - mean
    scatter = centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(scatter)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    vecs = eigvecs[:, order].T
    flip = np.sign(vecs[np.arange(vecs.shape[0]), np.argmax(np.abs(vecs), axis=1)])
    flip[flip == 0] = 1.0
    return mean, eigvals, vecs * flip[:, None]


def nadam_scalar(theta, grad, m, v, t_prev, lr, beta1, beta2, eps):
    """One scalar Nesterov-Adam update; returns (theta, m, v, t)."""
    t = t_prev + 1
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** (t + 1))
    g_hat = grad / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    theta = theta - lr * (beta1 * m_hat + (1.0 - beta1) * g_hat) / (
        math.sqrt(v_hat) + eps
    )
    return theta, m, v, t


def smooth_windows(rng, count, lag, tau, steps=300):
    """Quasi-periodic scaled-PC-like windows for gradient tests."""
    t = np.arange(steps)
    periods = 17.0 + 5.0 * np.arange(tau)
    base = 0.5 + 0.4 * np.sin(2 * np.pi * t[:, None] / periods[None, :])
    base = base * (0.92 ** np.arange(tau))[None, :]
    base += 0.05 * rng.standard_normal(base.shape)
    idx = rng.integers(0, steps - lag - 1, size=count)
    windows = np.stack([base[i:i + lag] for i in idx])
    return windows, base[idx + lag]


def grad_check(params, loss_fn, grads, n_samples=100, epsilon=1e-5, rng=None):
    """Worst relative error between analytic grads and central differences.

    ``params`` is a dict of live arrays that ``loss_fn()`` closes over;
    entries are perturbed in place and restored. The loss must be
    deterministic (dropout disabled or its mask frozen).
    """
    rng = np.random.default_rng(rng)
    coords = []
    for key in sorted(params):
        for idx in range(params[key].size):
            coords.append((key, idx))
    if n_samples < len(coords):
        chosen = [coords[k] for k in rng.choice(len(coords), size=n_samples,
                                                replace=False)]
    else:
        chosen = coords
    worst = 0.0
    for key, idx in chosen:
        arr = params[key]
        orig = arr.flat[idx]
        arr.flat[idx] = orig + epsilon
        up = loss_fn()
        arr.flat[idx] = orig - epsilon
        down = loss_fn()
        arr.flat[idx] = orig
        fd = (up - down) / (2.0 * epsilon)
        analytic = grads[key].flat[idx]
        rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8)
        worst = max(worst, rel)
    return worst
