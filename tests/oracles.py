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
BCE_CLAMP = 1e-7


def ld_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ld_lstm_final_hidden(params, seq):
    """Final hidden state of the standard LSTM recurrence in longdouble.

    ``params`` uses the live float64 arrays keyed "lstm.w_i", ...;
    ``seq`` is (B, T, D).
    """
    P = {key: val.astype(LD) for key, val in params.items()}
    x = seq.astype(LD)
    batch, steps, _ = x.shape
    hidden = P["lstm.w_i"].shape[0]
    h = np.zeros((batch, hidden), dtype=LD)
    c = np.zeros((batch, hidden), dtype=LD)
    for t in range(steps):
        xt = x[:, t]
        gi = ld_sigmoid(xt @ P["lstm.w_i"].T + h @ P["lstm.u_i"].T + P["lstm.b_i"])
        gf = ld_sigmoid(xt @ P["lstm.w_f"].T + h @ P["lstm.u_f"].T + P["lstm.b_f"])
        go = ld_sigmoid(xt @ P["lstm.w_o"].T + h @ P["lstm.u_o"].T + P["lstm.b_o"])
        gg = np.tanh(xt @ P["lstm.w_g"].T + h @ P["lstm.u_g"].T + P["lstm.b_g"])
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


def ld_bce(pred, label):
    p = np.clip(pred, LD(BCE_CLAMP), LD(1.0) - LD(BCE_CLAMP))
    y = LD(label)
    return np.mean(-(y * np.log(p) + (LD(1.0) - y) * np.log(LD(1.0) - p)))


def forecaster_mse_loss(params, window, target, activation, mask=None):
    """Longdouble loss closure factory for the finite-difference checker."""
    def loss():
        pred = ld_forecaster_output(params, window, activation, mask=mask)
        return ld_mse(pred, target)
    return loss


def discriminator_bce_loss(params, seq, label):
    def loss():
        h, P = ld_lstm_final_hidden(params, seq)
        prob = ld_sigmoid(h @ P["head.weight"].T + P["head.bias"])
        return ld_bce(prob[:, 0], label)
    return loss


def combined_adversarial_loss(g_params, d_params, window, target, activation,
                              adv_weight, mask=None):
    """Generator loss: adv_weight * bce(D(pred), 1) + mse(pred, target)."""
    def loss():
        pred = ld_forecaster_output(g_params, window, activation, mask=mask)
        h, P = ld_lstm_final_hidden(d_params, pred[:, None, :])
        prob = ld_sigmoid(h @ P["head.weight"].T + P["head.bias"])
        return LD(adv_weight) * ld_bce(prob[:, 0], 1.0) + ld_mse(pred, target)
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
