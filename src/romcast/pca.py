"""Mean + truncated principal-component decomposition of snapshot matrices.

States decompose as ``x = scores @ eofs + mean``; truncation keeps the
first tau components, and a basis stores only those tau EOF rows. EOF
rows are orthonormal and sign-fixed (largest magnitude entry positive)
so fitted bases are reproducible.

The fit uses the method of snapshots (Sirovich, Q. Appl. Math. 45,
1987): instead of an SVD of the centered n x m matrix X, it takes the
symmetric eigendecomposition of the Gram matrix of the shorter side,
X X^T (n x n) when n <= m and X^T X (m x m) otherwise. Its eigenvalues
are the squared singular values of X. One Rayleigh-Ritz step then turns
the kept subspace into EOFs: with Q an orthonormal m x tau basis of it
(the QR factor of X^T V_tau, or V_tau itself when n > m), the SVD of the
small n x tau matrix X Q rotates Q into the EOF rows, which are thus
orthonormal to machine precision even when the subspace takes in a null
direction. Forming the Gram matrix squares the condition number, so the
tail singular values are accurate in energy (sigma^2 to about
n * eps * sigma_1^2), not relative to their own size; explained-variance
fractions, the only use of the tail, need no more.
"""

from dataclasses import dataclass

import numpy as np

from . import romf
from .errors import (
    DegenerateData,
    InvalidConfig,
    NonFiniteInput,
    NumericalFailure,
    ShapeMismatch,
)


@dataclass(frozen=True)
class PcaBasis:
    mean: np.ndarray  # (m,)
    eofs: np.ndarray  # (tau, m), orthonormal rows
    singular_values: np.ndarray  # (min(n, m),), nonincreasing
    n: int
    field: str = "all"  # the snapshot field fitted, or "all" for every column

    def __post_init__(self):
        if (self.eofs.ndim != 2 or self.mean.shape != (self.eofs.shape[1],)
                or self.singular_values.ndim != 1):
            raise ShapeMismatch("a basis needs mean (m,), eofs (tau, m) and "
                                "1-D singular values")
        if not 1 <= self.tau <= self.rank:
            raise InvalidConfig(f"tau={self.tau} outside [1, {self.rank}]")

    @property
    def tau(self):
        return self.eofs.shape[0]

    @property
    def m(self):
        return self.mean.size

    @property
    def rank(self):
        return self.singular_values.size

    def save(self, path):
        romf.write_arrays(path, {"mean": self.mean, "eofs": self.eofs,
                                 "singular_values": self.singular_values},
                          {"n": self.n, "field": self.field})

    @classmethod
    def load(cls, path):
        arrays, meta = romf.read_arrays(path)
        romf.require(arrays, ["mean", "eofs", "singular_values"], path)
        romf.require(meta, {"n": int, "field": str}, path, "meta key")
        with romf.building(path):
            return cls(mean=arrays["mean"], eofs=arrays["eofs"],
                       singular_values=arrays["singular_values"],
                       n=meta["n"], field=meta["field"])


def _as_matrix(snapshots):
    data = getattr(snapshots, "data", snapshots)
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ShapeMismatch("expected an n x m matrix")
    if data.shape[0] < 2:
        raise InvalidConfig("need at least 2 snapshots to fit a basis")
    if not np.all(np.isfinite(data)):
        raise NonFiniteInput("snapshot data contains NaN/Inf")
    return data


def fit(snapshots, tau=None, variance=None):
    """Fit a PCA basis; truncate to ``tau`` or by explained-variance fraction.

    Exactly one of ``tau`` / ``variance`` must be given. With a variance
    fraction v in (0, 1], tau becomes the smallest k whose cumulative
    explained variance reaches v.
    """
    if (tau is None) == (variance is None):
        raise InvalidConfig("give exactly one of tau or variance")
    data = _as_matrix(snapshots)
    n, m = data.shape
    mean = data.mean(axis=0)
    centered = data - mean
    wide = n <= m
    gram = centered @ centered.T if wide else centered.T @ centered
    try:
        energy, vecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigh failed to converge: {exc}") from exc
    s = np.sqrt(np.clip(energy[::-1], 0.0, None))
    if not np.any(s > 0):
        raise DegenerateData("centered snapshot matrix is zero; tau undefined")

    if variance is not None:
        if not 0.0 < variance <= 1.0:
            raise InvalidConfig("variance fraction must lie in (0, 1]")
        fractions = _cumulative_fractions(s)
        tau = int(np.searchsorted(fractions, variance, side="left")) + 1
        tau = min(tau, s.size)
    else:
        tau = int(tau)
        if not 1 <= tau <= s.size:
            raise InvalidConfig(f"tau={tau} outside [1, {s.size}]")

    # Rayleigh-Ritz on the kept subspace, spanned by the orthonormal q (m, tau)
    kept = vecs[:, ::-1][:, :tau]
    try:
        q = np.linalg.qr(centered.T @ kept)[0] if wide else kept
        eofs = np.linalg.svd(centered @ q, full_matrices=False)[2] @ q.T
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Rayleigh-Ritz SVD failed: {exc}") from exc

    # sign convention: each EOF's largest-magnitude entry is positive
    flip = np.sign(eofs[np.arange(tau), np.argmax(np.abs(eofs), axis=1)])
    flip[flip == 0] = 1.0
    eofs *= flip[:, None]
    return PcaBasis(mean=mean, eofs=eofs, singular_values=s, n=n)


def project(basis, states):
    """Map (..., m) states to (..., tau) scores: (states - mean) @ eofs_tau.T."""
    states = np.asarray(states, dtype=np.float64)
    if states.shape[-1:] != (basis.m,):
        raise ShapeMismatch(f"expected {basis.m} columns, got {states.shape}")
    return (states - basis.mean) @ basis.eofs.T


def reconstruct(basis, scores):
    """Map (..., tau) scores back to state space: scores @ eofs_tau + mean."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[-1:] != (basis.tau,):
        raise ShapeMismatch(f"expected {basis.tau} columns, got {scores.shape}")
    return scores @ basis.eofs + basis.mean


def explained_variance(basis):
    """Cumulative explained-variance fractions, one entry per component."""
    return _cumulative_fractions(basis.singular_values)


def _cumulative_fractions(singular_values):
    energy = np.cumsum(singular_values**2)
    if energy[-1] <= 0:
        raise DegenerateData("all singular values are zero")
    return energy / energy[-1]
