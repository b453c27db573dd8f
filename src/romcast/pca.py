"""Mean + truncated principal-component decomposition of snapshot matrices.

States decompose as ``x = scores @ eofs + mean``; truncation keeps the
first tau components, and a basis stores only those tau EOF rows. EOF
rows are orthonormal and sign-fixed (largest magnitude entry positive)
so fitted bases are reproducible.

The fit uses the method of snapshots (Sirovich, Q. Appl. Math. 45, 1987)
on the Gram matrix G of the shorter side of the centered n x m matrix X:
X X^T when n <= m, X^T X otherwise. Its eigenvalues are the squared
singular values of X and set the rank and tau. Snapshot matrices are
nearly low-rank, so a pivoted Cholesky factor G ~ L L^T (Harbrecht,
Peters & Schneider, Appl. Numer. Math. 62, 2012) resolves the spectrum
in as many steps as its numerical rank. Each step pivots on the largest
residual diagonal p, takes the next column of L as G[:, p] - L L[p]^T
over the square root of that pivot, and subtracts its square from the
residual diagonal; the run stops once trace(G) - ||L||_F^2 is at most
size * eps * trace(G). What is left, S = G - L L^T, is the Schur
complement, positive semidefinite, so its 2-norm is at most that trace
(and the method is stable on such matrices: Higham, Reliable Numerical
Computation, 1990). One Rayleigh-Ritz step on the range of L then gives
the k eigenpairs: with Q its orthonormal basis (the QR factor of L), the
eigenpairs (theta, y) of the small Q^T G Q give (theta, Q y). As
Q Q^T G Q Q^T = L L^T + Q Q^T S Q Q^T, each of these lies between
L L^T's and G's (Weyl's monotonicity and Cauchy's interlacing), so each
stored eigenvalue, one of the k or one of the zeros that pad them out to
min(n, m), lies within 2 * size * eps * trace(G) of the computed Gram's:
the order of the Gram's own rounding. Each vector u, of eigenvalue
lambda, is as accurate as the range of L holds it, about
||S u|| / lambda; L L^T's own mix neighbours by ||S|| over their gap.
One ``eigh`` of G gives spectrum and vectors instead when the variance
fraction is 1, when no certificate comes within size // 4 steps (a
spectrum that is not low-rank), when a pivot is not positive before the
trace is spent (in exact arithmetic the residual diagonal sums to the
trace left, so only rounding can do this), or when tau is past the steps
taken. A run that fails after size // 4 steps costs about a twentieth of
that ``eigh`` (600 x 600, one thread). Each fit names the route it took,
and why, in one INFO line on the ``romcast`` logger (``ROMCAST_LOG=INFO``).
One more Rayleigh-Ritz step turns the tau kept eigenvectors into EOFs:
with Q an orthonormal m x tau basis of their span (the QR factor of
X^T V_tau, or V_tau itself when n > m), the SVD of the small n x tau
matrix X Q rotates Q into the EOF rows, which are thus orthonormal to
machine precision even when the subspace takes in a null direction. Forming the Gram matrix squares the condition
number, so the tail singular values are accurate in energy (sigma^2 to
about n * eps * sigma_1^2), not relative to their own size;
explained-variance fractions, the only use of the tail, need no more.
"""

import logging
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
from .snapshots import check_field

log = logging.getLogger("romcast")


@dataclass(frozen=True)
class PcaConfig:
    """The reduction of one run: the ``field`` fitted, one of
    ``FIELD_NAMES`` or "all", and exactly one truncation, ``tau`` or
    ``variance``. It sets no scaler range: the scaler always maps the
    scores onto [0, 1] (``snapshots.MinMaxScaler``). A config checks
    itself when built, and so on ``replace``, raising InvalidConfig."""

    field: str = "tracer"
    tau: int = 16
    variance: float = None

    def __post_init__(self):
        check_truncation(self.tau, self.variance)
        check_field(self.field)


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
        check_field(self.field)
        for name in ("mean", "eofs", "singular_values"):
            if not np.isfinite(getattr(self, name)).all():
                raise NonFiniteInput(f"basis {name!r} holds NaN/Inf")
        values = self.singular_values
        if np.any(values < 0) or np.any(np.diff(values) > 0):
            raise InvalidConfig("basis singular values must be nonnegative "
                                "and nonincreasing")

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


def _as_matrix(data):
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ShapeMismatch("expected an n x m matrix")
    if data.shape[0] < 2:
        raise InvalidConfig("need at least 2 snapshots to fit a basis")
    if not np.all(np.isfinite(data)):
        raise NonFiniteInput("snapshot data contains NaN/Inf")
    return data


def fit(data, tau=None, variance=None):
    """Fit a PCA basis to the rows of an n x m array; truncate to ``tau``
    or by explained-variance fraction.

    Exactly one of ``tau`` / ``variance`` must be given. With a variance
    fraction v in (0, 1], tau becomes the smallest k whose cumulative
    explained variance reaches v.

    Data whose sigma_1 is within the rounding of the centring raise
    DegenerateData, and so do data no column of which varies. The mean
    of column j is a sum of n terms divided by n, so it lies within
    gamma_n max_i |x_ij| of the exact mean (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, sec. 4.2), gamma_n = n u / (1 - n u)
    with u = eps / 2; subtracting it rounds once more. So each centred
    entry lies within n eps max_i |x_ij| of the exact one, and where no
    column varies the centred matrix X is that error alone: sigma_1 <=
    ||X||_F <= n eps sqrt(n) ||c||_2, c_j = max_i |x_ij|. As c_j <=
    |mean_j| + max_i |X_ij|, a fit refuses sigma_1 <= n eps sqrt(n)
    (||mean||_2 + ||X||_F), with ||X||_F^2 the trace of the Gram matrix.
    """
    check_truncation(tau, variance)
    data = _as_matrix(data)
    n, m = data.shape
    mean = data.mean(axis=0)
    centered = data - mean
    wide = n <= m
    gram = centered @ centered.T if wide else centered.T @ centered
    trace = np.trace(gram)
    # all the variance keeps the whole rank, so only eigh has its vectors
    ritz = "all the variance is kept" if variance == 1.0 \
        else _cholesky(gram, trace)
    if not isinstance(ritz, str) and (tau or 0) > ritz[1].shape[1]:
        ritz = f"tau {tau} is past the {ritz[1].shape[1]} steps taken"
    if isinstance(ritz, str):
        log.info("pca.fit: one eigh of the %d x %d Gram: %s", len(gram),
                 len(gram), ritz)
        energy, vecs = _solve("eigh", np.linalg.eigh, gram)
        energy, vecs = energy[::-1], vecs[:, ::-1]
    else:
        energy, vecs = ritz
        log.info("pca.fit: spectrum certified by pivoted Cholesky in %d "
                 "steps", vecs.shape[1])
    s = np.sqrt(np.clip(energy, 0.0, None))
    rounding = n * np.finfo(np.float64).eps * np.sqrt(n) * (
        np.linalg.norm(mean) + np.sqrt(trace))
    if not s[0] > rounding:
        raise DegenerateData(f"sigma_1 = {s[0]:.3g} is within the rounding "
                             f"of the centring ({rounding:.3g}): the data do "
                             "not vary; tau undefined")

    if variance is not None:
        fractions = _cumulative_fractions(s)
        tau = int(np.searchsorted(fractions, variance, side="left")) + 1
        tau = min(tau, s.size)
    else:
        tau = int(tau)
        if tau > s.size:
            raise InvalidConfig(f"tau={tau} outside [1, {s.size}]")

    # Rayleigh-Ritz on the kept subspace, spanned by the orthonormal q (m, tau)
    kept = vecs[:, :tau]
    q = _solve("QR of X^T V", np.linalg.qr, centered.T @ kept)[0] \
        if wide else kept
    eofs = _solve("Rayleigh-Ritz SVD", np.linalg.svd, centered @ q,
                  full_matrices=False)[2] @ q.T

    # sign convention: each EOF's largest-magnitude entry is positive
    flip = np.sign(eofs[np.arange(tau), np.argmax(np.abs(eofs), axis=1)])
    flip[flip == 0] = 1.0
    eofs *= flip[:, None]
    return PcaBasis(mean=mean, eofs=eofs, singular_values=s, n=n)


def check_truncation(tau=None, variance=None):
    """Raise InvalidConfig unless exactly one of tau >= 1 and variance in
    (0, 1] is given; ``fit`` checks tau against the rank."""
    if (tau is None) == (variance is None):
        raise InvalidConfig("give exactly one of tau or variance")
    if variance is not None and not 0.0 < variance <= 1.0:
        raise InvalidConfig("variance fraction must lie in (0, 1]")
    if tau is not None and tau < 1:
        raise InvalidConfig(f"tau={tau} must be at least 1")


def _cholesky(gram, trace):
    """The spectrum of ``gram`` (descending, padded with zeros to its
    order) and an orthonormal eigenvector for each step's value (columns,
    in the same order), by Rayleigh-Ritz on the range of a pivoted
    Cholesky factor; or, when there is no certificate, a str saying why:
    the trace is not spent within a quarter of the order in steps, or a
    pivot is not positive before it is."""
    size = gram.shape[0]
    tol = size * np.finfo(np.float64).eps * trace
    factor = np.empty((size // 4, size))  # row k: column k of L
    residual = np.diag(gram).copy()
    left = trace
    for k in range(len(factor)):
        p = np.argmax(residual)
        if not residual[p] > 0.0:
            return (f"pivot {k + 1} is {residual[p]:.3g}, not positive, "
                    f"with {left:.3g} of the trace left")
        factor[k] = (gram[p] - factor[:k, p] @ factor[:k]) \
            / np.sqrt(residual[p])
        square = factor[k] ** 2
        residual -= square
        left -= square.sum()
        if left <= tol:
            break
    else:
        return (f"the trace is not spent after {len(factor)} steps "
                f"({left:.3g} of {trace:.3g} left)")
    basis = _solve("QR of L", np.linalg.qr, factor[:k + 1].T)[0]
    theta, y = _solve("eigh of Q^T G Q", np.linalg.eigh,
                      basis.T @ (gram @ basis))
    energy = np.zeros(size)
    energy[:k + 1] = theta[::-1]
    return energy, basis @ y[:, ::-1]


def _solve(step, routine, *args, **kwargs):
    """Call ``routine``, raising a LinAlgError as NumericalFailure(step)."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"{step} failed: {exc}") from exc


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
