"""Mean + truncated principal-component decomposition of snapshot matrices.

States decompose as ``x = scores @ eofs + mean``; truncation keeps the
first tau components, and a basis stores only those tau EOF rows. EOF
rows are orthonormal and sign-fixed (largest magnitude entry positive)
so fitted bases are reproducible.

The fit uses the method of snapshots (Sirovich, Q. Appl. Math. 45, 1987)
on the Gram matrix G of the shorter side of the centered n x m matrix X:
X X^T when n <= m, X^T X otherwise. Its eigenvalues, from ``eigvalsh``,
are the squared singular values of X and set the rank and tau. Only the
tau kept eigenvectors are formed, by block subspace iteration on G
(Halko, Martinsson & Tropp, SIAM Rev. 53(2), 2011): a fixed-seed
Gaussian block of width p = 2 tau, orthonormalised by QR after each of k
multiplies, k the least with (lambda_{p+1} / lambda_tau)^k <= 1e-12 (1
when lambda_{p+1} = 0), and the ``eigh`` of Q^T G Q picks the leading
tau. Past p = size/8, or past size/(2p) steps (where ``eigvalsh`` and
the iteration together would cost more than ``eigh``), the step is the
``eigh`` of G itself, so tau = rank is exact; when tau is given that
wide, or the variance fraction is 1, that one ``eigh`` also gives the
spectrum in place of ``eigvalsh``. One more Rayleigh-Ritz step turns the
kept eigenvectors into EOFs: with Q an orthonormal m x tau basis of
their span (the QR factor of X^T V_tau, or V_tau itself when n > m), the
SVD of the small n x tau matrix X Q rotates Q into the EOF rows, which
are thus orthonormal to machine precision even when the subspace takes
in a null direction. Forming the Gram matrix squares the condition
number, so the tail singular values are accurate in energy (sigma^2 to
about n * eps * sigma_1^2), not relative to their own size;
explained-variance fractions, the only use of the tail, need no more.
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
        for name in ("mean", "eofs", "singular_values"):
            if not np.isfinite(getattr(self, name)).all():
                raise NonFiniteInput(f"basis {name!r} holds NaN/Inf")

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
    """
    check_truncation(tau, variance)
    data = _as_matrix(data)
    n, m = data.shape
    mean = data.mean(axis=0)
    centered = data - mean
    wide = n <= m
    gram = centered @ centered.T if wide else centered.T @ centered
    # one eigh gives spectrum and vectors when the block is known to be too
    # wide to iterate before the spectrum is: 2 tau past the widest block,
    # or all the variance, which keeps the whole rank
    if variance == 1.0 or 2 * (tau or 0) > _MAX_WIDTH * gram.shape[0]:
        energy, vecs = _solve("eigh", np.linalg.eigh, gram)
    else:
        energy, vecs = _solve("eigvalsh", np.linalg.eigvalsh, gram), None
    energy = np.clip(energy[::-1], 0.0, None)
    s = np.sqrt(energy)
    if not np.any(s > 0):
        raise DegenerateData("centered snapshot matrix is zero; tau undefined")

    if variance is not None:
        fractions = _cumulative_fractions(s)
        tau = int(np.searchsorted(fractions, variance, side="left")) + 1
        tau = min(tau, s.size)
    else:
        tau = int(tau)
        if tau > s.size:
            raise InvalidConfig(f"tau={tau} outside [1, {s.size}]")

    # Rayleigh-Ritz on the kept subspace, spanned by the orthonormal q (m, tau)
    kept = (_leading_eigenvectors(gram, energy, tau) if vecs is None
            else vecs[:, :-tau - 1:-1])
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


# subspace iteration: the start block's seed and the shrink factor of the
# unwanted directions. With ``eigvalsh`` it costs no more than ``eigh`` for
# a block at most an eighth of the Gram's size wide whose steps times its
# width are at most half that size: the multiplies then take about size^3
# flops, under the back-transform of the eigenvectors that eigvalsh skips.
_SEED, _TOLERANCE, _MAX_WIDTH = 0, 1e-12, 1 / 8


def _leading_eigenvectors(gram, energy, tau):
    """The ``tau`` leading eigenvectors (columns) of ``gram``, of spectrum
    ``energy`` (descending), by block subspace iteration."""
    size, width = gram.shape[0], 2 * tau
    steps = 0
    if width <= _MAX_WIDTH * size:
        ratio = energy[width] / energy[tau - 1] if energy[width] > 0 else 0.0
        steps = next((k for k in range(1, size // (2 * width) + 1)
                      if ratio**k <= _TOLERANCE), 0)
    if not steps:  # the block is the whole space
        return _solve("eigh", np.linalg.eigh, gram)[1][:, :-tau - 1:-1]
    q = np.random.default_rng(_SEED).standard_normal((size, width))
    for _ in range(steps):
        q = _solve("QR of the iterated block", np.linalg.qr, gram @ q)[0]
    ritz = _solve("Rayleigh-Ritz eigh", np.linalg.eigh, q.T @ gram @ q)[1]
    return q @ ritz[:, :-tau - 1:-1]


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
