"""Autoregressive rollout, ensemble error evaluation and timing.

Rollouts feed each prediction back as input for the next step. Errors are
L2 norms in unscaled PC space at each horizon step; the ensemble report
aggregates them over start points for the classic/adversarial pair.
"""

import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import snapshots
from .errors import InvalidConfig, ShapeMismatch, StartOutOfRange
from .neural import forecaster_step


@dataclass
class RolloutResult:
    horizon: int
    predictions: np.ndarray  # (H, tau), unscaled PC space; NaN once diverged
    diverged_at: int = None


@dataclass
class EnsembleReport:
    horizons: np.ndarray  # 1..H
    mean_classic: np.ndarray
    std_classic: np.ndarray
    mean_adv: np.ndarray
    std_adv: np.ndarray
    reduction_pct: np.ndarray  # 100 (mean_classic - mean_adv) / mean_classic
    start_steps: tuple
    diverged_classic: int = 0
    diverged_adv: int = 0
    n_pairs: np.ndarray = None  # (H,) starts both still finite; not in CSV

    @property
    def aggregate(self):
        """Mean error (classic, adv) over the horizons where both means
        exist, which are those with a pair; NaN when there are none."""
        means = np.stack([self.mean_classic, self.mean_adv])
        paired = ~np.isnan(means).any(axis=0)
        if not paired.any():
            return np.nan, np.nan
        return tuple(means[:, paired].mean(axis=1))

    @property
    def aggregate_reduction_pct(self):
        return _reduction(*self.aggregate)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(
                "horizon,mean_classic,std_classic,mean_adv,std_adv,"
                "error_reduction_pct\n"
            )
            for row in zip(self.horizons, self.mean_classic, self.std_classic,
                           self.mean_adv, self.std_adv, self.reduction_pct):
                fh.write(",".join(f"{value:.6g}" for value in row) + "\n")

    @classmethod
    def from_csv(cls, path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header alone
            try:
                cells = np.loadtxt(path, dtype=str, delimiter=",",
                                   skiprows=1, ndmin=2)
            except ValueError:  # ragged rows
                cells = np.empty((0, 0), dtype=str)
        if cells.shape[1] != 6:
            raise ShapeMismatch(f"{path}: expected rows of 6 report columns")
        try:
            # "nan", which to_csv writes for a horizon without pairs, parses
            table = cells.astype(np.float64)
        except ValueError:
            raise ShapeMismatch(
                f"{path}: a report cell is not a number") from None
        if not np.isfinite(table[:, 0]).all():
            raise ShapeMismatch(f"{path}: a horizon is not finite")
        return cls(
            horizons=table[:, 0].astype(int),
            mean_classic=table[:, 1],
            std_classic=table[:, 2],
            mean_adv=table[:, 3],
            std_adv=table[:, 4],
            reduction_pct=table[:, 5],
            start_steps=(),
        )


def _roll(model, windows, horizon):
    """Roll a (B, N, tau) batch of scaled windows, shifted in place.

    Returns (B, H, tau) scaled predictions and, per row, the step where
    its prediction first went non-finite (``horizon`` if never). From that
    step on the row's predictions are NaN and it is fed zeros, so it
    cannot spoil the other rows or raise floating-point warnings.
    """
    if horizon < 0:
        raise InvalidConfig("horizon must be >= 0")
    if windows.shape[2] != model.lstm.input_dim:
        raise ShapeMismatch(f"windows hold {windows.shape[2]} PCs, the model "
                            f"takes {model.lstm.input_dim}")
    preds = np.empty((len(windows), horizon, windows.shape[2]))
    diverged_at = np.full(len(windows), horizon)
    for h in range(horizon):
        pred = forecaster_step(model, windows)
        if not np.isfinite(pred).all():
            bad = ~np.isfinite(pred).all(axis=1)
            diverged_at[bad] = np.minimum(diverged_at[bad], h)
            if np.all(diverged_at <= h):
                break
            pred[bad] = 0.0
        preds[:, h] = pred
        windows[:, :-1] = windows[:, 1:]
        windows[:, -1] = pred
    preds[np.arange(horizon) >= diverged_at[:, None]] = np.nan
    return preds, diverged_at


def _norms(diff):
    """L2 norms over the last axis, each bit for bit ``np.linalg.norm`` of
    its row (a dot product; ``norm(axis=-1)`` sums in another order)."""
    return np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])


def rollout(model, scaler, seed_window, horizon):
    """Autoregressive forecast of ``horizon`` steps from one scaled
    N x tau window, on the engine that ``evaluate_ensemble`` runs.

    The predictions are unscaled. A non-finite prediction ends the
    rollout and is recorded, not raised: ``diverged_at`` is its step,
    from which the predictions are NaN, and None when every step is
    finite. Errors against ground truth are ``evaluate_ensemble``'s.
    """
    window = np.array(seed_window, dtype=np.float64)
    if window.ndim != 2 or window.shape[0] != model.time_lag:
        raise ShapeMismatch(
            f"seed window must be {model.time_lag} x tau, got {window.shape}"
        )
    (preds,), (done,) = _roll(model, window[None], horizon)
    preds[:done] = scaler.invert(preds[:done])
    return RolloutResult(horizon=horizon, predictions=preds,
                         diverged_at=None if done == horizon else int(done))


def _reduction(classic, adv):
    if not (np.isfinite(classic) and np.isfinite(adv)):
        return np.nan
    return 0.0 if classic == 0.0 else 100.0 * (classic - adv) / classic


def evaluate_ensemble(model_classic, model_adv, scores, scaler, start_steps,
                      horizon):
    """Roll both models from every start step and aggregate errors.

    ``scores`` is the full unscaled n x tau score matrix (ground truth);
    a start step t seeds the window with rows [t, t+N) and forecasts rows
    [t+N, t+N+horizon). At each horizon step both models are averaged
    over the same starts: those where neither has diverged yet
    (``n_pairs``), so a model that diverges more often cannot look better
    by dropping its worst runs. Where no pair is left the means are NaN.
    """
    if model_classic.time_lag != model_adv.time_lag:
        raise InvalidConfig("models must share the time lag for a fair ensemble")
    if horizon < 1:
        raise InvalidConfig("horizon must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    lag = model_classic.time_lag
    n = scores.shape[0]
    start_steps = tuple(int(s) for s in start_steps)
    if not start_steps:
        raise StartOutOfRange("no start steps given")
    bad = [s for s in start_steps if s < 0 or s + lag + horizon > n]
    if bad:
        raise StartOutOfRange(f"start {bad[0]} + lag {lag} + horizon "
                              f"{horizon} exceeds {n} steps")
    starts = np.array(start_steps)[:, None]
    windows = scaler.scale(scores)[starts + np.arange(lag)]  # (S, N, tau)
    preds, diverged_at = zip(*(_roll(model, windows.copy(), horizon)
                               for model in (model_classic, model_adv)))
    truth = scores[starts + lag + np.arange(horizon)]  # (S, H, tau)
    errors = _norms(scaler.invert(np.stack(preds)) - truth)  # (2, S, H)
    diverged_at = np.stack(diverged_at)  # (2, S)
    paired = np.all(np.arange(horizon) < diverged_at[..., None], axis=0)
    n_pairs = paired.sum(axis=0)
    with np.errstate(invalid="ignore"):
        means = np.where(paired, errors, 0.0).sum(axis=1) / n_pairs
        stds = np.sqrt(np.where(paired, (errors - means[:, None]) ** 2,
                                0.0).sum(axis=1) / n_pairs)
    reduction = np.array([_reduction(c, a) for c, a in means.T])
    return EnsembleReport(
        horizons=np.arange(1, horizon + 1),
        mean_classic=means[0],
        std_classic=stds[0],
        mean_adv=means[1],
        std_adv=stds[1],
        reduction_pct=reduction,
        start_steps=start_steps,
        diverged_classic=int(np.sum(diverged_at[0] < horizon)),
        diverged_adv=int(np.sum(diverged_at[1] < horizon)),
        n_pairs=n_pairs,
    )


@dataclass
class TimingReport:
    sim_seconds_per_step: float
    forecast_seconds_per_step: float  # one trajectory at a time
    forecast_seconds_per_step_ensemble: float  # per trajectory, batched
    ensemble_width: int
    ratio_single: float
    ratio_ensemble: float


def _timed(fn, min_seconds=0.1):
    reps = 0
    elapsed = 0.0
    while elapsed < min_seconds:
        tic = time.perf_counter()
        fn()
        elapsed += time.perf_counter() - tic
        reps += 1
    return elapsed / reps


def timing_benchmark(model, generator_config, horizon=50, ensemble_width=50):
    """Wall-clock per simulator step vs. per forecast step.

    Both forecast numbers time the rollout engine on scaled windows: one
    trajectory, and ``ensemble_width`` trajectories in one batch (the
    shape of a Fig.-2-style ensemble evaluation) divided by the width.
    """
    if horizon < 1 or ensemble_width < 1:
        raise InvalidConfig("horizon and ensemble width must be >= 1")
    tau = model.head.weight.shape[0]
    windows = np.full((ensemble_width, model.time_lag, tau), 0.5)

    sim_per_step = _timed(
        lambda: snapshots.generate(generator_config)
    ) / generator_config.n_steps
    single = _timed(lambda: _roll(model, windows[:1].copy(), horizon)) / horizon
    batched = _timed(
        lambda: _roll(model, windows.copy(), horizon)
    ) / (horizon * ensemble_width)
    return TimingReport(
        sim_seconds_per_step=sim_per_step,
        forecast_seconds_per_step=single,
        forecast_seconds_per_step_ensemble=batched,
        ensemble_width=ensemble_width,
        ratio_single=sim_per_step / single,
        ratio_ensemble=sim_per_step / batched,
    )
