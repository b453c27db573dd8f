"""Autoregressive rollout, ensemble error evaluation and timing.

Rollouts feed each prediction back as input for the next step. Errors are
L2 norms in unscaled PC space at each horizon step; the ensemble report
aggregates them over start points for the classic/adversarial pair.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import pca, snapshots
from .errors import InvalidConfig, ShapeMismatch, StartOutOfRange
from .neural import forecaster_forward, forecaster_step


@dataclass
class RolloutResult:
    start_step: int
    horizon: int
    predictions_scaled: np.ndarray  # (H, tau)
    predictions: np.ndarray  # (H, tau), unscaled PC space
    errors: np.ndarray  # (H,), NaN where no ground truth / past divergence
    diverged_at: int = None


@dataclass
class EnsembleReport:
    horizons: np.ndarray  # 1..H
    mean_classic: np.ndarray
    std_classic: np.ndarray
    mean_adv: np.ndarray
    std_adv: np.ndarray
    reduction_pct: np.ndarray  # 100 (mean_classic - mean_adv) / mean_classic
    aggregate_reduction_pct: float
    start_steps: tuple
    diverged_classic: int = 0
    diverged_adv: int = 0

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
        table = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
        if table.shape[1] != 6:
            raise ShapeMismatch(f"{path}: expected 6 report columns")
        mean_c, mean_a = table[:, 1], table[:, 3]
        return cls(
            horizons=table[:, 0].astype(int),
            mean_classic=mean_c,
            std_classic=table[:, 2],
            mean_adv=mean_a,
            std_adv=table[:, 4],
            reduction_pct=table[:, 5],
            aggregate_reduction_pct=_reduction(np.nanmean(mean_c),
                                               np.nanmean(mean_a)),
            start_steps=(),
        )


def rollout(model, scaler, seed_window, horizon, truth=None, start_step=-1):
    """Autoregressive forecast of ``horizon`` steps from a scaled window.

    ``truth``, when given, holds the upcoming unscaled PC rows used to
    fill per-step errors. Divergence (non-finite prediction) truncates
    the rollout and is recorded, not raised.
    """
    window = np.array(seed_window, dtype=np.float64)
    if window.ndim != 2 or window.shape[0] != model.time_lag:
        raise ShapeMismatch(
            f"seed window must be {model.time_lag} x tau, got {window.shape}"
        )
    if horizon < 0:
        raise InvalidConfig("horizon must be >= 0")
    tau = window.shape[1]
    preds_scaled = np.full((horizon, tau), np.nan)
    preds = np.full((horizon, tau), np.nan)
    errors = np.full(horizon, np.nan)
    diverged_at = None
    for h in range(horizon):
        pred = forecaster_step(model, window)
        if not np.all(np.isfinite(pred)):
            diverged_at = h
            break
        preds_scaled[h] = pred
        window[:-1] = window[1:]
        window[-1] = pred
    done = horizon if diverged_at is None else diverged_at
    preds[:done] = scaler.invert(preds_scaled[:done])
    if truth is not None:
        for h in range(min(done, len(truth))):
            errors[h] = np.linalg.norm(preds[h] - truth[h])
    return RolloutResult(
        start_step=start_step,
        horizon=horizon,
        predictions_scaled=preds_scaled,
        predictions=preds,
        errors=errors,
        diverged_at=diverged_at,
    )


def _reduction(classic, adv):
    if not np.isfinite(classic) or classic == 0.0:
        return 0.0
    return 100.0 * (classic - adv) / classic


def evaluate_ensemble(model_classic, model_adv, scores, scaler, start_steps,
                      horizon):
    """Roll both models from every start step and aggregate errors.

    ``scores`` is the full unscaled n x tau score matrix (ground truth);
    a start step t seeds the window with rows [t, t+N) and forecasts rows
    [t+N, t+N+horizon).
    """
    if model_classic.time_lag != model_adv.time_lag:
        raise InvalidConfig("models must share the time lag for a fair ensemble")
    scores = np.asarray(scores, dtype=np.float64)
    lag = model_classic.time_lag
    n = scores.shape[0]
    start_steps = tuple(int(s) for s in start_steps)
    if not start_steps:
        raise StartOutOfRange("no start steps given")
    scaled = scaler.scale(scores)
    errors = {"classic": [], "adv": []}
    diverged = {"classic": 0, "adv": 0}
    for start in start_steps:
        if start < 0 or start + lag + horizon > n:
            raise StartOutOfRange(
                f"start {start} + lag {lag} + horizon {horizon} exceeds {n} steps"
            )
        window = scaled[start:start + lag]
        truth = scores[start + lag:start + lag + horizon]
        for name, model in (("classic", model_classic), ("adv", model_adv)):
            result = rollout(model, scaler, window, horizon, truth=truth,
                             start_step=start)
            errors[name].append(result.errors)
            if result.diverged_at is not None:
                diverged[name] += 1
    classic = np.array(errors["classic"])  # (S, H)
    adv = np.array(errors["adv"])
    with np.errstate(invalid="ignore"):
        mean_c = np.nanmean(classic, axis=0) if horizon else np.empty(0)
        std_c = np.nanstd(classic, axis=0) if horizon else np.empty(0)
        mean_a = np.nanmean(adv, axis=0) if horizon else np.empty(0)
        std_a = np.nanstd(adv, axis=0) if horizon else np.empty(0)
    reduction = np.array([_reduction(c, a) for c, a in zip(mean_c, mean_a)])
    aggregate = _reduction(
        float(np.nanmean(mean_c)) if horizon else np.nan,
        float(np.nanmean(mean_a)) if horizon else np.nan,
    )
    return EnsembleReport(
        horizons=np.arange(1, horizon + 1),
        mean_classic=mean_c,
        std_classic=std_c,
        mean_adv=mean_a,
        std_adv=std_a,
        reduction_pct=reduction,
        aggregate_reduction_pct=aggregate,
        start_steps=start_steps,
        diverged_classic=diverged["classic"],
        diverged_adv=diverged["adv"],
    )


def reconstruct_forecast(basis, result):
    """Lift rollout predictions back to field space via the PCA basis."""
    if result.predictions.shape[1] != basis.tau:
        raise ShapeMismatch(
            f"rollout tau {result.predictions.shape[1]} != basis tau {basis.tau}"
        )
    return pca.reconstruct(basis, result.predictions)


@dataclass
class TimingReport:
    sim_seconds_per_step: float
    forecast_seconds_per_step: float  # one trajectory at a time
    forecast_seconds_per_step_ensemble: float  # per trajectory, batched
    ensemble_width: int
    ratio_single: float
    ratio_ensemble: float


def _batched_rollout(model, windows, horizon):
    for _ in range(horizon):
        pred = forecaster_step(model, windows)
        windows = np.concatenate([windows[:, 1:], pred[:, None]], axis=1)
    return windows


def _timed(fn, min_seconds=0.1):
    reps = 0
    elapsed = 0.0
    while elapsed < min_seconds:
        tic = time.perf_counter()
        fn()
        elapsed += time.perf_counter() - tic
        reps += 1
    return elapsed / reps


def timing_benchmark(model, scaler, generator_config, horizon=50,
                     ensemble_width=50):
    """Wall-clock per simulator step vs. per forecast step.

    The single-trajectory number times ``rollout`` as-is; the ensemble
    number rolls ``ensemble_width`` trajectories in one batch (the shape
    of a Fig.-2-style ensemble evaluation) and divides by the width.
    """
    tau = model.head.weight.shape[0]
    window = np.full((model.time_lag, tau), 0.5)
    windows = np.tile(window, (ensemble_width, 1, 1))

    sim_per_step = _timed(
        lambda: snapshots.generate(generator_config)
    ) / generator_config.n_steps
    single = _timed(
        lambda: rollout(model, scaler, window, horizon)
    ) / horizon
    batched = _timed(
        lambda: _batched_rollout(model, windows, horizon)
    ) / (horizon * ensemble_width)
    return TimingReport(
        sim_seconds_per_step=sim_per_step,
        forecast_seconds_per_step=single,
        forecast_seconds_per_step_ensemble=batched,
        ensemble_width=ensemble_width,
        ratio_single=sim_per_step / single,
        ratio_ensemble=sim_per_step / batched,
    )
