"""Autoregressive rollout, ensemble error evaluation and timing.

Rollouts feed each prediction back as input for the next step, and run
in float32, the dtype the models are trained in. There is one rollout
path, ``_roll``, and it rolls a ``neural.ForecasterStack``: M models
side by side in the batch columns, so that a step of M models on B
windows is one kernel pass laid out as one network's at batch M*B, and
each of its elementwise passes is one contiguous block. The stack's
step arrays are reused by every step; ``_roll`` copies each step's
predictions into its own buffer at once. ``evaluate_ensemble`` stacks
its two arms when they share a ``neural.layout``, which halves the numpy
calls of each step, and rolls each arm as a stack of one otherwise;
``rollout`` and ``bench`` roll a stack of one. Each model's predictions
are the same bits either way. Errors are L2 norms in unscaled PC space
at each horizon step, taken in float64; the ensemble report aggregates
them over start points, each an integer given once, for the
classic/adversarial pair.
"""

import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import neural, snapshots
from .errors import (
    InvalidConfig,
    NonFiniteInput,
    ShapeMismatch,
    StartOutOfRange,
)
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
        table = np.column_stack([self.horizons, self.mean_classic,
                                 self.std_classic, self.mean_adv,
                                 self.std_adv, self.reduction_pct])
        np.savetxt(path, table, fmt="%.6g", delimiter=",", comments="",
                   header="horizon,mean_classic,std_classic,mean_adv,"
                          "std_adv,error_reduction_pct")

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
        )


def _roll(stack, windows, horizon):
    """Roll a ``neural.ForecasterStack`` of M models from one (B, N, tau)
    batch of scaled windows, which it never writes, in float32, the dtype
    the models are trained in.

    The stack holds the models narrowed to float32 once, which is exact
    for a trained model's weights (``training._train`` keeps float32
    master weights); the windows are narrowed here unless a caller
    narrowed them already. One (M, B, N + H, tau) float32 buffer holds
    the windows for every model, then the predictions: step h predicts
    from the view ``buf[:, :, h:h + N]`` into ``buf[:, :, N + h]``, for
    all M models in one kernel pass, so no window is shifted; the step's
    predictions are a view of the stack's step arrays, copied into the
    buffer before the next step overwrites them.
    Returns the (M, B, H, tau) scaled predictions, widened to float64,
    and per model and row the step where its prediction first went
    non-finite (``horizon`` if never), from which its predictions are
    NaN. A window value that is finite but past float32's range (3.4e38)
    is a NonFiniteInput naming it, raised before any step, as a weight
    past it is by ``neural.stack``; so a divergence is what the rollout
    itself did: float32 overflow, or a NaN that the inputs already held.

    No arithmetic of the kernel mixes models or rows, so a diverged row
    runs on, unchecked, and leaves every other row of every model
    bit-identical; the overflow and invalid flags it raises are ignored,
    so divergence is recorded, not warned about or raised.
    """
    if horizon < 0:
        raise InvalidConfig("horizon must be >= 0")
    batch, lag, tau = windows.shape
    if tau != stack.lstm.input_dim:
        raise ShapeMismatch(f"windows hold {tau} PCs, the model takes "
                            f"{stack.lstm.input_dim}")
    if batch != stack.batch:
        raise ShapeMismatch(f"{batch} windows for a stack laid out for "
                            f"{stack.batch}")
    if windows.dtype != np.float32:
        windows = _narrow(windows,
                          lambda row, step: f"window {row}, row {step}")
    buf = np.empty((len(stack.models), batch, lag + horizon, tau), np.float32)
    buf[:, :, :lag] = windows
    with np.errstate(over="ignore", invalid="ignore"):
        for h in range(horizon):
            buf[:, :, lag + h] = forecaster_step(stack, buf[:, :, h:h + lag])
    preds = buf[:, :, lag:].astype(np.float64)
    alive = np.logical_and.accumulate(np.isfinite(preds).all(axis=3), axis=2)
    preds[~alive] = np.nan
    return preds, alive.sum(axis=2)


def _narrow(windows, where):
    """A (B, N, tau) batch of windows as float32. A value that is finite
    but past float32's range (3.4e38) is a NonFiniteInput naming its
    window row by ``where(row, step)``, and its PC."""
    with np.errstate(over="ignore"):
        narrow = windows.astype(np.float32)
    past = np.isinf(narrow) & np.isfinite(windows)
    if past.any():
        row, step, pc = np.argwhere(past)[0]
        raise NonFiniteInput(
            f"{where(row, step)}, PC {pc} holds {windows[row, step, pc]:.3g}: "
            f"past float32's range (largest {np.finfo(np.float32).max:.3g})")
    return narrow


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
    window = np.asarray(seed_window, dtype=np.float64)
    if window.ndim != 2 or window.shape[0] != model.time_lag:
        raise ShapeMismatch(
            f"seed window must be {model.time_lag} x tau, got {window.shape}"
        )
    window = _narrow(window[None], lambda row, step: f"seed window row {step}")
    preds, done = _roll(neural.stack([model], 1), window, horizon)
    preds, done = preds[0, 0], done[0, 0]
    preds[:done] = scaler.invert(preds[:done])
    return RolloutResult(horizon=horizon, predictions=preds,
                         diverged_at=None if done == horizon else int(done))


def _reduction(classic, adv):
    """100 (classic - adv) / classic, elementwise over arrays of errors:
    0 where the classic error is 0, NaN where either is not finite."""
    classic = np.asarray(classic, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        pct = np.where(classic == 0.0, 0.0, 100.0 * (classic - adv) / classic)
    return np.where(np.isfinite(classic) & np.isfinite(adv), pct, np.nan)[()]


def evaluate_ensemble(model_classic, model_adv, scores, scaler, starts,
                      horizon):
    """Roll both models from every start step and aggregate errors.

    ``scores`` is the full unscaled n x tau score matrix (ground truth);
    a start step t seeds the window with rows [t, t+N) and forecasts rows
    [t+N, t+N+horizon). Both models must take tau PCs, and each start
    must be an integer (not a bool) given once, which is checked, naming
    the arm or the start, before any rollout. Two models of one
    ``neural.layout`` roll as one stack, through one kernel pass per
    step; otherwise each rolls as a stack of one, with the same results.
    At each horizon step both models are averaged over the same starts:
    those where neither has diverged yet (``n_pairs``), so a model that
    diverges more often cannot look better by dropping its worst runs.
    Where no pair is left the means are NaN.
    """
    if model_classic.time_lag != model_adv.time_lag:
        raise InvalidConfig("models must share the time lag for a fair ensemble")
    if horizon < 1:
        raise InvalidConfig("horizon must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ShapeMismatch(f"scores of shape {scores.shape} are not an "
                            f"n x tau matrix")
    lag = model_classic.time_lag
    n, tau = scores.shape
    arms = (model_classic, model_adv)
    for name, model in zip(("classic", "adv"), arms):
        if model.lstm.input_dim != tau:
            raise ShapeMismatch(f"scores hold {tau} PCs, the {name} model "
                                f"takes {model.lstm.input_dim}")
    starts = list(starts)
    if not starts:
        raise StartOutOfRange("no start steps given")
    seen = set()
    for start in starts:
        if isinstance(start, (bool, np.bool_)) or not isinstance(
                start, (int, np.integer)):
            raise InvalidConfig(f"start {start!r} is not an integer")
        if start in seen:
            raise InvalidConfig(f"start {start} is given more than once")
        seen.add(start)
    starts = [int(s) for s in starts]
    bad = [s for s in starts if s < 0 or s + lag + horizon > n]
    if bad:
        raise StartOutOfRange(
            f"start {bad[0]} is negative" if bad[0] < 0 else
            f"start {bad[0]} + lag {lag} + horizon {horizon} exceeds {n} steps")
    starts = np.array(starts)[:, None]
    # only the window rows; the scaler maps each element on its own
    windows = _narrow(scaler.scale(scores[starts + np.arange(lag)]),
                      lambda row, step: f"start {starts[row, 0]} + row {step}")
    if neural.layout(model_classic) == neural.layout(model_adv):
        groups = [arms]
    else:
        groups = [arms[:1], arms[1:]]
    preds, diverged_at = map(np.concatenate, zip(*(
        _roll(neural.stack(group, len(windows)), windows, horizon)
        for group in groups)))  # (2, S, H, tau) and (2, S)
    truth = scores[starts + lag + np.arange(horizon)]  # (S, H, tau)
    errors = _norms(scaler.invert(preds) - truth)  # (2, S, H)
    paired = np.all(np.arange(horizon) < diverged_at[..., None], axis=0)
    n_pairs = paired.sum(axis=0)
    with np.errstate(invalid="ignore"):
        means = np.where(paired, errors, 0.0).sum(axis=1) / n_pairs
        stds = np.sqrt(np.where(paired, (errors - means[:, None]) ** 2,
                                0.0).sum(axis=1) / n_pairs)
    return EnsembleReport(
        horizons=np.arange(1, horizon + 1),
        mean_classic=means[0],
        std_classic=stds[0],
        mean_adv=means[1],
        std_adv=stds[1],
        reduction_pct=_reduction(*means),
        diverged_classic=int(np.sum(diverged_at[0] < horizon)),
        diverged_adv=int(np.sum(diverged_at[1] < horizon)),
        n_pairs=n_pairs,
    )


@dataclass
class TimingReport:
    sim_seconds_per_step: float
    forecast_seconds_per_step: float  # one trajectory at a time
    forecast_seconds_per_step_ensemble: float  # per trajectory, batched


def _timed(fn, min_calls=5, min_seconds=0.1):
    """Median seconds per call of ``fn``. One untimed call warms it up
    (first BLAS call, page faults, caches); then it runs at least
    ``min_calls`` times, and on until ``min_seconds`` have passed."""
    fn()
    times = []
    while len(times) < min_calls or sum(times) < min_seconds:
        tic = time.perf_counter()
        fn()
        times.append(time.perf_counter() - tic)
    return float(np.median(times))


def timing_benchmark(model, generator_config, horizon, ensemble_width):
    """Wall-clock per simulator step vs. per forecast step.

    Both forecast numbers time the rollout engine on scaled windows: one
    trajectory, and ``ensemble_width`` trajectories in one batch (the
    shape of a Fig.-2-style ensemble evaluation) divided by the width.
    """
    if horizon < 1 or ensemble_width < 1:
        raise InvalidConfig("horizon and ensemble width must be >= 1")
    # stacked, and so narrowed, once, before any timing: a model float32
    # cannot hold is refused first, and the timed calls run the rollout
    # alone
    one, width = (neural.stack([model], batch)
                  for batch in (1, ensemble_width))
    tau = model.lstm.input_dim
    windows = np.full((ensemble_width, model.time_lag, tau), 0.5, np.float32)

    sim_per_step = _timed(
        lambda: snapshots.generate(generator_config)
    ) / generator_config.n_steps
    single = _timed(lambda: _roll(one, windows[:1], horizon)) / horizon
    batched = _timed(
        lambda: _roll(width, windows, horizon)
    ) / (horizon * ensemble_width)
    return TimingReport(
        sim_seconds_per_step=sim_per_step,
        forecast_seconds_per_step=single,
        forecast_seconds_per_step_ensemble=batched,
    )
