"""Supervised and adversarial training of the LSTM forecaster.

Classic training minimises next-step MSE. Adversarial co-training
alternates, per mini-batch, ``d_steps`` discriminator steps (real next
steps labelled 1, forecaster outputs labelled 0) with a generator step
whose loss adds ``adv_weight * bce(D(prediction), 1)`` on top of the
MSE; gradients flow through the discriminator without updating it.

The discriminator D emits a logit z, and ``optim.bce`` takes it: the
generator's term is the non-saturating loss -log sigmoid(z) =
softplus(-z) (Goodfellow et al. 2014, arXiv:1406.2661), whose gradient
sigmoid(z) - 1 stays nonzero where D is sure that a prediction is fake.

A mini-batch does each piece of that work once. The forecaster's LSTM
runs once on the windows (``neural.lstm_forward``), since the
forecaster does not change before the generator step. The fake batch
and the generator step share that one pass: the head on it without
dropout is the fake batch for all discriminator steps, and the
generator step then draws the dropout mask, as the only draw of the
mini-batch, and applies the mask and the head to the same pass
(``neural.forecaster_head``). Classic training runs the same pass and
generator step, with no fake batch.

Real [window, target] and fake [window, fake] share the window steps:
D runs that prefix once and the last step for both branches from its
final (h, c) (``neural.discriminator_branches``). The one backward path,
``neural._param_grads``, adds the branches' dh and dc there and
back-propagates the prefix once. The prediction enters only D's last
step, so the generator step's dL/d(prediction) through D is that step's
input gradient (``neural.candidate_grad``), with no weight gradients.
With the default ``d_steps`` = 2, a mini-batch thus runs the LSTM
kernel seven times: once for the forecaster, and D's prefix and last
step once per discriminator step and once for the generator step.

Training computes in float32, as rollouts do (``forecast._roll``): the
freshly drawn forecaster and discriminator are rounded to float32 copies
(``astype``), and the windows and targets are cast once per call; the
kernel, the losses and Nadam follow the buffers' dtype. Each epoch's
validation MSE is taken on the float64 widening of the forecaster, the
model that is returned, so it equals what the saved model scores; the
returned weights are float32 values, which ``save_model`` stores as
float32 records.
"""

import itertools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    EmptyInput,
    InvalidConfig,
    NonFiniteLoss,
    TooFewSteps,
    check_size,
    is_integer,
)
from .neural import (
    ACTIVATIONS,
    _param_grads,
    candidate_grad,
    discriminator_branches,
    forecaster_forward,
    forecaster_head,
    init_discriminator,
    init_forecaster,
    lstm_forward,
)
from .optim import NadamState, bce, mse, mse_grad, nadam_step

# desk-scale default search space (dropout/activation/lag axes as used
# for the full-scale experiments, plus a small hidden-size axis)
DEFAULT_GRID = {
    "dropout": [0.3, 0.5],
    "output_activation": ["relu", "sigmoid"],
    "time_lag": [2],
    "hidden_nodes": [32, 64],
    "batch_size": [32],
}

GRID_KEYS = ("dropout", "hidden_nodes", "batch_size", "output_activation",
             "time_lag")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run. Nadam's constants, beta1,
    beta2 and eps, are not among them: they are ``optim.NadamState``'s
    defaults. A config checks itself when built, and so on ``replace``,
    raising InvalidConfig; each int field must be an integer, a numpy one
    included, and not a bool."""

    batch_size: int = 32
    hidden_nodes: int = 64
    dropout: float = 0.3
    output_activation: str = "sigmoid"
    time_lag: int = 2
    epochs: int = 300
    train_fraction: float = 0.9
    seed: int = 0
    adversarial: bool = False
    adv_weight: float = 1.0
    lr: float = 1e-3
    d_lr: float = 3e-3  # discriminator Nadam rate; D must outpace the generator
    d_steps: int = 2  # discriminator updates per generator update

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise InvalidConfig("train_fraction must lie in (0, 1)")
        for name in ("batch_size", "epochs", "hidden_nodes", "time_lag",
                     "d_steps", "seed"):
            if not is_integer(getattr(self, name)):
                raise InvalidConfig(f"{name} must be an integer, got "
                                    f"{getattr(self, name)!r}")
        for name in ("batch_size", "epochs", "hidden_nodes", "time_lag",
                     "d_steps"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be >= 1")
        if not 0.0 <= self.adv_weight < math.inf:
            raise InvalidConfig("adv_weight must be finite and >= 0")
        for name in ("lr", "d_lr"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InvalidConfig(f"{name} must be finite and positive")
        if not 0.0 <= self.dropout < 1.0:
            raise InvalidConfig("dropout must lie in [0, 1)")
        if self.output_activation not in ACTIVATIONS:
            raise InvalidConfig(
                f"unknown output_activation {self.output_activation!r}"
            )
        if self.seed < 0:
            raise InvalidConfig("seed must be >= 0")


@dataclass(frozen=True)
class WindowedDataset:
    """Overlapping stride-1 windows of scaled PC rows, split chronologically."""

    inputs: np.ndarray  # (k, N, tau)
    targets: np.ndarray  # (k, tau)
    split: int  # first `split` samples are training

    @property
    def time_lag(self):
        return self.inputs.shape[1]

    @property
    def tau(self):
        return self.inputs.shape[2]

    @property
    def train_inputs(self):
        return self.inputs[: self.split]

    @property
    def train_targets(self):
        return self.targets[: self.split]

    @property
    def val_inputs(self):
        return self.inputs[self.split:]

    @property
    def val_targets(self):
        return self.targets[self.split:]


@dataclass
class TrainReport:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    d_loss: list = None
    g_adv_loss: list = None
    epoch_seconds: list = field(default_factory=list)


def make_windows(scores, time_lag, train_fraction):
    """Build k = n - N windows (stride 1), split in time: the first
    int(k * train_fraction) < k train, so at least one validates. The lag
    N must be an integer >= 1, and not a bool: InvalidConfig otherwise."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise InvalidConfig("scores must be an n x tau matrix")
    check_size("time_lag", time_lag, 1)
    if not 0.0 < train_fraction < 1.0:
        raise InvalidConfig("train_fraction must lie in (0, 1)")
    n = scores.shape[0]
    if n <= time_lag:
        raise TooFewSteps(f"need more than {time_lag} steps, got {n}")
    k = n - time_lag
    # window i is rows i .. i + time_lag - 1 (the last row is a target
    # only); the view is (k, tau, time_lag), copied once as (k, N, tau)
    inputs = np.lib.stride_tricks.sliding_window_view(
        scores[:-1], time_lag, axis=0).transpose(0, 2, 1).copy()
    targets = scores[time_lag:].copy()
    return WindowedDataset(inputs=inputs, targets=targets,
                           split=int(k * train_fraction))


def _rng_streams(seed):
    children = np.random.SeedSequence(seed).spawn(4)
    return {
        name: np.random.default_rng(child)
        for name, child in zip(("model", "disc", "shuffle", "dropout"), children)
    }


def _forecaster_step(model, opt, lstm_tape, windows, targets, rng_dropout,
                     config, disc=None):
    """One optimizer step on the forecaster from ``lstm_tape``, its LSTM
    pass over ``windows``; returns (mse, adv bce or None)."""
    pred, tape = forecaster_head(model, lstm_tape, rng=rng_dropout)
    loss = mse(pred, targets)
    if not np.isfinite(loss):
        raise NonFiniteLoss("forecaster loss diverged")
    d_pred = mse_grad(pred, targets)
    adv_loss = None
    if disc is not None:
        logits, d_tape = discriminator_branches(disc, windows, pred[None])
        adv_loss, d_logits = bce(logits[0], 1.0)
        if not np.isfinite(adv_loss):
            raise NonFiniteLoss("forecaster adversarial loss diverged")
        d_adv = candidate_grad(d_tape, d_logits[None])[0]
        d_pred = d_pred + config.adv_weight * d_adv
    grads, _ = _param_grads(tape, d_pred)
    nadam_step(opt, model.params(), grads)
    return loss, adv_loss


def _discriminator_step(disc, opt, windows, targets, fake):
    """One optimizer step on the discriminator, real next steps
    ``targets`` against the forecaster's ``fake`` ones."""
    logits, tape = discriminator_branches(disc, windows,
                                          np.stack([targets, fake]))
    loss_real, d_real = bce(logits[0], 1.0)
    loss_fake, d_fake = bce(logits[1], 0.0)
    if not np.isfinite(loss_real + loss_fake):
        raise NonFiniteLoss("discriminator loss diverged")
    grads, _ = _param_grads(tape, np.stack([d_real, d_fake]).reshape(-1, 1))
    nadam_step(opt, disc.params(), grads)
    return loss_real + loss_fake


def _train(dataset, config):
    streams = _rng_streams(config.seed)
    tau = dataset.tau
    if dataset.time_lag != config.time_lag:
        raise InvalidConfig(
            f"dataset windows have lag {dataset.time_lag}, "
            f"config expects {config.time_lag}"
        )
    k_train = dataset.split
    if k_train < 1:
        raise TooFewSteps("no training samples after the chronological split")
    model = init_forecaster(
        tau, config.hidden_nodes, config.output_activation, config.dropout,
        config.time_lag, streams["model"],
    ).astype(np.float32)
    train_inputs = dataset.train_inputs.astype(np.float32)
    train_targets = dataset.train_targets.astype(np.float32)
    opt_g = NadamState(lr=config.lr)
    disc = opt_d = None
    if config.adversarial:
        disc = init_discriminator(tau, config.hidden_nodes,
                                  streams["disc"]).astype(np.float32)
        opt_d = NadamState(lr=config.d_lr)
    report = TrainReport(
        d_loss=[] if config.adversarial else None,
        g_adv_loss=[] if config.adversarial else None,
    )
    for _ in range(config.epochs):
        tic = time.perf_counter()
        perm = streams["shuffle"].permutation(k_train)
        sq_sum = 0.0
        d_sum = 0.0
        adv_sum = 0.0
        n_batches = 0
        # an update too large for float32 leaves inf or NaN weights, which
        # the next loss check reports as NonFiniteLoss
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, k_train, config.batch_size):
                idx = perm[lo:lo + config.batch_size]
                windows = train_inputs[idx]
                targets = train_targets[idx]
                _, _, lstm_tape = lstm_forward(model.lstm, windows)
                if config.adversarial:
                    fake, _ = forecaster_head(model, lstm_tape)
                    # a diverged forecaster, not bad input to D
                    if not np.isfinite(fake).all():
                        raise NonFiniteLoss("forecaster diverged to "
                                            "non-finite predictions")
                    for _ in range(config.d_steps):
                        d_sum += _discriminator_step(disc, opt_d, windows,
                                                     targets, fake)
                loss, adv_loss = _forecaster_step(
                    model, opt_g, lstm_tape, windows, targets,
                    streams["dropout"], config, disc=disc,
                )
                sq_sum += loss * len(idx)
                if adv_loss is not None:
                    adv_sum += adv_loss
                n_batches += 1
        # no loss in the loop sees what the epoch's last updates left
        for net in (model, disc):
            if net is not None and not np.isfinite(net.flat).all():
                raise NonFiniteLoss("training diverged to non-finite weights")
        report.train_loss.append(sq_sum / k_train)
        # validate the float64 model that is handed out
        wide = model.astype(np.float64)
        pred, _ = forecaster_forward(wide, dataset.val_inputs)
        report.val_loss.append(mse(pred, dataset.val_targets))
        if config.adversarial:
            report.d_loss.append(d_sum / (n_batches * config.d_steps))
            report.g_adv_loss.append(adv_sum / n_batches)
        report.epoch_seconds.append(time.perf_counter() - tic)
    if disc is not None:
        disc = disc.astype(np.float64)
    return wide, disc, report


def train_classic(dataset, config):
    """Mini-batch Nadam on next-step MSE; returns (model, report)."""
    if config.adversarial:
        raise InvalidConfig("train_classic requires config.adversarial=False")
    model, _, report = _train(dataset, config)
    return model, report


def train_adversarial(dataset, config):
    """Adversarial co-training; returns (model, discriminator, report)."""
    if not config.adversarial:
        raise InvalidConfig("train_adversarial requires config.adversarial=True")
    model, disc, report = _train(dataset, config)
    return model, disc, report


@dataclass
class GridPoint:
    config: TrainConfig
    val_mse: float
    failed: bool = False


def grid_search(scores, grid, base_config, search_epochs=None):
    """Train one classic model per cartesian-product point; pick the best.

    ``scores`` is the scaled n x tau score matrix (windows are rebuilt per
    point so the lag axis can vary). Selection is minimum final validation
    MSE; ties break to fewer hidden nodes, then lower dropout, then
    declaration order. Diverged points are marked failed, not fatal.
    Every point's config is built, and so checked, before the first
    trains. Returns the best point's config with ``base_config``'s
    epochs, the config to train with, and every GridPoint.
    """
    if not grid or any(len(values) == 0 for values in grid.values()):
        raise EmptyInput("grid must list at least one candidate per axis")
    unknown = set(grid) - set(GRID_KEYS)
    if unknown:
        raise InvalidConfig(f"unknown grid axes: {sorted(unknown)}")
    epochs = search_epochs if search_epochs is not None else base_config.epochs
    configs = [replace(base_config, adversarial=False, epochs=epochs,
                       **dict(zip(grid, values)))
               for values in itertools.product(*grid.values())]
    results = []
    for config in configs:
        dataset = make_windows(scores, config.time_lag, config.train_fraction)
        try:
            _, report = train_classic(dataset, config)
            results.append(GridPoint(config=config, val_mse=report.val_loss[-1]))
        except NonFiniteLoss:
            results.append(GridPoint(config=config, val_mse=float("inf"),
                                     failed=True))
    viable = [point for point in results if not point.failed]
    if not viable:
        raise NonFiniteLoss("every grid point diverged")
    # min keeps the first of equal keys: declaration order breaks ties
    best = min(viable, key=lambda point: (
        point.val_mse, point.config.hidden_nodes, point.config.dropout))
    return replace(best.config, epochs=base_config.epochs), results
