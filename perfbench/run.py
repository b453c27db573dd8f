#!/usr/bin/env python3
"""Benchmark of the romcast reduced-order forecasting pipeline.

    python3 perfbench/run.py --workload {train,forecast,cold-cli} \
        --seed N --seconds S --trace {0,1} [--scale {desk,tiny}]

Run from the root of a checkout; romcast is imported from ``src/``.

Every workload runs the whole pipeline of the paper (simulate, reduce
by PCA, train a classic and an adversarial LSTM, roll both out) over and
over for ``--seconds``, and reports the same end-to-end metrics. The
workloads differ in input and in how the stages run:

- ``train``: desk config on the tracer field (m = 1024); each cycle
  trains both models six times, so training dominates.
- ``forecast``: desk grid with modulated velocity, reduced on all three
  fields (m = 3072); each cycle runs the solver four times, the
  reduction twice, six chunks of the ensemble evaluation over starts
  400..540 and 20 single-trajectory rollouts, so the solver, large-m PCA
  and forward-only inference dominate.
- ``cold-cli``: each cycle runs ``generate`` and ``pca`` twice, then
  ``train, train --adversarial, evaluate``, as fresh processes through
  the disk, paying interpreter start-up, the first BLAS call, ROMF I/O
  and manifest hashing; ``bench`` runs once per run for its exit code.

A cycle spreads each stage's calls evenly over it, so every stage is
sampled across the whole run. BLAS runs one thread.

Timing. Other tenants of a shared host slow the machine by up to 3x,
for seconds to minutes at a time, and no statistic of raw times over a
run of under a minute stays within 20% from run to run. So every timed
call is bracketed by a fixed calibration kernel like the stage's own
work (``Kernels``), and its wall time is scaled by the kernel's
reference time over its mean time around the call: the call's time in
reference seconds, the seconds it takes on the reference machine with
no other load. A change to the program moves these as it moves wall
time; the kernels are the benchmark's own code. Each metric is the
median over the run's calls. ``setup_s`` is the median set-up, of one
before the first cycle and one after each cycle; ``pipeline_s`` adds up
the stage times of one pass. Raw wall medians and the kernels' times
are printed with the derived figures.

Inputs. The seed sets the solver's random initial tracer, of amplitude
1e-9. Training seeds stay fixed, so quality metrics are comparable across
runs and commits.

With ``--trace 1`` the cycles alternate between traced and untraced;
per-layer metrics are per traced cycle, and the tracing overhead is the
median traced minus untraced cycle time. The last line of stdout is the
JSON result; the lines before it carry the machine fingerprint and
derived figures.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
# write no bytecode next to the sources; CLI processes get the same setting
sys.dont_write_bytecode = True
# One BLAS thread, set before numpy loads and inherited by CLI processes.
# With one per core, OpenBLAS's second thread spins on the core the other
# tenants of a 2-vCPU machine use, and timings follow their load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import spans  # noqa: E402
from spans import median  # noqa: E402

PERTURBATION = 1e-9  # amplitude of the seeded initial tracer
BATCH = 50  # width of the batched forecaster_step check


@dataclass(frozen=True)
class Mix:
    """Input and stage repetitions of a warm workload's cycle."""

    field: str
    modulate: bool
    starts: tuple  # evaluation starts, ``chunk`` per evaluate call
    chunk: int
    reps: dict  # stage -> calls per cycle


@dataclass(frozen=True)
class Plan:
    """Sizes for one scale of the benchmark."""

    data: dict  # GeneratorConfig overrides
    tau: int
    train: dict  # TrainConfig overrides
    epochs: tuple  # (classic, adversarial) per training call
    horizon: int
    warm: dict  # workload -> Mix
    cold_starts: str
    rollouts: int  # single-trajectory rollouts timed per cold pipeline


PLANS = {
    # ROADMAP desk config: 32x32 grid, 600 steps, tau 16, hidden 64,
    # lag 2, batch 32, dropout 0.3, sigmoid, d_steps 2 (the defaults)
    "desk": Plan(
        data={}, tau=16, train={}, epochs=(5, 1), horizon=50,
        warm={
            "train": Mix("tracer", False, tuple(range(400, 541, 20)), 2,
                         {"train": 6, "generate": 3, "reduce": 3,
                          "evaluate": 6, "rollouts": 12}),
            "forecast": Mix("all", True, tuple(range(400, 541)), 4,
                            {"train": 2, "generate": 4, "reduce": 2,
                             "evaluate": 6, "rollouts": 20}),
        },
        cold_starts="400..403", rollouts=20,
    ),
    # the sizes of SMALL_CONFIG in tests/test_cli.py, for smoke tests
    "tiny": Plan(
        data={"grid_nx": 12, "grid_ny": 12, "n_steps": 90, "u0": 1.5,
              "kappa": 0.05, "source_period": 4.0, "source_center": (3, 3)},
        tau=4, train={"batch_size": 16, "hidden_nodes": 8, "dropout": 0.0},
        epochs=(2, 1), horizon=10,
        warm={
            "train": Mix("tracer", False, (20, 40, 60), 2,
                         {"train": 2, "generate": 1, "reduce": 1,
                          "evaluate": 1, "rollouts": 2}),
            "forecast": Mix("all", True, tuple(range(20, 71, 10)), 2,
                            {"train": 1, "generate": 2, "reduce": 1,
                             "evaluate": 2, "rollouts": 4}),
        },
        cold_starts="60..62", rollouts=2,
    ),
}

# (name, unit) of every end-to-end metric, in the order printed
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("generate_s", "s"),
    ("reduce_s", "s"),
    ("train_classic_samples_per_s", "1/s"),
    ("train_adv_samples_per_s", "1/s"),
    ("val_mse_classic", "1"),
    ("val_mse_adv", "1"),
    ("evaluate_steps_per_s", "1/s"),
    ("forecast_step_us", "us"),
    ("rollout_err_classic", "1"),
    ("rollout_err_adv", "1"),
    ("pipeline_s", "s"),
)


class BenchFailure(Exception):
    """The benchmark could not produce a result."""


class Kernels:
    """Calibration kernels: fixed pieces of work like the program's own,
    one per kind of stage, so that other tenants' load slows a kernel as
    much as it slows the stages it calibrates.

    - ``small``: an LSTM cell step on one row, 60 times; numpy calls on
      tiny arrays, as in the solver, rollouts and CLI commands.
    - ``batch``: the step on 32 rows, 20 times, then ``small``; as in
      training.
    - ``svd``: the SVD of a 120x240 matrix; as in PCA.
    """

    # seconds each kernel takes on the reference machine (2-vCPU Intel
    # Xeon, Python 3.11, numpy 2.4 with scipy-openblas 0.3.31, one BLAS
    # thread) with no other load: a reference second is this much time
    REF_S = {"small": 0.00065, "batch": 0.0021, "svd": 0.0033}

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.m = rng.standard_normal((120, 240))
        self.x = rng.standard_normal((32, 16))
        self.w = rng.standard_normal((80, 256))
        self.seconds = defaultdict(list)

    def __call__(self, kind):
        start = time.perf_counter()
        getattr(self, "_" + kind)()
        elapsed = time.perf_counter() - start
        self.seconds[kind].append(elapsed)
        return elapsed

    def _step(self, rows, times):
        np = self.np
        h = np.zeros((rows, 64))
        for _ in range(times):
            z = np.concatenate([self.x[:rows], h], axis=1) @ self.w
            g = 1.0 / (1.0 + np.exp(-z))
            h = g[:, 128:192] * np.tanh(g[:, :64] * np.tanh(z[:, 64:128]))

    def _small(self):
        self._step(1, 60)

    def _batch(self):
        self._step(32, 20)
        self._step(1, 60)

    def _svd(self):
        self.np.linalg.svd(self.m, full_matrices=False)


# kernel of each timed name; the rest use ``small``
KERNEL_OF = {"train_classic_samples_per_s": "batch",
             "train_adv_samples_per_s": "batch", "reduce_s": "svd"}


@dataclass
class Recorder:
    """Samples, operation counts and failed output checks of one run."""

    kernels: Kernels
    samples: dict = field(default_factory=lambda: defaultdict(list))
    walls: dict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def timed(self, name, fn, *args):
        """Call ``fn``; returns its result and its time in reference
        seconds. The wall time is kept in ``walls[name]``.

        The wall time is scaled by the reference time of the name's
        calibration kernel over the kernel's mean time just before and
        after the call: when other tenants slow the machine, the kernel
        slows with it, and the ratio keeps the program's own speed.
        """
        kind = KERNEL_OF.get(name, "small")
        before = self.kernels(kind)
        start = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - start
        after = self.kernels(kind)
        self.walls[name].append(wall)
        return out, wall * Kernels.REF_S[kind] / (0.5 * (before + after))

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"failed: {what}")

    def check(self, ok, what):
        if not ok:
            self.problems.append(f"check: {what}")

    def value(self, name):
        values = self.samples.get(name)
        if not values:
            raise BenchFailure(f"no samples for {name}")
        return median(values)


# ---------------------------------------------------------------- warm --


class Warm:
    """In-process pipeline stages; each call records its own samples."""

    def __init__(self, rc, plan, mix, seed, rec):
        self.rc = rc
        self.plan = plan
        self.mix = mix
        self.rec = rec
        self.gen = rc.snapshots.GeneratorConfig(
            **{**plan.data, "modulate_velocity": mix.modulate, "seed": seed,
               "init_amplitude": PERTURBATION})
        self.cfg = rc.training.TrainConfig(**{**plan.train, "seed": 0})
        self.chunks = [mix.starts[i:i + mix.chunk]
                       for i in range(0, len(mix.starts), mix.chunk)]
        self.evaluated = 0
        self.errors = {}  # chunk index -> (number of starts, mean errors)
        self.first = {}  # first output of each stage, for determinism checks

    def same(self, key, value, what):
        """Keep the first value of ``key``; later ones must equal it."""
        if key not in self.first:
            self.first[key] = value
            return True
        self.rec.check(self.rc.np.array_equal(self.first[key], value),
                       f"{what} differs between repetitions of one seed")
        return False

    def generate(self):
        snap, elapsed = self.rec.timed(
            "generate_s", self.rc.snapshots.generate, self.gen)
        self.rec.samples["generate_s"].append(elapsed)
        self.rec.op(True, "generate")
        self.data = snap.data if self.mix.field == "all" \
            else snap.field(self.mix.field)
        self.same("data", self.data, "snapshot matrix")
        return elapsed

    def reduce(self):
        pca, snapshots = self.rc.pca, self.rc.snapshots

        def run():
            basis = pca.fit(self.data, tau=self.plan.tau)
            scores = pca.project(basis, self.data)
            scaler = snapshots.fit_scaler(scores)
            return basis, scores, scaler, scaler.scale(scores)

        (basis, scores, scaler, scaled), elapsed = self.rec.timed(
            "reduce_s", run)
        self.rec.samples["reduce_s"].append(elapsed)
        self.rec.op(True, "reduce")
        self.scores, self.scaler, self.scaled = scores, scaler, scaled
        if self.same("scores", scores, "PCA scores"):
            check_basis(self.rc, self.rec, basis, self.data, scores)
        self.dataset, windows = self.rec.timed(
            "make_windows", self.rc.training.make_windows, scaled,
            self.cfg.time_lag, self.cfg.train_fraction)
        return elapsed + windows

    def train(self):
        training, np = self.rc.training, self.rc.np
        classic_epochs, adv_epochs = self.plan.epochs
        runs = (
            ("classic", replace(self.cfg, epochs=classic_epochs),
             training.train_classic),
            ("adv", replace(self.cfg, epochs=adv_epochs, adversarial=True),
             training.train_adversarial),
        )
        self.models = {}
        for name, cfg, fn in runs:
            metric = f"train_{name}_samples_per_s"
            try:
                out, elapsed = self.rec.timed(metric, fn, self.dataset, cfg)
            except self.rc.errors.NonFiniteLoss as exc:
                self.rec.op(False, f"train_{name}: {exc}")
                raise
            self.rec.op(True, f"train_{name}")
            self.rec.samples[metric].append(
                cfg.epochs * self.dataset.split / elapsed)
            model, report = out[0], out[-1]
            losses = [report.train_loss, report.val_loss,
                      report.d_loss or [], report.g_adv_loss or []]
            self.rec.check(all(np.all(np.isfinite(x)) for x in losses),
                           f"train_{name}: non-finite loss in report")
            val = validation_mse(self.rc, model, self.dataset)
            self.rec.check(abs(val - report.val_loss[-1]) <= 1e-12 * val,
                           f"train_{name}: reported val MSE != recomputed")
            self.same(f"val_{name}", val, f"val MSE of {name}")
            self.rec.samples[f"val_mse_{name}"].append(val)
            self.models[name] = model

    def evaluate(self):
        index = self.evaluated % len(self.chunks)
        starts = self.chunks[index]
        self.evaluated += 1
        report, elapsed = self.rec.timed(
            "evaluate_steps_per_s", self.rc.forecast.evaluate_ensemble,
            self.models["classic"], self.models["adv"], self.scores,
            self.scaler, starts, self.plan.horizon)
        self.rec.samples["evaluate_steps_per_s"].append(
            2 * len(starts) * self.plan.horizon / elapsed)
        record_divergence(self.rec, report, len(starts))
        means = self.rc.np.stack([report.mean_classic, report.mean_adv])
        if self.same(f"chunk{index}", means, "ensemble errors"):
            self.errors[index] = (len(starts), means)

    def rollouts(self):
        start = self.mix.starts[0]
        window = self.scaled[start:start + self.cfg.time_lag]
        time_rollouts(self.rc, self.rec, self.models["adv"], self.scaler,
                      [window], self.plan.horizon)

    def record_errors(self):
        """Mean rollout error of each model over every start evaluated."""
        np = self.rc.np
        if len(self.errors) != len(self.chunks):
            raise BenchFailure("the evaluation did not cover every start")
        total = sum(n for n, _ in self.errors.values())
        means = sum(n * m for n, m in self.errors.values()) / total
        for row, name in enumerate(("classic", "adv")):
            self.rec.check(np.all(np.isfinite(means[row])),
                           f"evaluate: non-finite mean error for {name}")
            self.rec.samples[f"rollout_err_{name}"].append(
                float(np.mean(means[row])))


def validation_mse(rc, model, dataset):
    pred, _ = rc.neural.forecaster_forward(model, dataset.val_inputs)
    return rc.optim.mse(pred, dataset.val_targets)


def check_basis(rc, rec, basis, data, scores):
    """EOF rows orthonormal; residual energy equals 1 - explained variance."""
    np, pca = rc.np, rc.pca
    eofs = basis.eofs
    gram = eofs @ eofs.T
    rec.check(np.max(np.abs(gram - np.eye(len(gram)))) <= 1e-9,
              "PCA EOF rows are not orthonormal")
    centered = data - data.mean(axis=0)
    residual = centered - (pca.reconstruct(basis, scores) - basis.mean)
    frac = np.sum(residual**2) / np.sum(centered**2)
    expected = 1.0 - pca.explained_variance(basis)[basis.tau - 1]
    rec.check(abs(frac - expected) <= 1e-9 + 1e-6 * expected,
              f"PCA residual {frac:.3e} != 1 - explained {expected:.3e}")


def record_divergence(rec, report, n_starts):
    for name, diverged in (("classic", report.diverged_classic),
                           ("adv", report.diverged_adv)):
        for i in range(n_starts):
            rec.op(i >= diverged, f"evaluate: a {name} rollout diverged")


def time_rollouts(rc, rec, model, scaler, windows, horizon):
    """Time each single-trajectory rollout on its own."""
    for window in windows:
        result, elapsed = rec.timed("forecast_step_us", rc.forecast.rollout,
                                    model, scaler, window, horizon)
        rec.samples["forecast_step_us"].append(1e6 * elapsed / horizon)
        rec.op(result.diverged_at is None, "single rollout diverged")


def check_batch(rc, rec, model, scaled):
    """forecaster_step on a batch equals per-row calls."""
    np, forecast = rc.np, rc.forecast
    batch = np.stack([scaled[s:s + model.time_lag] for s in range(BATCH)])
    together = forecast.forecaster_step(model, batch)
    apart = np.stack([forecast.forecaster_step(model, w) for w in batch])
    rec.check(np.max(np.abs(together - apart)) <= 1e-12,
              "batched forecaster_step differs from per-row calls")


def interleave(reps):
    """Stage calls of one cycle, each stage's calls spread evenly over it,
    so that every stage samples the whole run and not one part of it."""
    slots = [((i + 0.5) / n, k, stage)
             for k, (stage, n) in enumerate(reps.items()) for i in range(n)]
    return [stage for _, _, stage in sorted(slots)]


def run_cycles(seconds, trace, cycle, setup, min_cycles=1, tracer=None):
    """Repeat ``cycle``, then ``setup``, for ``seconds`` and at least
    ``min_cycles`` times.

    With tracing, cycles alternate between traced and untraced (at least
    one of each), and ``tracer``, if given, is installed around the traced
    ones. Returns {traced: [cycle seconds]}.
    """
    walls = {True: [], False: []}
    deadline = time.perf_counter() + seconds
    n = 0
    while n < min_cycles or time.perf_counter() < deadline or (trace and n < 2):
        traced = bool(trace) and n % 2 == 0
        if traced and tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            cycle(traced)
            walls[traced].append(time.perf_counter() - start)
        finally:
            if tracer is not None:
                tracer.uninstall()
        n += 1
        setup()
    return walls


def warm_workload(rc, plan, args, tracer):
    mix = plan.warm[args.workload]
    rec = Recorder(Kernels(rc.np))
    work = Warm(rc, plan, mix, args.seed, rec)

    def setup():
        rec.samples["setup_s"].append(work.generate() + work.reduce())

    if args.trace:
        tracer.install()  # to catch each function's first call
    try:
        setup()
    finally:
        tracer.uninstall()
    tracer.reset()
    # warm-up: the models exist before the first stage that needs them,
    # and the first training and rollout calls are not timed
    work.train()
    work.rollouts()
    for name in list(rec.samples):
        if name != "setup_s" and not name.startswith("val_mse"):
            del rec.samples[name]
            rec.walls.pop(name, None)

    order = interleave(mix.reps)

    def cycle(traced):
        for stage in order:
            getattr(work, stage)()
        check_batch(rc, rec, work.models["adv"], work.scaled)

    min_cycles = math.ceil(len(work.chunks) / mix.reps["evaluate"])
    walls = run_cycles(args.seconds, args.trace, cycle, setup, min_cycles,
                       tracer)
    work.record_errors()
    rec.samples["peak_rss_mb"] = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    samples = work.dataset.split
    classic_epochs, adv_epochs = plan.epochs
    eval_steps = 2 * len(mix.starts) * plan.horizon
    rec.samples["pipeline_s"] = [
        rec.value("generate_s") + rec.value("reduce_s")
        + classic_epochs * samples / rec.value("train_classic_samples_per_s")
        + adv_epochs * samples / rec.value("train_adv_samples_per_s")
        + eval_steps / rec.value("evaluate_steps_per_s")]
    return rec, walls, tracer.snapshot(), {}, 0.0


# ---------------------------------------------------------------- cold --


def cold_config(plan, seed):
    data = {**plan.data, "seed": seed, "init_amplitude": PERTURBATION}
    return {
        "data": data,
        "pca": {"field": "tracer", "tau": plan.tau, "variance": None},
        "train": {**plan.train, "seed": 0},
    }


# Cold generate and PCA vary most from run to run (a 15 MB write and
# read, the first BLAS call); they run twice per pass for more samples.
COLD_REPEATS = {"generate": 2, "pca": 2}


def cold_commands(plan, workdir):
    """Artifact paths, then (name, romcast argv) in pipeline order."""
    p = {name: str(workdir / name) for name in (
        "config.json", "snap.romf", "basis.romf", "scaler.romf",
        "classic.romf", "adv.romf", "ensemble.csv")}
    data = ["--snapshots", p["snap.romf"], "--basis", p["basis.romf"],
            "--scaler", p["scaler.romf"]]
    classic_epochs, adv_epochs = plan.epochs
    return p, [
        ("generate", ["generate", "--config", p["config.json"],
                      "--out", p["snap.romf"]]),
        ("pca", ["pca", "--config", p["config.json"],
                 "--snapshots", p["snap.romf"], "--out", p["basis.romf"],
                 "--scaler-out", p["scaler.romf"]]),
        ("train", ["train", "--config", p["config.json"], *data,
                   "--epochs", str(classic_epochs),
                   "--out", p["classic.romf"]]),
        ("train_adv", ["train", "--adversarial", "--config", p["config.json"],
                       *data, "--epochs", str(adv_epochs),
                       "--out", p["adv.romf"]]),
        ("evaluate", ["evaluate", "--classic", p["classic.romf"],
                      "--adv", p["adv.romf"], *data,
                      "--starts", plan.cold_starts,
                      "--horizon", str(plan.horizon),
                      "--out", p["ensemble.csv"]]),
    ]


def run_cli(argv, cwd, trace_out=None):
    """Run one romcast command as a fresh process; returns (code, wall)."""
    cmd = [sys.executable, str(HERE / "romcast_entry.py")]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run(cmd + argv, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=150)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, wall


def cold_workload(rc, plan, args, tracer):
    rec = Recorder(Kernels(rc.np))

    def make_workdir():
        workdir = WORK / f"cli{len(rec.samples['setup_s'])}"
        workdir.mkdir(parents=True)
        with open(workdir / "config.json", "w") as fh:
            json.dump(cold_config(plan, args.seed), fh)
        code, wall = run_cli(["--version"], workdir)
        rec.op(code == 0, f"romcast --version exited {code}")
        rec.samples["cli_startup"].append(wall)
        return workdir

    def setup():
        """A fresh directory with the config; returns it."""
        workdir, elapsed = rec.timed("setup_s", make_workdir)
        rec.samples["setup_s"].append(elapsed)
        return workdir

    workdir = setup()
    paths, commands = cold_commands(plan, workdir)
    snaps = []
    first = {}

    def run(name, argv, trace_out=None):
        (code, wall), elapsed = rec.timed(f"cli_{name}", run_cli, argv,
                                          workdir, trace_out)
        rec.op(code == 0, f"romcast {name} exited {code}")
        if code != 0:
            raise BenchFailure(f"romcast {name} exited {code}")
        return wall, elapsed

    cold_walls = defaultdict(list)

    def cycle(traced):
        for name, argv in commands:
            for _ in range(COLD_REPEATS.get(name, 1)):
                run_command(name, argv, traced)
        cold_outputs(rc, rec, plan, paths, first)

    def run_command(name, argv, traced):
        trace_out = workdir / f"trace-{name}.json" if traced else None
        wall, elapsed = run(name, argv, trace_out)
        if traced:
            with open(trace_out) as fh:
                snaps.append(json.load(fh))
        else:
            rec.samples[f"cli_{name}"].append(elapsed)
            cold_walls[name].append(wall)

    walls = run_cycles(args.seconds, args.trace, cycle, setup)
    # bench times itself in loops of its own; it runs once, for its exit code
    bench, _ = run("bench", ["bench", "--model", paths["adv.romf"],
                             "--scaler", paths["scaler.romf"],
                             "--config", paths["config.json"],
                             "--horizon", str(plan.horizon)])
    s = rec.samples
    typical = {name: median(s[f"cli_{name}"]) for name, _ in commands}
    s["generate_s"] = [typical["generate"]]
    s["reduce_s"] = [typical["pca"]]
    classic_epochs, adv_epochs = plan.epochs
    s["train_classic_samples_per_s"] = [
        classic_epochs * first["k_train"] / typical["train"]]
    s["train_adv_samples_per_s"] = [
        adv_epochs * first["k_train"] / typical["train_adv"]]
    s["evaluate_steps_per_s"] = [
        2 * first["n_starts"] * plan.horizon / typical["evaluate"]]
    s["pipeline_s"] = [sum(typical.values())]
    s["peak_rss_mb"] = [
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0]
    cli_walls = {name: median(cold_walls[name]) for name, _ in commands}
    cli_walls["bench"] = bench
    return rec, walls, spans.merge(snaps), cli_walls, median(s["cli_startup"])


def cold_outputs(rc, rec, plan, paths, first):
    """Check a pipeline's artifacts and take quality metrics from them."""
    np = rc.np
    manifests = {}
    for key in ("snap.romf", "basis.romf", "scaler.romf", "classic.romf",
                "adv.romf", "ensemble.csv"):
        try:
            manifests[key] = rc.cli.verify_artifact(paths[key])
        except rc.errors.RomcastError as exc:
            rec.op(False, f"verify {key}: {exc}")
            raise BenchFailure(f"{key} failed verification") from exc
        rec.op(True, f"verify {key}")
    snap = rc.snapshots.SnapshotMatrix.load(paths["snap.romf"])
    basis = rc.pca.PcaBasis.load(paths["basis.romf"])
    scaler = rc.snapshots.MinMaxScaler.load(paths["scaler.romf"])
    data = snap.field("tracer")
    scores = rc.pca.project(basis, data)
    if "scores" not in first:
        check_basis(rc, rec, basis, data, scores)
        first["scores"] = scores
    rec.check(np.array_equal(first["scores"], scores),
              "CLI PCA scores differ between pipelines of one seed")
    scaled = scaler.scale(scores)
    cfg = rc.training.TrainConfig(**{**plan.train, "seed": 0})
    dataset = rc.training.make_windows(scaled, cfg.time_lag,
                                       cfg.train_fraction)
    first["k_train"] = dataset.split
    models = {}
    for name in ("classic", "adv"):
        model, _, _ = rc.neural.load_model(paths[f"{name}.romf"])
        val = validation_mse(rc, model, dataset)
        reported = manifests[f"{name}.romf"]["meta"]["final_val_mse"]
        rec.check(np.isfinite(val) and abs(val - reported) <= 1e-12 * val,
                  f"{name}: manifest val MSE != recomputed")
        rec.samples[f"val_mse_{name}"].append(val)
        models[name] = model
    report = rc.forecast.EnsembleReport.from_csv(paths["ensemble.csv"])
    meta = manifests["ensemble.csv"]["meta"]
    report.diverged_classic = meta["diverged_classic"]
    report.diverged_adv = meta["diverged_adv"]
    lo, hi = (int(part) for part in plan.cold_starts.split(".."))
    first["n_starts"] = hi - lo + 1
    record_divergence(rec, report, first["n_starts"])
    for name, means in (("classic", report.mean_classic),
                        ("adv", report.mean_adv)):
        rec.check(np.all(np.isfinite(means)),
                  f"evaluate: non-finite mean error for {name}")
        rec.samples[f"rollout_err_{name}"].append(float(np.mean(means)))
    windows = [scaled[lo:lo + cfg.time_lag]] * plan.rollouts
    time_rollouts(rc, rec, models["adv"], scaler, windows, plan.horizon)
    check_batch(rc, rec, models["adv"], scaled)


# -------------------------------------------------------------- output --


def fingerprint(rc, args):
    np = rc.np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
    }


def cpu_model():
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def blas_threads(np):
    """OpenBLAS thread count from numpy's bundled library, if it has one."""
    import ctypes
    import glob

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


class Romcast:
    """The romcast modules the benchmark calls, imported from ``src/``."""

    def __init__(self):
        src = ROOT / "src"
        if not (src / "romcast" / "__init__.py").is_file():
            raise ImportError(f"no romcast package under {src}")
        sys.path.insert(0, str(src))
        import numpy

        import romcast
        from romcast import (cli, errors, forecast, neural, optim, pca,
                             snapshots, training)

        if Path(romcast.__file__).resolve().parent != src / "romcast":
            raise ImportError(f"romcast imported from {romcast.__file__}")
        self.np = numpy
        self.cli, self.errors, self.forecast = cli, errors, forecast
        self.neural, self.optim, self.pca = neural, optim, pca
        self.snapshots, self.training = snapshots, training


WORKLOADS = {"train": warm_workload, "forecast": warm_workload,
             "cold-cli": cold_workload}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(PLANS), default="desk")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        rc = Romcast()
    except ImportError as exc:
        print(f"perfbench: cannot import romcast: {exc}", file=sys.stderr)
        return 2
    plan = PLANS[args.scale]
    tracer = spans.Tracer()
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        rec, walls, snap, cli_walls, startup = WORKLOADS[args.workload](
            rc, plan, args, tracer)
        info = {"fingerprint": fingerprint(rc, args)}
        if args.trace:
            traced, plain = median(walls[True]), median(walls[False])
            metrics = spans.per_layer_metrics(snap, len(walls[True]),
                                              cli_walls, startup)
            metrics["trace.overhead_pct"] = (
                100.0 * (traced - plain) / plain, "%")
            info["trace"] = {"traced_cycle_s": traced,
                             "untraced_cycle_s": plain,
                             "cycles": [len(walls[True]), len(walls[False])],
                             "absent": snap["absent"]}
        else:
            metrics = {name: (rec.value(name), unit)
                       for name, unit in END_TO_END}
            info["derived"] = {
                "cycles": len(walls[False]),
                # the machine's speed over the run, and the median wall
                # times behind the metrics, as measured
                "kernel_s": {
                    kind: {"reference": Kernels.REF_S[kind], "n": len(t),
                           "min": min(t), "median": median(t), "max": max(t)}
                    for kind, t in rec.kernels.seconds.items()},
                "wall_median_s": {name: median(values)
                                  for name, values in rec.walls.items()},
            }
            if args.workload != "cold-cli":
                # derived, not gated: a faster solver lowers it
                steps = rc.snapshots.GeneratorConfig(**plan.data).n_steps
                info["derived"]["sim_over_forecast_step"] = (
                    1e6 * rec.value("generate_s") / steps
                    / rec.value("forecast_step_us"))
        if rec.problems:
            info["problems"] = rec.problems[:20]
    except (BenchFailure, rc.errors.RomcastError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()
    result = {"correct": not rec.problems, "attempted": rec.attempted,
              "failed": rec.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
