"""Per-layer tracing of romcast from outside the package.

``Tracer.install`` replaces each traced function at every name where
callers look it up: the module attribute in its home module and every
``from .x import name`` copy in the other ``romcast`` modules (class
methods are replaced on the class). Each call becomes a span; a span's
self time is its duration minus the time of the traced spans it
contains. ``Tracer.uninstall`` puts the originals back, so untraced
passes of a workload run the program exactly as shipped.

A traced name that no longer exists (a later refactor may fold
``forecaster_step`` into ``lstm_forward``, for example) is recorded in
``Tracer.absent`` and the metrics derived from it are left out; the run
goes on.
"""

import functools
import os
import sys
import time
from collections import defaultdict

LAYERS = ("neural", "optim", "training", "forecast", "snapshots", "pca",
          "romf", "cli")


def _lstm_rows(stat, args, kwargs, result, elapsed):
    """Rows are batch x steps; FLOPs are 8 * rows * H * (D + H)."""
    shape = _shape(args[1] if len(args) > 1 else kwargs["sequence"])
    rows = 1
    for dim in shape[:-1]:
        rows *= dim
    hidden = _shape(result[1])[-1]
    stat["rows"] += rows
    stat["flop"] += 8.0 * rows * hidden * (shape[-1] + hidden)


def _step_rows(stat, args, kwargs, result, elapsed):
    shape = _shape(args[1] if len(args) > 1 else kwargs["windows"])
    rows = shape[0] if len(shape) == 3 else 1
    stat["rows"] += rows
    if rows == 50:
        stat["batch50_s"] += elapsed
        stat["batch50_rows"] += rows


def _rollout_steps(stat, args, kwargs, result, elapsed):
    if result.diverged_at is None:
        stat["steps"] += result.horizon
        stat["survived"] += 1
    else:
        stat["steps"] += result.diverged_at


def _generate_steps(stat, args, kwargs, result, elapsed):
    stat["steps"] += result.n


def _nadam_side(stat, args, kwargs, result, elapsed):
    params = args[1] if len(args) > 1 else kwargs["params"]
    head = params.get("head.weight")
    side = "d" if head is not None and head.shape[0] == 1 else "g"
    stat["steps_" + side] += 1


def _bytes_of_path(stat, args, kwargs, result, elapsed):
    path = args[0] if args else kwargs["path"]
    stat["bytes"] += os.path.getsize(path)


def _shape(value):
    return getattr(value, "shape", ())


# (home module, attribute path, extra counter). A counter takes
# (stat, args, kwargs, result, elapsed) after each call that returns.
TARGETS = (
    ("neural", "lstm_forward", _lstm_rows),
    ("neural", "forecaster_forward", None),
    ("neural", "discriminator_forward", None),
    ("neural", "backward", None),
    ("neural", "forecaster_step", _step_rows),
    ("neural", "save_model", None),
    ("neural", "load_model", None),
    ("optim", "nadam_step", _nadam_side),
    ("optim", "bce", None),
    ("optim", "bce_grad", None),
    ("optim", "mse", None),
    ("optim", "mse_grad", None),
    ("optim", "clip_global_norm", None),
    ("training", "make_windows", None),
    ("training", "train_classic", None),
    ("training", "train_adversarial", None),
    ("forecast", "rollout", _rollout_steps),
    ("forecast", "evaluate_ensemble", None),
    ("snapshots", "generate", _generate_steps),
    ("snapshots", "fit_scaler", None),
    ("snapshots", "MinMaxScaler.scale", None),
    ("snapshots", "MinMaxScaler.invert", None),
    ("snapshots", "SnapshotMatrix.save", None),
    ("snapshots", "SnapshotMatrix.load", None),
    ("pca", "fit", None),
    ("pca", "project", None),
    ("pca", "reconstruct", None),
    ("pca", "PcaBasis.save", None),
    ("pca", "PcaBasis.load", None),
    ("romf", "write_arrays", _bytes_of_path),
    ("romf", "read_arrays", _bytes_of_path),
    ("cli", "main", None),
    ("cli", "verify_artifact", None),
    ("cli", "write_manifest", None),
)


class Tracer:
    """Span recorder over the functions listed in ``TARGETS``.

    ``stats[key]`` holds calls, inclusive seconds ``s``, ``self_s`` and
    the target's extra counters; ``first[key]`` is the duration of the
    first call made while installed, which ``reset`` keeps.
    """

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.first = {}
        self.absent = []
        self._stack = []
        self._patches = []

    def reset(self):
        self.stats.clear()

    def install(self):
        import romcast.cli  # noqa: F401  (loads every romcast module)

        self.absent = []
        for module_name, path, extra in TARGETS:
            key = f"{module_name}.{path}"
            owner = sys.modules.get(f"romcast.{module_name}")
            name = path
            if "." in path:
                cls_name, name = path.split(".")
                owner = getattr(owner, cls_name, None)
            raw = None if owner is None else vars(owner).get(name)
            if raw is None:
                self.absent.append(key)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(key, raw.__func__, extra))
                self._patch(owner, name, raw, wrapped)
            elif "." in path:
                self._patch(owner, name, raw, self._wrap(key, raw, extra))
            else:
                wrapped = self._wrap(key, raw, extra)
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("romcast"):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is raw:
                            self._patch(mod, attr, raw, wrapped)

    def uninstall(self):
        for owner, name, raw in reversed(self._patches):
            setattr(owner, name, raw)
        self._patches = []

    def _patch(self, owner, name, raw, wrapped):
        self._patches.append((owner, name, raw))
        setattr(owner, name, wrapped)

    def _wrap(self, key, fn, extra):
        stack = self._stack
        stats = self.stats
        first = self.first

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat = stats[key]
                stat["calls"] += 1
                stat["s"] += elapsed
                stat["self_s"] += elapsed - frame[0]
                first.setdefault(key, elapsed)
            if extra is not None:
                extra(stat, args, kwargs, result, elapsed)
            return result

        return wrapper

    def snapshot(self):
        """Plain-dict copy of the counters, for writing as JSON."""
        return {
            "stats": {key: dict(stat) for key, stat in self.stats.items()},
            "first": dict(self.first),
            "absent": list(self.absent),
        }


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if not ordered:
        return 0.0
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def merge(snapshots):
    """Combine the snapshots of several processes: counters add up, and
    each first-call duration is the median over the processes."""
    stats = defaultdict(lambda: defaultdict(float))
    firsts = defaultdict(list)
    absent = set()
    for snap in snapshots:
        for key, stat in snap["stats"].items():
            for field, value in stat.items():
                stats[key][field] += value
        for key, value in snap["first"].items():
            firsts[key].append(value)
        absent.update(snap["absent"])
    return {
        "stats": stats,
        "first": {key: median(values) for key, values in firsts.items()},
        "absent": sorted(absent),
    }


# cold wall times of CLI commands; the runner measures these itself
CLI_COMMANDS = ("generate", "pca", "train", "train_adv", "evaluate", "bench")


def per_layer_metrics(snap, cycles, cli_walls=None, startup_s=0.0):
    """Per-layer metrics per timed cycle, as {name: (value, unit)}.

    ``snap`` is a ``Tracer.snapshot()`` or ``merge`` result covering
    ``cycles`` traced cycles. A layer or function the workload did not
    call reports 0. Metrics that need an absent traced name are left out.
    """
    stats, first, absent = snap["stats"], snap["first"], set(snap["absent"])
    cli_walls = cli_walls or {}
    out = {}

    def get(key, field="s"):
        stat = stats.get(key)
        return float(stat.get(field, 0.0)) if stat else 0.0

    def add(name, unit, value, *keys):
        if not absent.intersection(keys):
            out[name] = (value, unit)

    def per_cycle(key, field="s"):
        return get(key, field) / cycles

    def ratio(num, den):
        return num / den if den else 0.0

    for layer in LAYERS:
        keys = [key for key in stats if key.split(".", 1)[0] == layer]
        add(f"layer.{layer}.self_s", "s",
            sum(get(key, "self_s") for key in keys) / cycles)
        add(f"layer.{layer}.calls", "count",
            sum(get(key, "calls") for key in keys) / cycles)

    lstm = "neural.lstm_forward"
    add("neural.lstm_forward.s", "s", per_cycle(lstm), lstm)
    add("neural.lstm_forward.calls", "count", per_cycle(lstm, "calls"), lstm)
    add("neural.lstm_forward.rows", "rows", per_cycle(lstm, "rows"), lstm)
    add("neural.lstm_forward.gflops_per_s", "GFLOP/s",
        ratio(get(lstm, "flop"), get(lstm)) / 1e9, lstm)
    add("neural.backward.s", "s", per_cycle("neural.backward"),
        "neural.backward")
    add("neural.backward.calls", "count",
        per_cycle("neural.backward", "calls"), "neural.backward")
    for name in ("forecaster_forward", "discriminator_forward"):
        key = f"neural.{name}"
        add(f"{key}.self_s", "s", per_cycle(key, "self_s"), key)

    nadam = "optim.nadam_step"
    add("optim.nadam_step.s", "s", per_cycle(nadam), nadam)
    add("optim.nadam_step.calls", "count", per_cycle(nadam, "calls"), nadam)
    add("optim.bce.s", "s",
        per_cycle("optim.bce") + per_cycle("optim.bce_grad"),
        "optim.bce", "optim.bce_grad")
    add("optim.mse.s", "s",
        per_cycle("optim.mse") + per_cycle("optim.mse_grad"),
        "optim.mse", "optim.mse_grad")
    add("optim.clip_global_norm.s", "s", per_cycle("optim.clip_global_norm"),
        "optim.clip_global_norm")

    add("training.make_windows.s", "s", per_cycle("training.make_windows"),
        "training.make_windows")
    for name in ("train_classic", "train_adversarial"):
        key = f"training.{name}"
        add(f"{key}.self_s", "s", per_cycle(key, "self_s"), key)
    add("training.optimizer_steps_g", "count", per_cycle(nadam, "steps_g"),
        nadam)
    add("training.optimizer_steps_d", "count", per_cycle(nadam, "steps_d"),
        nadam)

    roll = "forecast.rollout"
    add("forecast.rollout.s", "s", per_cycle(roll), roll)
    add("forecast.rollout.calls", "count", per_cycle(roll, "calls"), roll)
    add("forecast.rollout.steps", "count", per_cycle(roll, "steps"), roll)
    add("forecast.survived_frac", "1",
        ratio(get(roll, "survived"), get(roll, "calls")), roll)
    add("forecast.evaluate_ensemble.self_s", "s",
        per_cycle("forecast.evaluate_ensemble", "self_s"),
        "forecast.evaluate_ensemble")
    step = "neural.forecaster_step"
    add("neural.forecaster_step.s", "s", per_cycle(step), step)
    add("neural.forecaster_step.calls", "count", per_cycle(step, "calls"),
        step)
    add("neural.forecaster_step.rows_per_call", "rows",
        ratio(get(step, "rows"), get(step, "calls")), step)
    add("neural.forecaster_step.batch50_us_per_row", "us",
        1e6 * ratio(get(step, "batch50_s"), get(step, "batch50_rows")), step)
    add("snapshots.MinMaxScaler.invert.calls", "count",
        per_cycle("snapshots.MinMaxScaler.invert", "calls"),
        "snapshots.MinMaxScaler.invert")

    gen = "snapshots.generate"
    add("snapshots.generate.s", "s", per_cycle(gen), gen)
    add("snapshots.generate.us_per_step", "us",
        1e6 * ratio(get(gen), get(gen, "steps")), gen)

    add("pca.fit.s", "s", per_cycle("pca.fit"), "pca.fit")
    add("pca.fit.first_s", "s", first.get("pca.fit", 0.0), "pca.fit")
    add("pca.project.s", "s", per_cycle("pca.project"), "pca.project")

    for name in ("write_arrays", "read_arrays"):
        key = f"romf.{name}"
        add(f"{key}.s", "s", per_cycle(key), key)
        add(f"{key}.bytes", "bytes", per_cycle(key, "bytes"), key)

    verify = "cli.verify_artifact"
    add("cli.verify_artifact.s", "s", per_cycle(verify), verify)
    add("cli.verify_artifact.calls", "count", per_cycle(verify, "calls"),
        verify)
    add("cli.write_manifest.s", "s", per_cycle("cli.write_manifest"),
        "cli.write_manifest")
    for command in CLI_COMMANDS:
        add(f"cli.{command}.cold_s", "s", cli_walls.get(command, 0.0))
    add("cli.startup_s", "s", startup_s)
    return out
