"""Command-line pipeline: generate -> pca -> train -> evaluate -> report.

Each command writes its artifacts, defaults in brackets, each with a
manifest beside it, ``<artifact>.manifest.json``:

- generate: the snapshots [snapshots.romf];
- pca: the basis [basis.romf] and the scaler [scaler.romf];
- train: the forecaster [model_classic.romf, or model_adv.romf with
  --adversarial]; its manifest's ``meta.curves`` holds the per-epoch
  train_mse and val_mse, and d_loss and g_adv_loss when adversarial;
- gridsearch: one row per grid point [gridsearch.csv]; its manifest's
  ``meta.best`` holds the train config of the best point, with the
  train section's epochs, not the per-point search budget;
- evaluate: the ensemble report [ensemble_report.csv].
report reads only an evaluate report that has its manifest, and bench
only prints.

Every command reads the whole config file and checks it, keys, types
and ranges, before it reads any input (``load_config``): a bad value in
a section the command does not use is a usage error too. The data, pca
and train sections are built as ``snapshots.GeneratorConfig``,
``pca.PcaConfig`` and ``training.TrainConfig``, which check themselves,
and a command applies its options to them through ``replace``.

A manifest records the tool version, seed, config hash and the content
hashes of its inputs, whose paths are stored relative to the artifact's
directory. Its ``environment`` records what can move the artifact's
bytes by rounding: the Python and numpy versions, the BLAS name and
version, ``os.cpu_count()`` and every ``*_NUM_THREADS`` variable set.
A command hashes each file it reads or writes once, checks every
manifest record against that hash and refuses to run on a stale
pipeline, or on a mismatched one: an input whose manifest records
another basis or scaler than the one given (snapshots may be another
run's). No command writes over one of its inputs, or writes two
outputs to one file.

Exit codes: 0 on success; 1 for a runtime or format failure, such as a
stale or corrupt artifact (a malformed snapshot file too) or a diverged
run; 2 for bad arguments or config, a missing input, an output path
that is a directory or lies in a missing one (all checked before any
work), or a path the system refuses (an ``OSError``). A standard output
whose reader has gone, as in ``romcast report r.csv | head -1``, ends
the command with exit 1 and nothing on stderr; the rest of its output
goes to ``os.devnull``.
Verbosity is controlled by the ROMCAST_LOG environment variable: one of
DEBUG, INFO, WARNING, ERROR or CRITICAL, in any case; unset or empty
means WARNING, and any other value is a usage error (exit 2) before any
work.
"""

import argparse
import contextvars
import datetime
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict, replace

from . import __version__, forecast, pca, snapshots, training
from .errors import HashMismatch, InvalidConfig, MissingArtifact, RomcastError
from .neural import load_model, save_model

log = logging.getLogger("romcast")

DEFAULT_SEARCH_EPOCHS = 60


# realpath -> sha256 of each file hashed while one command runs; ``main``
# sets an empty table and drops it when the command returns
_digests = contextvars.ContextVar("romcast_digests", default=None)


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _digest(path, fresh=False):
    """The sha256 of ``path``. Within a command a file is hashed on its
    first use and read from the table after; ``fresh`` hashes a file the
    command has just written, and records it."""
    table = _digests.get()
    if table is None:
        return _sha256(path)
    key = os.path.realpath(path)
    if fresh or key not in table:
        table[key] = _sha256(path)
    return table[key]


def _config_hash(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":"),
                   default=str).encode()
    ).hexdigest()


def _manifest_path(artifact):
    return str(artifact) + ".manifest.json"


def _dir_of(artifact):
    return os.path.dirname(os.path.abspath(artifact))


def _environment():
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy that only prints its config
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "threads": {name: value for name, value in sorted(os.environ.items())
                    if name.endswith("_NUM_THREADS")},
    }


def write_manifest(artifact, seed=None, config=None, inputs=None, meta=None):
    manifest = {
        "tool_version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": seed,
        "config_hash": _config_hash(config) if config is not None else None,
        "artifact": {"path": os.path.basename(str(artifact)),
                     "sha256": _digest(artifact, fresh=True)},
        "inputs": {
            name: {"path": os.path.relpath(path, _dir_of(artifact)),
                   "sha256": _digest(path)}
            for name, path in (inputs or {}).items()
        },
        "meta": meta or {},
        "environment": _environment(),
    }
    with open(_manifest_path(artifact), "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest


def verify_artifact(path):
    """Check a pipeline artifact against its manifest; returns the manifest.

    Raises MissingArtifact when the file or manifest is absent, and
    HashMismatch when the manifest is not a JSON object whose
    ``artifact.sha256`` is a string and whose ``inputs``, if any, map
    names to ``{path, sha256}`` strings, or when the artifact or any
    recorded input changed since the manifest was written.
    """
    if not os.path.exists(path):
        raise MissingArtifact(f"artifact not found: {path}")
    mpath = _manifest_path(path)
    if not os.path.exists(mpath):
        raise MissingArtifact(f"manifest not found for artifact: {path}")
    try:
        with open(mpath, "rb") as fh:
            manifest = json.load(fh)
        inputs = manifest.get("inputs", {})
        fields = [manifest["artifact"]["sha256"]]
        for entry in inputs.values():
            fields += [entry["path"], entry["sha256"]]
    except (ValueError, LookupError, TypeError, AttributeError):
        fields = [None]
    if not all(isinstance(field, str) for field in fields):
        raise HashMismatch(f"{mpath} is not a valid manifest")
    if _digest(path) != manifest["artifact"]["sha256"]:
        raise HashMismatch(f"{path} changed after its manifest was written")
    for name, entry in inputs.items():
        source = os.path.join(_dir_of(path), entry["path"])
        if not os.path.exists(source):
            raise MissingArtifact(
                f"{path}: recorded input {name!r} missing at {source}"
            )
        if _digest(source) != entry["sha256"]:
            raise HashMismatch(
                f"{path} is stale: input {name!r} ({source}) changed"
            )
    return manifest


def _fits(value, default):
    """Whether a config value has the JSON type of its default: a bool
    for a bool, a string for a string, an integer for an int, a number
    for a float or a null, and for a tuple a list of as many items that
    fit."""
    if isinstance(default, tuple):
        return (isinstance(value, list) and len(value) == len(default)
                and all(map(_fits, value, default)))
    if isinstance(default, (bool, str)) or isinstance(value, bool):
        return type(value) is type(default)
    return type(value) is int or (type(value) is float
                                  and not isinstance(default, int))


def load_config(path):
    """Merge a user JSON config over the built-in defaults, and check it
    whole, keys, types and ranges, before a command reads any input.

    A config takes only the top-level keys of the defaults. The data, pca
    and train sections and search_epochs take only the keys of the
    defaults, each value of its default's type (``_fits``); of the pca
    section's two truncations, tau and variance, the one not used is
    null. Each grid axis is a train key that ``training.GRID_KEYS``
    names, with a non-empty list of values that fit its default.

    Then the ranges, in every section, used by the command or not: the
    data, pca and train sections are returned built, as a
    ``snapshots.GeneratorConfig``, a ``pca.PcaConfig`` and a
    ``training.TrainConfig``, each of which checks itself; each grid
    value, and search_epochs as epochs, must be valid in that train
    config.
    """
    user = {}
    if path is not None:
        if not os.path.exists(path):
            raise FileNotFoundError(f"config file not found: {path}")
        with open(path) as fh:
            try:
                user = json.load(fh)
            except ValueError as exc:
                raise InvalidConfig(f"{path} is not JSON: {exc}") from None
        if not isinstance(user, dict):
            raise InvalidConfig(f"{path}: a config must be a JSON object")
    config = {
        "data": asdict(snapshots.GeneratorConfig()),
        "pca": asdict(pca.PcaConfig()),
        "train": asdict(training.TrainConfig()),
        "grid": dict(training.DEFAULT_GRID),
        "search_epochs": DEFAULT_SEARCH_EPOCHS,
    }
    for key in user:
        if key not in config:
            raise InvalidConfig(f"unknown config key {key!r}")
    for section in ("data", "pca", "train", "grid"):
        part = user.get(section, {})
        if not isinstance(part, dict):
            raise InvalidConfig(f"config section {section!r} must be an object")
        if section == "grid":
            for axis, values in part.items():
                if axis not in training.GRID_KEYS:
                    raise InvalidConfig(f"unknown grid axis {axis!r}")
                default = getattr(training.TrainConfig, axis)
                if not (isinstance(values, list) and values
                        and all(_fits(value, default) for value in values)):
                    raise InvalidConfig(
                        f"grid axis {axis}={values!r} is not a non-empty "
                        f"list of values of the type of {default!r}")
            config["grid"] = dict(part) or config["grid"]
            continue
        for key, value in part.items():
            if key not in config[section]:
                raise InvalidConfig(f"unknown {section} config key {key!r}")
            default = config[section][key]
            if not (_fits(value, default)
                    or value is None and key in ("tau", "variance")):
                raise InvalidConfig(f"{section} config {key}={value!r} is "
                                    f"not of the type of {default!r}")
        config[section].update(part)
    config["search_epochs"] = user.get("search_epochs", DEFAULT_SEARCH_EPOCHS)
    if not _fits(config["search_epochs"], DEFAULT_SEARCH_EPOCHS):
        raise InvalidConfig("search_epochs must be an integer, got "
                            f"{config['search_epochs']!r}")
    config["data"] = snapshots.GeneratorConfig(**config["data"])
    config["pca"] = pca.PcaConfig(**config["pca"])
    train = config["train"] = training.TrainConfig(**config["train"])
    for axis, values in [*config["grid"].items(),
                         ("epochs", [config["search_epochs"]])]:
        for value in values:
            replace(train, **{axis: value})
    return config


def _given(args, *names):
    """The options among ``names`` that were given on the command line."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _verify_io(inputs, outputs):
    """Check a command's files before it does any work: raise
    InvalidConfig when a path in ``outputs`` is a directory, lies in a
    directory that does not exist, or names the same file as one of the
    command's ``inputs``, an input's manifest or another output, then
    verify each input against its manifest (``verify_artifact``).

    ``inputs`` maps an input's name to its path, as a manifest records
    it, and ``outputs`` maps an option to the path it writes; returns
    the inputs' manifests by name.
    """
    claimed = {}
    for name, path in inputs.items():
        claimed.setdefault(os.path.realpath(path), f"--{name}")
        claimed.setdefault(os.path.realpath(_manifest_path(path)),
                           f"the manifest of --{name}")
    for option, path in outputs.items():
        if os.path.isdir(path):
            raise InvalidConfig(f"{option} {path} is a directory")
        if not os.path.isdir(_dir_of(path)):
            raise InvalidConfig(f"{option} {path}: directory "
                                f"{_dir_of(path)} does not exist")
        key = os.path.realpath(path)
        if key in claimed:
            raise InvalidConfig(f"{option} {path} is the same file as "
                                f"{claimed[key]}; give it another path")
        claimed[key] = option
    return {name: verify_artifact(path) for name, path in inputs.items()}


def _check_one_rom(inputs, manifests):
    """Raise HashMismatch, naming both files, when an input's manifest
    records another basis or scaler than the one given; snapshots are
    exempt. Called once the inputs have loaded, so that a file of the
    wrong kind is named as such first."""
    for name, manifest in manifests.items():
        for rom, entry in manifest.get("inputs", {}).items():
            if rom in ("basis", "scaler") and rom in inputs \
                    and entry["sha256"] != _digest(inputs[rom]):
                raise HashMismatch(f"{inputs[name]} was built on another "
                                   f"{rom} than {inputs[rom]}")


# the inputs that train, gridsearch and evaluate take their scores from
_DATA_INPUTS = ("snapshots", "basis", "scaler")


def _data_inputs(args):
    return {name: getattr(args, name) for name in _DATA_INPUTS}


def _load_scores(inputs):
    """(scaler, scores, field) from the verified snapshots, basis and
    scaler in ``inputs``; of the snapshots, only the basis's field is
    kept."""
    # the field is in the basis file's metadata, under its hash
    basis = pca.PcaBasis.load(inputs["basis"])
    data = snapshots.load_field(inputs["snapshots"], basis.field)
    scaler = snapshots.MinMaxScaler.load(inputs["scaler"])
    return scaler, pca.project(basis, data), basis.field


def cmd_generate(args):
    out = args.out or "snapshots.romf"
    gen = replace(load_config(args.config)["data"], **_given(args, "seed"))
    _verify_io({}, {"--out": out})
    snap = snapshots.generate(gen)
    snap.save(out)
    write_manifest(out, seed=gen.seed, config=asdict(gen),
                   meta={"n": snap.n, "m": snap.m,
                         "fields": list(snapshots.FIELD_NAMES),
                         "nodes_per_field": snap.nodes_per_field})
    log.info("wrote %s (%d x %d)", out, snap.n, snap.m)
    print(f"generate: {out} n={snap.n} m={snap.m}")
    return 0


def cmd_pca(args):
    out = args.out or "basis.romf"
    scaler_out = args.scaler_out or "scaler.romf"
    inputs = {"snapshots": args.snapshots}
    pcfg = replace(load_config(args.config)["pca"], **_given(args, "field"))
    if _given(args, "tau", "variance"):  # either one replaces both
        pcfg = replace(pcfg, tau=args.tau, variance=args.variance)
    _verify_io(inputs, {"--out": out, "--scaler-out": scaler_out})
    field = pcfg.field
    data = snapshots.load_field(args.snapshots, field)
    basis = replace(pca.fit(data, tau=pcfg.tau, variance=pcfg.variance),
                    field=field)
    basis.save(out)
    section = asdict(pcfg)
    write_manifest(out, config=section, inputs=inputs,
                   meta={"field": field, "tau": basis.tau, "rank": basis.rank})
    scores = pca.project(basis, data)
    scaler = snapshots.fit_scaler(scores)
    scaler.save(scaler_out)
    write_manifest(scaler_out, config=section,
                   inputs={**inputs, "basis": out},
                   meta={"field": field})
    explained = pca.explained_variance(basis)[basis.tau - 1]
    print(f"pca: {out} field={field} tau={basis.tau} "
          f"explained={explained:.6f}; scaler: {scaler_out}")
    return 0


def cmd_train(args):
    tcfg = replace(load_config(args.config)["train"],
                   **_given(args, "seed", "epochs", "adversarial"))
    out = args.out or ("model_adv.romf" if tcfg.adversarial else
                       "model_classic.romf")
    inputs = _data_inputs(args)
    manifests = _verify_io(inputs, {"--out": out})
    scaler, scores, field = _load_scores(inputs)
    _check_one_rom(inputs, manifests)
    dataset = training.make_windows(scaler.scale(scores), tcfg.time_lag,
                                    tcfg.train_fraction)
    adversarial_curves = {}
    if tcfg.adversarial:
        model, _, report = training.train_adversarial(dataset, tcfg)
        adversarial_curves = {"d_loss": report.d_loss,
                              "g_adv_loss": report.g_adv_loss}
    else:
        model, report = training.train_classic(dataset, tcfg)
    save_model(out, model, seed=tcfg.seed)
    write_manifest(
        out, seed=tcfg.seed, config=asdict(tcfg), inputs=inputs,
        meta={"field": field, "final_train_mse": report.train_loss[-1],
              "final_val_mse": report.val_loss[-1],
              "curves": {"train_mse": report.train_loss,
                         "val_mse": report.val_loss, **adversarial_curves}},
    )
    kind = "adversarial" if tcfg.adversarial else "classic"
    print(f"train[{kind}]: {out} epochs={tcfg.epochs} "
          f"train_mse={report.train_loss[-1]:.6g} "
          f"val_mse={report.val_loss[-1]:.6g}")
    return 0


def cmd_gridsearch(args):
    out = args.out or "gridsearch.csv"
    config = load_config(args.config)
    base = replace(config["train"], **_given(args, "seed"))
    grid = config["grid"]
    epochs = config["search_epochs"] if args.epochs is None else args.epochs
    replace(base, epochs=epochs)  # checks the budget before any work
    inputs = _data_inputs(args)
    manifests = _verify_io(inputs, {"--out": out})
    scaler, scores, _ = _load_scores(inputs)
    _check_one_rom(inputs, manifests)
    best, results = training.grid_search(scaler.scale(scores), grid, base,
                                         search_epochs=epochs)
    axes = list(grid)
    with open(out, "w") as fh:
        fh.write(",".join(axes) + ",val_mse,failed\n")
        for point in results:
            row = [str(getattr(point.config, axis)) for axis in axes]
            fh.write(",".join(row) +
                     f",{point.val_mse:.6g},{int(point.failed)}\n")
    write_manifest(out, config={"grid": grid, "epochs": epochs},
                   inputs=inputs,
                   meta={"points": len(results), "best": asdict(best)})
    print(f"gridsearch: {len(results)} points -> {out}; best "
          f"(hidden={best.hidden_nodes} dropout={best.dropout} "
          f"activation={best.output_activation})")
    return 0


def _parse_starts(text):
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            starts = list(range(int(lo), int(hi) + 1))
        else:
            starts = [int(part) for part in text.split(",") if part]
    except ValueError:
        starts = []
    if not starts or min(starts) < 0:
        raise InvalidConfig("--starts must be A..B with 0 <= A <= B or a "
                            f"comma list of integers >= 0, got {text!r}")
    return starts


def cmd_evaluate(args):
    out = args.out or "ensemble_report.csv"
    starts = _parse_starts(args.starts)
    if args.horizon < 1:
        raise InvalidConfig("--horizon must be >= 1")
    inputs = {**_data_inputs(args), "classic": args.classic, "adv": args.adv}
    manifests = _verify_io(inputs, {"--out": out})
    scaler, scores, _ = _load_scores(inputs)
    classic, _, _ = load_model(args.classic)
    adv, _, _ = load_model(args.adv)
    _check_one_rom(inputs, manifests)
    report = forecast.evaluate_ensemble(classic, adv, scores, scaler, starts,
                                        args.horizon)
    report.to_csv(out)
    write_manifest(
        out,
        config={"starts": starts, "horizon": args.horizon},
        inputs=inputs,
        meta={"aggregate_reduction_pct": report.aggregate_reduction_pct,
              "diverged_classic": report.diverged_classic,
              "diverged_adv": report.diverged_adv,
              "n_pairs": report.n_pairs.tolist()},
    )
    print(f"evaluate: {out} starts={starts[0]}..{starts[-1]} "
          f"horizon={args.horizon} "
          f"aggregate_reduction={report.aggregate_reduction_pct:.2f}%")
    return 0


def _check_evaluation(path, meta, horizon):
    """Raise HashMismatch unless ``meta``, from the verified manifest of
    the report at ``path``, records an evaluation of ``horizon`` steps.
    The diverged counts and ``n_pairs`` are only there, not in the CSV."""
    try:
        counts = [meta["diverged_classic"], meta["diverged_adv"]]
        pairs = meta["n_pairs"]
        valid = (isinstance(pairs, list) and len(pairs) == horizon
                 and all(type(n) is int for n in counts + pairs))
    except (LookupError, TypeError):
        valid = False
    if not valid:
        raise HashMismatch(f"{_manifest_path(path)} records no ensemble "
                           f"evaluation of {horizon} steps")


def cmd_report(args):
    for path in args.reports:
        meta = verify_artifact(path).get("meta")
        rep = forecast.EnsembleReport.from_csv(path)
        horizon = len(rep.horizons)
        _check_evaluation(path, meta, horizon)
        picks = sorted({0, horizon // 2 - 1, horizon - 1} & set(range(horizon)))
        print(f"\n{path}  (horizon {horizon})")
        print(f"  {'h':>4s} {'classic':>12s} {'adv':>12s} {'reduction':>10s} "
              f"{'pairs':>6s}")
        for idx in picks:
            print(f"  {rep.horizons[idx]:>4d} {rep.mean_classic[idx]:>12.6g} "
                  f"{rep.mean_adv[idx]:>12.6g} {rep.reduction_pct[idx]:>9.2f}% "
                  f"{meta['n_pairs'][idx]:>6d}")
        agg_classic, agg_adv = rep.aggregate
        print(f"  {'agg':>4s} {agg_classic:>12.6g} {agg_adv:>12.6g} "
              f"{rep.aggregate_reduction_pct:>9.2f}%")
        print(f"  diverged rollouts: classic {meta['diverged_classic']}, "
              f"adv {meta['diverged_adv']}")
    return 0


def cmd_bench(args):
    gen = load_config(args.config)["data"]
    if min(args.horizon, args.ensemble) < 1:
        raise InvalidConfig("--horizon and --ensemble must be >= 1")
    inputs = {"model": args.model, "scaler": args.scaler}
    manifests = _verify_io(inputs, {})
    model, _, _ = load_model(args.model)
    _check_one_rom(inputs, manifests)
    timing = forecast.timing_benchmark(model, gen, args.horizon, args.ensemble)
    sim = timing.sim_seconds_per_step
    single = timing.forecast_seconds_per_step
    batched = timing.forecast_seconds_per_step_ensemble
    print(f"bench: simulator {sim * 1e6:.1f} us/step")
    print(f"bench: forecast (single trajectory) {single * 1e6:.1f} us/step "
          f"-> ratio {sim / single:.1f}x")
    print(f"bench: forecast (batch of {args.ensemble}) {batched * 1e6:.2f} "
          f"us/step/trajectory -> ratio {sim / batched:.1f}x")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="romcast",
        description="Synthetic ROM forecasting pipeline: snapshot generation, "
                    "PCA reduction, classic vs adversarial LSTM training and "
                    "rollout evaluation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="run the synthetic solver")
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, help="draws the initial tracer "
                   "alone: with init_amplitude 0, the default, no byte moves")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("pca", help="fit the truncated PCA basis and scaler")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--config")
    truncation = p.add_mutually_exclusive_group()
    truncation.add_argument("--tau", type=int)
    truncation.add_argument("--variance", type=float)
    p.add_argument("--field")
    p.add_argument("--out")
    p.add_argument("--scaler-out")
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("train", help="train the LSTM forecaster")
    for name in _DATA_INPUTS:
        p.add_argument(f"--{name}", required=True)
    p.add_argument("--config")
    p.add_argument("--adversarial", action="store_true", default=None)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gridsearch", help="hyperparameter grid search")
    for name in _DATA_INPUTS:
        p.add_argument(f"--{name}", required=True)
    p.add_argument("--config")
    p.add_argument("--epochs", type=int, help="per-point epoch budget")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("evaluate", help="classic-vs-adversarial rollout ensemble")
    p.add_argument("--classic", required=True)
    p.add_argument("--adv", required=True)
    for name in _DATA_INPUTS:
        p.add_argument(f"--{name}", required=True)
    p.add_argument("--starts", required=True, help="A..B or comma list")
    p.add_argument("--horizon", type=int, default=50)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="summarise ensemble report CSVs")
    p.add_argument("reports", nargs="+")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("bench", help="simulator vs forecast step latency")
    p.add_argument("--model", required=True)
    p.add_argument("--scaler", required=True)
    p.add_argument("--config")
    p.add_argument("--horizon", type=int, default=50)
    p.add_argument("--ensemble", type=int, default=50)
    p.set_defaults(func=cmd_bench)
    return parser


_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _setup_logging():
    value = os.environ.get("ROMCAST_LOG", "")
    level = value.upper() or "WARNING"
    if level not in _LOG_LEVELS:
        raise InvalidConfig(f"ROMCAST_LOG={value!r} is not a log level; "
                            f"expected one of {', '.join(_LOG_LEVELS)}")
    logging.basicConfig(level=getattr(logging, level),
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    token = _digests.set({})
    try:
        _setup_logging()
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return code
    except BrokenPipeError:
        # as the Python docs' SIGPIPE note does: the flush at exit then
        # writes to devnull and cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (OSError, InvalidConfig, MissingArtifact) as exc:
        print(f"romcast: error: {exc}", file=sys.stderr)
        return 2
    except RomcastError as exc:
        print(f"romcast: error: {exc}", file=sys.stderr)
        return 1
    finally:
        _digests.reset(token)


if __name__ == "__main__":
    sys.exit(main())
