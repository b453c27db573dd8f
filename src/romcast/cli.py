"""Command-line pipeline: generate -> pca -> train -> evaluate -> report.

Every command writes its artifact and a manifest beside it,
``<artifact>.manifest.json``, that records the tool version, seed,
config hash and the content hashes of its inputs, whose paths are
stored relative to the artifact's directory; consumers re-hash their
inputs and refuse to run on a stale pipeline.
Verbosity is controlled by the ROMCAST_LOG environment variable.
"""

import argparse
import datetime
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict

from . import __version__, forecast, pca, snapshots, training
from .errors import HashMismatch, InvalidConfig, MissingArtifact, RomcastError
from .neural import load_model, save_model

log = logging.getLogger("romcast")

DEFAULT_DATA = snapshots.GeneratorConfig()
DEFAULT_PCA = {"field": "tracer", "tau": 16, "variance": None,
               "scale_lo": 0.0, "scale_hi": 1.0}
DEFAULT_TRAIN = training.TrainConfig()
DEFAULT_GRID = dict(training.DEFAULT_GRID)
DEFAULT_SEARCH_EPOCHS = 60


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_hash(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":"),
                   default=str).encode()
    ).hexdigest()


def _manifest_path(artifact):
    return str(artifact) + ".manifest.json"


def _dir_of(artifact):
    return os.path.dirname(os.path.abspath(artifact))


def write_manifest(artifact, seed=None, config=None, inputs=None, meta=None):
    manifest = {
        "tool_version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": seed,
        "config_hash": _config_hash(config) if config is not None else None,
        "artifact": {"path": os.path.basename(str(artifact)),
                     "sha256": _sha256(artifact)},
        "inputs": {
            name: {"path": os.path.relpath(path, _dir_of(artifact)),
                   "sha256": _sha256(path)}
            for name, path in (inputs or {}).items()
        },
        "meta": meta or {},
    }
    with open(_manifest_path(artifact), "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest


def verify_artifact(path):
    """Check a pipeline artifact against its manifest; returns the manifest.

    Raises MissingArtifact when the file or manifest is absent and
    HashMismatch when the artifact or any recorded input changed since
    the manifest was written.
    """
    if not os.path.exists(path):
        raise MissingArtifact(f"artifact not found: {path}")
    mpath = _manifest_path(path)
    if not os.path.exists(mpath):
        raise MissingArtifact(f"manifest not found for artifact: {path}")
    with open(mpath) as fh:
        manifest = json.load(fh)
    if _sha256(path) != manifest["artifact"]["sha256"]:
        raise HashMismatch(f"{path} changed after its manifest was written")
    for name, entry in manifest.get("inputs", {}).items():
        source = os.path.join(_dir_of(path), entry["path"])
        if not os.path.exists(source):
            raise MissingArtifact(
                f"{path}: recorded input {name!r} missing at {source}"
            )
        if _sha256(source) != entry["sha256"]:
            raise HashMismatch(
                f"{path} is stale: input {name!r} ({source}) changed"
            )
    return manifest


def load_config(path):
    """Merge a user JSON config over the built-in defaults."""
    user = {}
    if path is not None:
        if not os.path.exists(path):
            raise FileNotFoundError(f"config file not found: {path}")
        with open(path) as fh:
            user = json.load(fh)
    config = {
        "data": asdict(DEFAULT_DATA),
        "pca": dict(DEFAULT_PCA),
        "train": asdict(DEFAULT_TRAIN),
        "grid": dict(DEFAULT_GRID),
        "search_epochs": DEFAULT_SEARCH_EPOCHS,
    }
    for section in ("data", "pca", "train", "grid"):
        part = user.get(section, {})
        if not isinstance(part, dict):
            raise InvalidConfig(f"config section {section!r} must be an object")
        if section == "grid" and part:
            config["grid"] = dict(part)
        else:
            config[section].update(part)
    if "search_epochs" in user:
        config["search_epochs"] = int(user["search_epochs"])
    return config


def _data_config(config, seed=None):
    data = dict(config["data"])
    data["source_center"] = tuple(data["source_center"])
    if seed is not None:
        data["seed"] = seed
    try:
        return snapshots.GeneratorConfig(**data)
    except TypeError as exc:
        raise InvalidConfig(f"bad data config: {exc}") from None


def _train_config(config, args):
    train = dict(config["train"])
    if getattr(args, "seed", None) is not None:
        train["seed"] = args.seed
    if getattr(args, "epochs", None) is not None:
        train["epochs"] = args.epochs
    if getattr(args, "adversarial", False):
        train["adversarial"] = True
    try:
        return training.TrainConfig(**train)
    except TypeError as exc:
        raise InvalidConfig(f"bad train config: {exc}") from None


def _load_scores(args):
    """Common path: verified snapshots + basis + scaler -> score matrices."""
    verify_artifact(args.snapshots)
    basis_manifest = verify_artifact(args.basis)
    verify_artifact(args.scaler)
    snap = snapshots.SnapshotMatrix.load(args.snapshots)
    basis = pca.PcaBasis.load(args.basis)
    scaler = snapshots.MinMaxScaler.load(args.scaler)
    field = basis_manifest["meta"].get("field", "tracer")
    data = snap.data if field == "all" else snap.field(field)
    scores = pca.project(basis, data)
    return snap, basis, scaler, scores, field


def cmd_generate(args):
    config = load_config(args.config)
    gen = _data_config(config, seed=args.seed)
    snap = snapshots.generate(gen)
    out = args.out or "snapshots.romf"
    snap.save(out)
    write_manifest(out, seed=gen.seed, config=asdict(gen),
                   meta={"n": snap.n, "m": snap.m,
                         "fields": list(snap.field_names),
                         "nodes_per_field": snap.nodes_per_field})
    if args.csv:
        snap.to_csv(args.csv)
    log.info("wrote %s (%d x %d)", out, snap.n, snap.m)
    print(f"generate: {out} n={snap.n} m={snap.m}")
    return 0


def cmd_pca(args):
    config = load_config(args.config)
    section = dict(config["pca"])
    if args.tau is not None:
        section["tau"], section["variance"] = args.tau, None
    if args.variance is not None:
        section["tau"], section["variance"] = None, args.variance
    if args.field is not None:
        section["field"] = args.field
    verify_artifact(args.snapshots)
    snap = snapshots.SnapshotMatrix.load(args.snapshots)
    field = section["field"]
    data = snap.data if field == "all" else snap.field(field)
    basis = pca.fit(data, tau=section.get("tau"),
                    variance=section.get("variance"))
    out = args.out or "basis.romf"
    basis.save(out)
    write_manifest(out, config=section, inputs={"snapshots": args.snapshots},
                   meta={"field": field, "tau": basis.tau, "rank": basis.rank})
    scores = pca.project(basis, data)
    scaler = snapshots.fit_scaler(scores, lo=section["scale_lo"],
                                  hi=section["scale_hi"])
    scaler_out = args.scaler_out or "scaler.romf"
    scaler.save(scaler_out)
    write_manifest(scaler_out, config=section,
                   inputs={"snapshots": args.snapshots, "basis": out},
                   meta={"field": field})
    explained = pca.explained_variance(basis)[basis.tau - 1]
    print(f"pca: {out} field={field} tau={basis.tau} "
          f"explained={explained:.6f}; scaler: {scaler_out}")
    return 0


def cmd_train(args):
    config = load_config(args.config)
    tcfg = _train_config(config, args)
    _, _, scaler, scores, field = _load_scores(args)
    dataset = training.make_windows(scaler.scale(scores), tcfg.time_lag,
                                    tcfg.train_fraction)
    out = args.out or ("model_adv.romf" if tcfg.adversarial else
                       "model_classic.romf")
    inputs = {"snapshots": args.snapshots, "basis": args.basis,
              "scaler": args.scaler}
    if tcfg.adversarial:
        model, disc, report = training.train_adversarial(dataset, tcfg)
        save_model(_disc_path(out), disc, seed=tcfg.seed)
        write_manifest(_disc_path(out), seed=tcfg.seed, config=asdict(tcfg),
                       inputs=inputs, meta={"field": field})
    else:
        model, report = training.train_classic(dataset, tcfg)
    save_model(out, model, seed=tcfg.seed)
    report_path = args.report or (str(out) + ".report.csv")
    report.to_csv(report_path)
    write_manifest(
        out, seed=tcfg.seed, config=asdict(tcfg), inputs=inputs,
        meta={"field": field, "final_train_mse": report.train_loss[-1],
              "final_val_mse": report.val_loss[-1],
              "report_csv": report_path},
    )
    kind = "adversarial" if tcfg.adversarial else "classic"
    print(f"train[{kind}]: {out} epochs={tcfg.epochs} "
          f"train_mse={report.train_loss[-1]:.6g} "
          f"val_mse={report.val_loss[-1]:.6g}")
    return 0


def _disc_path(model_path):
    root, ext = os.path.splitext(str(model_path))
    return f"{root}.disc{ext}"


def cmd_gridsearch(args):
    config = load_config(args.config)
    base = _train_config(config, args)
    _, _, scaler, scores, _ = _load_scores(args)
    grid = config["grid"]
    epochs = args.epochs or config["search_epochs"]
    best, results = training.grid_search(scaler.scale(scores), grid, base,
                                         search_epochs=epochs)
    out = args.out or "gridsearch.csv"
    axes = list(grid)
    with open(out, "w") as fh:
        fh.write(",".join(axes) + ",val_mse,failed\n")
        for point in results:
            row = [str(getattr(point.config, axis)) for axis in axes]
            fh.write(",".join(row) +
                     f",{point.val_mse:.6g},{int(point.failed)}\n")
    best_out = args.best_out or "best_config.json"
    with open(best_out, "w") as fh:
        json.dump({"train": asdict(best)}, fh, indent=2)
        fh.write("\n")
    write_manifest(out, config={"grid": grid, "epochs": epochs},
                   inputs={"snapshots": args.snapshots, "basis": args.basis,
                           "scaler": args.scaler},
                   meta={"points": len(results), "best": asdict(best)})
    print(f"gridsearch: {len(results)} points -> {out}; best -> {best_out} "
          f"(hidden={best.hidden_nodes} dropout={best.dropout} "
          f"activation={best.output_activation})")
    return 0


def _parse_starts(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",") if part]


def cmd_evaluate(args):
    verify_artifact(args.classic)
    verify_artifact(args.adv)
    _, _, scaler, scores, _ = _load_scores(args)
    classic, _, _ = load_model(args.classic)
    adv, _, _ = load_model(args.adv)
    starts = _parse_starts(args.starts)
    report = forecast.evaluate_ensemble(classic, adv, scores, scaler, starts,
                                        args.horizon)
    out = args.out or "ensemble_report.csv"
    report.to_csv(out)
    write_manifest(
        out,
        config={"starts": starts, "horizon": args.horizon},
        inputs={"snapshots": args.snapshots, "basis": args.basis,
                "scaler": args.scaler, "classic": args.classic,
                "adv": args.adv},
        meta={"aggregate_reduction_pct": report.aggregate_reduction_pct,
              "diverged_classic": report.diverged_classic,
              "diverged_adv": report.diverged_adv,
              "n_pairs": report.n_pairs.tolist()},
    )
    print(f"evaluate: {out} starts={starts[0]}..{starts[-1]} "
          f"horizon={args.horizon} "
          f"aggregate_reduction={report.aggregate_reduction_pct:.2f}%")
    return 0


def cmd_report(args):
    for path in args.reports:
        if not os.path.exists(path):
            raise MissingArtifact(f"report not found: {path}")
        rep = forecast.EnsembleReport.from_csv(path)
        horizon = len(rep.horizons)
        picks = sorted({0, horizon // 2 - 1, horizon - 1} & set(range(horizon)))
        print(f"\n{path}  (horizon {horizon})")
        print(f"  {'h':>4s} {'classic':>12s} {'adv':>12s} {'reduction':>10s}")
        for idx in picks:
            print(f"  {rep.horizons[idx]:>4d} {rep.mean_classic[idx]:>12.6g} "
                  f"{rep.mean_adv[idx]:>12.6g} {rep.reduction_pct[idx]:>9.2f}%")
        agg_classic, agg_adv = rep.aggregate
        print(f"  {'agg':>4s} {agg_classic:>12.6g} {agg_adv:>12.6g} "
              f"{rep.aggregate_reduction_pct:>9.2f}%")
    return 0


def cmd_bench(args):
    config = load_config(args.config)
    gen = _data_config(config)
    verify_artifact(args.model)
    verify_artifact(args.scaler)
    model, _, _ = load_model(args.model)
    timing = forecast.timing_benchmark(model, gen, horizon=args.horizon,
                                       ensemble_width=args.ensemble)
    print(f"bench: simulator {timing.sim_seconds_per_step * 1e6:.1f} us/step")
    print(f"bench: forecast (single trajectory) "
          f"{timing.forecast_seconds_per_step * 1e6:.1f} us/step "
          f"-> ratio {timing.ratio_single:.1f}x")
    print(f"bench: forecast (batch of {timing.ensemble_width}) "
          f"{timing.forecast_seconds_per_step_ensemble * 1e6:.2f} "
          f"us/step/trajectory -> ratio {timing.ratio_ensemble:.1f}x")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(asdict(timing), fh, indent=2)
            fh.write("\n")
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
    p.add_argument("--seed", type=int)
    p.add_argument("--csv", help="also export the snapshot matrix as CSV")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("pca", help="fit the truncated PCA basis and scaler")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--config")
    p.add_argument("--tau", type=int)
    p.add_argument("--variance", type=float)
    p.add_argument("--field")
    p.add_argument("--out")
    p.add_argument("--scaler-out")
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("train", help="train the LSTM forecaster")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--scaler", required=True)
    p.add_argument("--config")
    p.add_argument("--adversarial", action="store_true")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--report")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gridsearch", help="hyperparameter grid search")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--scaler", required=True)
    p.add_argument("--config")
    p.add_argument("--epochs", type=int, help="per-point epoch budget")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--best-out")
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("evaluate", help="classic-vs-adversarial rollout ensemble")
    p.add_argument("--classic", required=True)
    p.add_argument("--adv", required=True)
    p.add_argument("--snapshots", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--scaler", required=True)
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
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)
    return parser


def _setup_logging():
    level = os.environ.get("ROMCAST_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, InvalidConfig, json.JSONDecodeError,
            MissingArtifact) as exc:
        print(f"romcast: error: {exc}", file=sys.stderr)
        return 2
    except RomcastError as exc:
        print(f"romcast: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
