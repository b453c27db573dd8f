import glob
import json
import os
import platform
import re
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import romcast
from romcast import cli, forecast, neural, pca, romf, snapshots, training

SMALL_CONFIG = {
    "data": {
        "grid_nx": 12, "grid_ny": 12, "n_steps": 90, "u0": 1.5,
        "kappa": 0.05, "source_period": 4.0, "source_center": [3, 3],
        "seed": 7, "init_amplitude": 0.5,
    },
    "pca": {"field": "tracer", "tau": 4, "variance": None},
    "train": {
        "batch_size": 16, "hidden_nodes": 8, "dropout": 0.0, "epochs": 4,
        "time_lag": 2, "seed": 1,
    },
    "grid": {"dropout": [0.0, 0.2], "hidden_nodes": [8]},
    "search_epochs": 2,
}


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open("config.json", "w") as fh:
        json.dump(SMALL_CONFIG, fh)
    return tmp_path


DATA = ["--snapshots", "snap.romf", "--basis", "basis.romf",
        "--scaler", "scaler.romf"]
CONFIG = ["--config", "config.json"]


def run(*argv):
    return cli.main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def pipeline(workdir, train_args=()):
    assert run("generate", "--config", "config.json", "--out", "snap.romf") == 0
    assert run("pca", "--config", "config.json", "--snapshots", "snap.romf",
               "--out", "basis.romf", "--scaler-out", "scaler.romf") == 0
    assert run("train", "--config", "config.json", "--snapshots", "snap.romf",
               "--basis", "basis.romf", "--scaler", "scaler.romf",
               "--out", "classic.romf", *train_args) == 0


def write_discriminator(path):
    """A discriminator file, as train --adversarial once wrote beside its
    model, and its manifest."""
    disc = neural.init_discriminator(4, 8, np.random.default_rng(0))
    romf.write_arrays(path, disc.params(), {"kind": "discriminator",
                                            "seed": 0})
    cli.write_manifest(path)


def refuse_work(*args, **kwargs):
    raise AssertionError("the command did its work")


class TestExitCodes:
    def test_missing_config_file_is_usage_error(self, workdir, capsys):
        assert run("generate", "--config", "nope.json") == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_artifact_is_usage_error(self, workdir, capsys):
        code = run("pca", "--config", "config.json", "--snapshots",
                   "ghost.romf")
        assert code == 2
        assert "ghost.romf" in capsys.readouterr().err

    def test_stale_pipeline_is_runtime_error(self, workdir, capsys):
        pipeline(workdir)
        # regenerate snapshots with another seed: basis manifest goes stale
        assert run("generate", "--config", "config.json", "--seed", "99",
                   "--out", "snap.romf") == 0
        code = run("train", "--config", "config.json", "--snapshots",
                   "snap.romf", "--basis", "basis.romf", "--scaler",
                   "scaler.romf", "--out", "c2.romf")
        assert code == 1
        assert "stale" in capsys.readouterr().err

    def test_bad_config_value_is_usage_error(self, workdir, capsys):
        def spoil(section, **change):
            return json.dumps(dict(
                SMALL_CONFIG, **{section: {**SMALL_CONFIG[section], **change}}))

        # (the config file's text, what the error names)
        cases = [
            (spoil("data", grid_nx=1), "grid_nx"),
            ("[]", "JSON object"),
            ("not json", "bad.json"),
            (spoil("data", source_center=3), "source_center"),
            (spoil("data", source_center=["3", 3]), "source_center"),
            (spoil("data", grid_nx="32"), "grid_nx"),
            (spoil("data", modulate_velocity=1), "modulate_velocity"),
            (spoil("train", epochs="2"), "epochs"),
            (spoil("train", dropout=None), "dropout"),
            (spoil("pca", variance="0.9"), "variance"),
            (spoil("pca", tua=3), "'tua'"),
            (spoil("grid", hidden_nodes=["8"]), "hidden_nodes"),
            (spoil("grid", hidden_nodes=8), "hidden_nodes"),
            (spoil("grid", hidden_nodes=[]), "hidden_nodes"),
            (spoil("grid", dropout=[0.1, True]), "dropout"),
            (spoil("grid", lr=[0.1]), "'lr'"),
            (spoil("train", disc_mode="step"), "'disc_mode'"),
            # deleted settings are unknown keys, whatever their value
            (spoil("data", velocity_mode="rotating"), "'velocity_mode'"),
            (spoil("data", boundary="periodic"), "'boundary'"),
            (spoil("train", clip_norm=0.0), "'clip_norm'"),
            (spoil("data", dx=1.0), "'dx'"),
            (spoil("data", dy=1.0), "'dy'"),
            (spoil("pca", scale_lo=0.0), "'scale_lo'"),
            (spoil("pca", scale_hi=1.0), "'scale_hi'"),
            (spoil("train", beta1=0.9), "'beta1'"),
            (spoil("train", beta2=0.999), "'beta2'"),
            (spoil("train", eps=1e-8), "'eps'"),
            (json.dumps(dict(SMALL_CONFIG, serach_epochs=1)),
             "'serach_epochs'"),
            # ranges are checked in every section, used by the command or not
            (spoil("train", lr=-1.0), "lr"),
            (spoil("grid", dropout=[0.0, 1.5]), "dropout"),
            (json.dumps(dict(SMALL_CONFIG, search_epochs=0)), "epochs"),
            (spoil("pca", tau=0), "tau"),
            (spoil("pca", field="bogus"), "bogus"),
        ]
        for text, message in cases:
            with open("bad.json", "w") as fh:
                fh.write(text)
            assert run("generate", "--config", "bad.json") == 2, text
            assert message in capsys.readouterr().err, text

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, section, key, value", [
        ("generate", "data", "dt", float("nan")),
        ("generate", "data", "source_period", float("inf")),
        ("generate", "data", "seed", -1),
        ("train", "train", "lr", float("nan")),
        ("train", "train", "d_lr", -1.0),
        ("train", "train", "seed", -1),
    ])
    def test_bad_config_number_is_usage_error(self, workdir, capsys, command,
                                              section, key, value):
        # json writes NaN and Infinity, and reads them back; train refuses
        # the number before it looks for its inputs, which do not exist
        with open("bad.json", "w") as fh:
            json.dump({section: {key: value}}, fh)
        assert run(command, "--config", "bad.json", *(
            DATA if command == "train" else ["--out", "snap.romf"])) == 2
        assert key in capsys.readouterr().err
        assert not os.path.exists("snap.romf")

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_negative_seed_is_usage_error(self, workdir, capsys, command):
        # numpy's generators refuse a negative seed with a traceback; the
        # CLI refuses it first, before any solve or data load
        assert run(command, *CONFIG, "--seed", "-1", *(
            DATA if command == "train" else ["--out", "snap.romf"])) == 2
        err = capsys.readouterr().err
        assert "romcast: error: seed must be >= 0" in err
        assert not os.path.exists("snap.romf")

    @pytest.mark.parametrize("argv", [
        ["generate", "--csv", "snap.csv"],
        ["gridsearch", *DATA, "--best-out", "best.json"],
        ["bench", "--model", "m.romf", "--scaler", "s.romf", "--out",
         "bench.json"],
    ])
    def test_removed_output_option_is_usage_error(self, workdir, capsys,
                                                  argv):
        # every file a command writes carries a manifest; these options
        # wrote files that had none
        with pytest.raises(SystemExit) as info:
            run(*argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert os.listdir() == ["config.json"]

    def test_gridsearch_of_zero_epochs_is_usage_error(self, workdir, capsys,
                                                      monkeypatch):
        pipeline(workdir)
        monkeypatch.setattr(cli, "_sha256", refuse_work)
        capsys.readouterr()
        assert run("gridsearch", *CONFIG, *DATA, "--epochs", "0") == 2
        assert "epochs" in capsys.readouterr().err
        assert not os.path.exists("gridsearch.csv")

    def test_bad_grid_is_usage_error_before_training(self, workdir, capsys,
                                                     monkeypatch):
        pipeline(workdir)

        def refuse(*args, **kwargs):
            raise AssertionError("a grid point trained")

        monkeypatch.setattr(training, "train_classic", refuse)
        # a value of the wrong type, and one out of range after a good one
        for grid, axis in [({"hidden_nodes": ["8"]}, "hidden_nodes"),
                           ({"dropout": [0.0, 1.5]}, "dropout")]:
            with open("bad.json", "w") as fh:
                json.dump(dict(SMALL_CONFIG, grid=grid), fh)
            capsys.readouterr()
            assert run("gridsearch", "--config", "bad.json", *DATA) == 2
            assert axis in capsys.readouterr().err
            assert not os.path.exists("gridsearch.csv")

    @pytest.mark.parametrize("manifest, text", [
        ("snap.romf.manifest.json", "{}"),
        ("snap.romf.manifest.json", "[]"),
        ("snap.romf.manifest.json", "not json"),
        ("basis.romf.manifest.json", None),  # an input record without path
    ])
    def test_malformed_manifest_is_runtime_error(self, workdir, capsys,
                                                 manifest, text):
        pipeline(workdir)
        if text is None:
            record = read_json(manifest)
            del record["inputs"]["snapshots"]["path"]
            text = json.dumps(record)
        with open(manifest, "w") as fh:
            fh.write(text)
        capsys.readouterr()
        assert run("train", *CONFIG, *DATA, "--out", "again.romf") == 1
        assert manifest in capsys.readouterr().err
        assert not os.path.exists("again.romf")

    @pytest.mark.parametrize("argv", [
        ["generate", *CONFIG, "--out", "adir"],
        ["generate", "--config", "adir"],
        ["report", "adir"],
    ])
    def test_directory_for_a_file_is_usage_error(self, workdir, capsys, argv):
        # an OSError ends as the CLI's error line, not a traceback
        os.mkdir("adir")
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert "romcast: error:" in err and "adir" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["generate", *CONFIG, "--out", "adir"],
        ["generate", *CONFIG, "--out", "missing/snap.romf"],
        ["gridsearch", *CONFIG, *DATA, "--out", "missing/grid.csv"],
        ["pca", *CONFIG, "--snapshots", "snap.romf", "--out", "adir"],
        ["pca", *CONFIG, "--snapshots", "snap.romf",
         "--scaler-out", "missing/scaler.romf"],
        ["train", *CONFIG, *DATA, "--out", "missing/model.romf"],
        ["train", *CONFIG, *DATA, "--adversarial", "--out", "adir"],
    ])
    def test_bad_output_path_fails_before_any_work(self, workdir, capsys,
                                                   monkeypatch, argv):
        pipeline(workdir)
        os.mkdir("adir")

        def refuse(*args, **kwargs):
            raise AssertionError("the command did its work")

        monkeypatch.setattr(snapshots, "generate", refuse)
        monkeypatch.setattr(pca, "fit", refuse)
        monkeypatch.setattr(training, "train_classic", refuse)
        monkeypatch.setattr(training, "train_adversarial", refuse)
        monkeypatch.setattr(training, "grid_search", refuse)
        capsys.readouterr()
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert "romcast: error:" in err and argv[-1] in err
        assert not os.path.exists("missing")

    @pytest.mark.parametrize("truncation", [
        ["--tau", "0"], ["--variance", "0"], ["--variance", "1.5"],
        # a pca section that names the deleted scaler range
        {"scale_lo": 1.0, "scale_hi": 0.0}, {"scale_hi": float("nan")},
        ["--field", "bogus"],
    ])
    def test_bad_truncation_fails_before_hashing(self, workdir, capsys,
                                                 monkeypatch, truncation):
        pipeline(workdir)
        if isinstance(truncation, dict):
            with open("bad.json", "w") as fh:
                json.dump(dict(SMALL_CONFIG, pca=truncation), fh)
            truncation = ["--config", "bad.json"]

        def refuse(*args, **kwargs):
            raise AssertionError("the command did its work")

        monkeypatch.setattr(cli, "_sha256", refuse)
        monkeypatch.setattr(pca, "fit", refuse)
        capsys.readouterr()
        assert run("pca", *CONFIG, "--snapshots", "snap.romf",
                   "--out", "b2.romf", *truncation) == 2
        err = capsys.readouterr().err
        assert "romcast: error:" in err and "Traceback" not in err
        assert not os.path.exists("b2.romf")
        assert not os.path.exists("b2.romf.manifest.json")

    @pytest.mark.parametrize("value", ["BASIC_FORMAT", "bogus"])
    def test_log_variable_naming_no_level_is_usage_error(
            self, workdir, capsys, monkeypatch, value):
        def refuse(*args, **kwargs):
            raise AssertionError("the command did its work")

        monkeypatch.setattr(snapshots, "generate", refuse)
        monkeypatch.setenv("ROMCAST_LOG", value)
        assert run("generate", *CONFIG, "--out", "snap.romf") == 2
        err = capsys.readouterr().err
        assert "romcast: error:" in err and value in err
        assert not os.path.exists("snap.romf")

    @pytest.mark.parametrize("value", ["debug", "Error", "CRITICAL", ""])
    def test_log_variable_takes_a_level_in_any_case(self, workdir,
                                                    monkeypatch, value):
        monkeypatch.setenv("ROMCAST_LOG", value)
        assert run("generate", *CONFIG, "--out", "snap.romf") == 0

    def test_non_integer_search_epochs_is_usage_error(self, workdir, capsys):
        with open("bad.json", "w") as fh:
            json.dump(dict(SMALL_CONFIG, search_epochs="x"), fh)
        assert run("generate", "--config", "bad.json") == 2
        assert "search_epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        (("--starts", "40..x"), "--starts"),
        (("--starts", "40..42", "--horizon", "0"), "horizon"),
        (("--starts", "42..40"), "--starts"),
        (("--starts", ","), "--starts"),
        (("--starts=-3..2",), "--starts"),
        (("--starts=3,-1",), "--starts"),
    ])
    def test_bad_evaluate_number_is_usage_error(self, workdir, capsys,
                                                monkeypatch, extra, message):
        pipeline(workdir)
        monkeypatch.setattr(cli, "_sha256", refuse_work)
        capsys.readouterr()
        assert run("evaluate", "--classic", "classic.romf", "--adv",
                   "classic.romf", "--snapshots", "snap.romf", "--basis",
                   "basis.romf", "--scaler", "scaler.romf", *extra) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists("ensemble_report.csv")

    @pytest.mark.parametrize("flag", ["--horizon", "--ensemble"])
    def test_bench_of_zero_is_usage_error(self, workdir, capsys, monkeypatch,
                                          flag):
        pipeline(workdir)
        monkeypatch.setattr(cli, "_sha256", refuse_work)
        capsys.readouterr()
        assert run("bench", "--model", "classic.romf", "--scaler",
                   "scaler.romf", "--config", "config.json", flag, "0") == 2
        assert ">= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("swap, missing", [
        ({"--classic": "basis.romf"}, "'lstm.W'"),
        ({"--basis": "classic.romf"}, "'mean'"),
        ({"--scaler": "basis.romf"}, "'mins'"),
        ({"--classic": "classic.disc.romf"}, None),
    ])
    def test_wrong_kind_artifact_is_format_error(self, workdir, capsys, swap,
                                                 missing):
        pipeline(workdir, ["--adversarial"])
        write_discriminator("classic.disc.romf")
        paths = {"--classic": "classic.romf", "--adv": "classic.romf",
                 "--snapshots": "snap.romf", "--basis": "basis.romf",
                 "--scaler": "scaler.romf", **swap}
        args = [item for pair in paths.items() for item in pair]
        capsys.readouterr()
        assert run("evaluate", *args, "--starts", "40..42",
                   "--horizon", "5") == 1
        err = capsys.readouterr().err
        [path] = swap.values()
        assert f"romcast: error: {path}: " in err
        if missing is None:
            assert "a discriminator, not a forecaster" in err
        else:
            assert f"missing array {missing}" in err

    @pytest.mark.parametrize("command", ["evaluate", "bench"])
    def test_model_past_float32_range_is_exit_1(self, workdir, capsys,
                                                monkeypatch, command):
        # a float64 model file whose weight float32 cannot hold: it loads,
        # and the narrowing refuses it before any step or solve
        pipeline(workdir)
        arrays, meta = romf.read_arrays("classic.romf")
        arrays["head.weight"][0, 0] = 1e39
        romf.write_arrays("big.romf", arrays, meta)
        cli.write_manifest("big.romf")
        solves = []
        monkeypatch.setattr(snapshots, "generate",
                            lambda *args: solves.append(args))
        capsys.readouterr()
        if command == "evaluate":
            argv = ["evaluate", *DATA, "--classic", "classic.romf", "--adv",
                    "big.romf", "--starts", "40..42", "--horizon", "5"]
        else:
            argv = ["bench", *CONFIG, "--model", "big.romf", "--scaler",
                    "scaler.romf", "--horizon", "5"]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "romcast: error: 'head.weight' holds a weight past float32's " \
            "range" in err
        assert not os.path.exists("ensemble_report.csv")
        assert solves == []

    def test_bench_of_a_discriminator_is_format_error(self, workdir, capsys):
        pipeline(workdir, ["--adversarial"])
        write_discriminator("classic.disc.romf")
        capsys.readouterr()
        assert run("bench", *CONFIG, "--model", "classic.disc.romf",
                   "--scaler", "scaler.romf", "--horizon", "5") == 1
        assert ("romcast: error: classic.disc.romf: a discriminator, not a "
                "forecaster") in capsys.readouterr().err

    def test_malformed_snapshot_file_is_format_error(self, workdir, capsys):
        # other names, an empty tracer record, one row: exit 1 naming the
        # file, with nothing fitted or written
        fields = dict.fromkeys(snapshots.FIELD_NAMES, np.ones((4, 6)))
        for arrays in [{"c": np.ones((4, 6)), "u": np.ones((4, 6)),
                        "v": np.ones((4, 6))},
                       {**fields, "tracer": np.ones((4, 0))},
                       dict.fromkeys(snapshots.FIELD_NAMES, np.ones((1, 6)))]:
            romf.write_arrays("bad.romf", arrays)
            cli.write_manifest("bad.romf")
            capsys.readouterr()
            assert run("pca", *CONFIG, "--snapshots", "bad.romf",
                       "--tau", "1") == 1
            assert "romcast: error: bad.romf: " in capsys.readouterr().err
            assert not os.path.exists("basis.romf")

    def test_snapshot_file_holding_nan_is_format_error(self, workdir,
                                                        capsys):
        run("generate", *CONFIG, "--out", "snap.romf")
        arrays, meta = romf.read_arrays("snap.romf")
        tracer = arrays["tracer"].copy()
        tracer[5, 3] = np.nan
        romf.write_arrays("snap.romf", {**arrays, "tracer": tracer}, meta)
        cli.write_manifest("snap.romf")
        capsys.readouterr()
        assert run("pca", *CONFIG, "--snapshots", "snap.romf") == 1
        assert ("romcast: error: snap.romf: snapshot matrix contains NaN"
                in capsys.readouterr().err)
        assert not os.path.exists("basis.romf")

    def test_nan_in_a_field_not_kept_is_format_error(self, workdir, capsys):
        # pca on the tracer keeps no velocity, but still reads all of it
        run("generate", *CONFIG, "--out", "snap.romf")
        arrays, meta = romf.read_arrays("snap.romf")
        arrays["vel_x"][7, 2] = np.nan
        romf.write_arrays("snap.romf", arrays, meta)
        cli.write_manifest("snap.romf")
        capsys.readouterr()
        assert run("pca", *CONFIG, "--snapshots", "snap.romf") == 1
        assert ("romcast: error: snap.romf: record 'vel_x' holds NaN/Inf"
                in capsys.readouterr().err)
        assert not os.path.exists("basis.romf")

    def test_basis_holding_nan_is_format_error_before_training(
            self, workdir, capsys, monkeypatch):
        pipeline(workdir)
        arrays, meta = romf.read_arrays("basis.romf")
        eofs = arrays["eofs"].copy()
        eofs[1, 7] = np.nan
        romf.write_arrays("basis.romf", {**arrays, "eofs": eofs}, meta)
        inputs = {"snapshots": "snap.romf"}
        cli.write_manifest("basis.romf", inputs=inputs)
        cli.write_manifest("scaler.romf",
                           inputs={**inputs, "basis": "basis.romf"})
        monkeypatch.setattr(training, "train_classic", refuse_work)
        capsys.readouterr()
        assert run("train", *CONFIG, *DATA, "--out", "again.romf") == 1
        assert ("romcast: error: basis.romf: basis 'eofs' holds NaN/Inf"
                in capsys.readouterr().err)
        assert not os.path.exists("again.romf")

    def test_model_holding_nan_is_format_error(self, workdir, capsys):
        # a NaN weight would otherwise show as every rollout diverged
        pipeline(workdir)
        arrays, meta = romf.read_arrays("classic.romf")
        weight = arrays["head.weight"].copy()
        weight[0, 0] = np.nan
        romf.write_arrays("classic.romf", {**arrays, "head.weight": weight},
                          meta)
        cli.write_manifest("classic.romf", inputs={
            "snapshots": "snap.romf", "basis": "basis.romf",
            "scaler": "scaler.romf"})
        capsys.readouterr()
        assert run("evaluate", "--classic", "classic.romf", "--adv",
                   "classic.romf", *DATA, "--starts", "40..42",
                   "--horizon", "5") == 1
        assert ("romcast: error: classic.romf: 'head.weight' holds NaN/Inf"
                in capsys.readouterr().err)
        assert not os.path.exists("ensemble_report.csv")

    def test_unknown_field_is_usage_error(self, workdir, capsys):
        run("generate", "--config", "config.json", "--out", "snap.romf")
        capsys.readouterr()
        assert run("pca", "--config", "config.json", "--snapshots",
                   "snap.romf", "--field", "bogus") == 2
        err = capsys.readouterr().err
        assert "'bogus'" in err and "tracer, vel_x, vel_y or all" in err

    def test_basis_of_unknown_field_is_format_error(self, workdir, capsys):
        # a basis file, hash-consistent with its manifests, that records a
        # field the snapshots do not have: a bad artifact, named
        pipeline(workdir)
        arrays, meta = romf.read_arrays("basis.romf")
        romf.write_arrays("basis.romf", arrays, {**meta, "field": "bogus"})
        cli.write_manifest("basis.romf", inputs={"snapshots": "snap.romf"})
        inputs = {"snapshots": "snap.romf", "basis": "basis.romf"}
        cli.write_manifest("scaler.romf", inputs=inputs)
        cli.write_manifest("classic.romf",
                           inputs={**inputs, "scaler": "scaler.romf"})
        data = ["--snapshots", "snap.romf", "--basis", "basis.romf",
                "--scaler", "scaler.romf"]
        capsys.readouterr()
        assert run("train", "--config", "config.json", *data,
                   "--out", "again.romf") == 1
        assert "basis.romf: unknown field 'bogus'" in capsys.readouterr().err
        assert run("evaluate", "--classic", "classic.romf", "--adv",
                   "classic.romf", *data, "--starts", "40..42",
                   "--horizon", "5") == 1
        assert "basis.romf: unknown field 'bogus'" in capsys.readouterr().err

    def test_model_and_basis_of_other_sizes_is_runtime_error(self, workdir,
                                                             capsys):
        # the models take 4 PCs; a basis and scaler of 2 must not reach
        # the kernel's matmul: the models were trained on another basis
        pipeline(workdir)
        assert run("pca", "--config", "config.json", "--snapshots",
                   "snap.romf", "--tau", "2", "--out", "basis2.romf",
                   "--scaler-out", "scaler2.romf") == 0
        capsys.readouterr()
        assert run("evaluate", "--classic", "classic.romf", "--adv",
                   "classic.romf", "--snapshots", "snap.romf", "--basis",
                   "basis2.romf", "--scaler", "scaler2.romf", "--starts",
                   "40..42", "--horizon", "5") == 1
        assert ("romcast: error: classic.romf was built on another basis "
                "than basis2.romf") in capsys.readouterr().err
        assert not os.path.exists("ensemble_report.csv")

    @pytest.mark.parametrize("argv, built, rom, given", [
        pytest.param(
            ["evaluate", "--classic", "classic.romf", "--adv", "classic.romf",
             "--snapshots", "snap.romf", "--basis", "other_basis.romf",
             "--scaler", "other_scaler.romf", "--starts", "40..42",
             "--horizon", "5"], "classic.romf", "basis", "other_basis.romf",
            id="evaluate-other_rom"),
        pytest.param(
            ["evaluate", "--classic", "classic.romf", "--adv", "classic.romf",
             "--snapshots", "snap.romf", "--basis", "basis.romf", "--scaler",
             "other_scaler.romf", "--starts", "40..42", "--horizon", "5"],
            "other_scaler.romf", "basis", "basis.romf",
            id="evaluate-other_scaler"),
        pytest.param(
            ["train", *CONFIG, "--snapshots", "snap.romf", "--basis",
             "basis.romf", "--scaler", "other_scaler.romf", "--out",
             "again.romf"], "other_scaler.romf", "basis", "basis.romf",
            id="train-other_scaler"),
        pytest.param(
            ["gridsearch", *CONFIG, "--snapshots", "snap.romf", "--basis",
             "other_basis.romf", "--scaler", "scaler.romf", "--out",
             "grid.csv"], "scaler.romf", "basis", "other_basis.romf",
            id="gridsearch-other_basis"),
        pytest.param(
            ["bench", *CONFIG, "--model", "classic.romf", "--scaler",
             "other_scaler.romf", "--horizon", "5"], "classic.romf",
            "scaler", "other_scaler.romf", id="bench-other_scaler"),
    ])
    def test_foreign_basis_or_scaler_is_hash_mismatch(
            self, workdir, capsys, monkeypatch, argv, built, rom, given):
        # a basis and scaler fitted on another run, each hash-consistent
        # with its own manifest: the command refuses the mix, naming the
        # input built on the other reduced model and the file given
        pipeline(workdir)
        assert run("generate", *CONFIG, "--seed", "8", "--out",
                   "other.romf") == 0
        assert run("pca", *CONFIG, "--snapshots", "other.romf", "--out",
                   "other_basis.romf", "--scaler-out",
                   "other_scaler.romf") == 0
        for module, name in [(training, "_train"),
                             (forecast, "evaluate_ensemble"),
                             (forecast, "timing_benchmark")]:
            monkeypatch.setattr(module, name, refuse_work)
        before = sorted(os.listdir())
        capsys.readouterr()
        assert run(*argv) == 1
        out, err = capsys.readouterr()
        assert err == (f"romcast: error: {built} was built on another "
                       f"{rom} than {given}\n")
        assert out == ""
        assert sorted(os.listdir()) == before

    def test_models_evaluate_on_other_snapshots(self, workdir, capsys):
        # another run's snapshots through the models' own basis and
        # scaler: the reduced model matches, so this is no mismatch
        pipeline(workdir)
        assert run("generate", *CONFIG, "--seed", "8", "--out",
                   "other.romf") == 0
        assert run("evaluate", "--classic", "classic.romf", "--adv",
                   "classic.romf", "--snapshots", "other.romf", "--basis",
                   "basis.romf", "--scaler", "scaler.romf", "--starts",
                   "40..42", "--horizon", "5") == 0
        assert os.path.exists("ensemble_report.csv")

    @pytest.mark.parametrize("argv", [
        ["train", *CONFIG, *DATA, "--out", "basis.romf"],
        ["train", *CONFIG, *DATA, "--out", "./snap.romf"],
        ["train", *CONFIG, *DATA, "--out", "basis.romf.manifest.json"],
        ["train", *CONFIG, *DATA, "--adversarial", "--out", "scaler.romf"],
        ["pca", *CONFIG, "--snapshots", "snap.romf", "--out", "x.romf",
         "--scaler-out", "x.romf"],
        ["pca", *CONFIG, "--snapshots", "snap.romf", "--scaler-out",
         "snap.romf"],
        ["gridsearch", *CONFIG, *DATA, "--out", "scaler.romf"],
        ["gridsearch", *CONFIG, *DATA, "--out", "snap.romf.manifest.json"],
        ["evaluate", "--classic", "classic.romf", "--adv", "classic.romf",
         *DATA, "--starts", "40..42", "--out", "classic.romf"],
        ["evaluate", "--classic", "classic.romf", "--adv", "classic.romf",
         *DATA, "--starts", "40..42", "--out", "basis.romf.manifest.json"],
        ["pca", *CONFIG, "--snapshots", "snap.romf", "--out", "snap.romf"],
    ])
    def test_output_over_an_input_is_usage_error(self, workdir, capsys,
                                                 argv):
        # a command that would write over one of its inputs, or write two
        # outputs to one file, stops before it writes anything
        pipeline(workdir)
        before = {path.name: path.read_bytes() for path in workdir.iterdir()}
        capsys.readouterr()
        assert run(*argv) == 2
        assert "is the same file as" in capsys.readouterr().err
        after = {path.name: path.read_bytes() for path in workdir.iterdir()}
        assert after == before


class TestGenerate:
    def test_reruns_are_byte_identical(self, workdir):
        run("generate", "--config", "config.json", "--out", "a.romf")
        run("generate", "--config", "config.json", "--out", "b.romf")
        with open("a.romf", "rb") as fa, open("b.romf", "rb") as fb:
            assert fa.read() == fb.read()

    def test_built_in_defaults_shape(self, workdir, capsys):
        # default grid is 32x32 with 3 fields: m = 3072, n = 600
        assert run("generate", "--out", "default.romf") == 0
        out = capsys.readouterr().out
        assert "n=600" in out and "m=3072" in out


class TestPcaCommand:
    def test_writes_basis_scaler_and_manifests(self, workdir):
        run("generate", "--config", "config.json", "--out", "snap.romf")
        assert run("pca", "--config", "config.json", "--snapshots",
                   "snap.romf", "--out", "basis.romf",
                   "--scaler-out", "scaler.romf") == 0
        assert sorted(glob.glob("*.romf*")) == [
            "basis.romf", "basis.romf.manifest.json", "scaler.romf",
            "scaler.romf.manifest.json", "snap.romf", "snap.romf.manifest.json"]
        manifest = read_json("basis.romf.manifest.json")
        assert manifest["meta"]["tau"] == 4
        assert manifest["inputs"]["snapshots"]["path"] == "snap.romf"

    def test_manifests_record_the_numeric_environment(self, workdir,
                                                      monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.setenv("ROMCAST_NUM_THREADS_X", "")  # a name, not a count
        pipeline(workdir)
        for path in ("snap.romf", "basis.romf", "scaler.romf", "classic.romf"):
            manifest = cli.verify_artifact(path)
            env = manifest["environment"]
            assert env["python"] == platform.python_version()
            assert env["numpy"] == np.__version__
            assert env["cpu_count"] == os.cpu_count()
            assert sorted(env["blas"]) == ["name", "version"]
            assert env["threads"]["OMP_NUM_THREADS"] == "3"
            assert "ROMCAST_NUM_THREADS_X" not in env["threads"]
            assert all(name.endswith("_NUM_THREADS") for name in env["threads"])
        # the meta records stay as they were
        assert sorted(read_json("basis.romf.manifest.json")["meta"]) == [
            "field", "rank", "tau"]

    def test_numpy_without_config_dicts_records_no_blas(self, workdir,
                                                        monkeypatch):
        monkeypatch.setattr(np, "show_config", lambda: None)
        run("generate", "--config", "config.json", "--out", "snap.romf")
        env = cli.verify_artifact("snap.romf")["environment"]
        assert env["blas"] == {"name": None, "version": None}
        assert env["numpy"] == np.__version__

    @pytest.mark.parametrize("field, digest", [
        ("tracer", "2bd3841ee919674f4f08f1da06140adc96e6f7c9cb81e3b539889331"
                   "a21477a5"),
        ("all", "6ce1883ff3b68e1486f4530e6d07e533216366c66afe44802185595"
                "471ab7b6c"),
    ], ids=["tracer", "all"])
    def test_config_hashes_as_the_dict_it_replaces(self, field, digest):
        # a pca manifest's config_hash is the hash of the dict of the
        # section's three keys
        section = asdict(pca.PcaConfig(field=field))
        assert section == {"field": field, "tau": 16, "variance": None}
        assert cli._config_hash(section) == digest

    def test_options_apply_to_the_config_section(self, workdir, monkeypatch):
        # --tau or --variance replaces both truncations of the section
        fits = []
        real_fit = pca.fit
        monkeypatch.setattr(pca, "fit", lambda data, **kwargs: (
            fits.append(kwargs) or real_fit(data, **kwargs)))
        with open("variance.json", "w") as fh:
            json.dump(dict(SMALL_CONFIG, pca={"tau": None, "variance": 0.9,
                                              "field": "all"}), fh)
        assert run("generate", *CONFIG, "--out", "snap.romf") == 0
        for argv, kwargs, field in [
            (["--tau", "3"], {"tau": 3, "variance": None}, "all"),
            (["--field", "tracer"], {"tau": None, "variance": 0.9}, "tracer"),
            ([], {"tau": None, "variance": 0.9}, "all"),
        ]:
            assert run("pca", "--config", "variance.json", "--snapshots",
                       "snap.romf", *argv) == 0
            assert fits.pop() == kwargs
            manifest = read_json("basis.romf.manifest.json")
            assert manifest["meta"]["field"] == field
            assert manifest["config_hash"] == cli._config_hash(
                {"field": field, **kwargs})
        assert run("pca", *CONFIG, "--snapshots", "snap.romf",
                   "--variance", "0.5") == 0
        assert fits.pop() == {"tau": None, "variance": 0.5}

    def test_tau_and_variance_are_exclusive(self, workdir, capsys):
        run("generate", "--config", "config.json", "--out", "snap.romf")
        with pytest.raises(SystemExit) as info:
            run("pca", "--config", "config.json", "--snapshots", "snap.romf",
                "--tau", "2", "--variance", "0.5")
        assert info.value.code == 2
        assert "not allowed with" in capsys.readouterr().err
        assert not os.path.exists("basis.romf")

    def test_variance_flag(self, workdir, capsys):
        run("generate", "--config", "config.json", "--out", "snap.romf")
        assert run("pca", "--config", "config.json", "--snapshots",
                   "snap.romf", "--variance", "0.9") == 0
        assert "tau=" in capsys.readouterr().out


class TestTrainEvaluateReport:
    def test_full_pipeline(self, workdir, capsys):
        pipeline(workdir)
        assert run("train", "--config", "config.json", "--snapshots",
                   "snap.romf", "--basis", "basis.romf", "--scaler",
                   "scaler.romf", "--adversarial", "--out", "adv.romf") == 0
        # one file per artifact, plus its manifest
        assert [path for path in glob.glob("*.json")
                if not path.endswith(".manifest.json")] == ["config.json"]
        for path in glob.glob("*.romf"):
            cli.verify_artifact(path)
        assert run("evaluate", "--classic", "classic.romf", "--adv",
                   "adv.romf", "--snapshots", "snap.romf", "--basis",
                   "basis.romf", "--scaler", "scaler.romf", "--starts",
                   "40..50", "--horizon", "12", "--out", "report.csv") == 0
        lines = read_lines("report.csv")
        assert len(lines) == 13  # header + one row per horizon step
        meta = read_json("report.csv.manifest.json")["meta"]
        assert meta["n_pairs"] == [11] * 12
        assert run("report", "report.csv") == 0
        out = capsys.readouterr().out
        assert "agg" in out

    @pytest.mark.parametrize("extra", [[], ["--adversarial"]],
                             ids=["classic", "adversarial"])
    def test_train_writes_the_model_and_its_manifest_only(self, workdir,
                                                          monkeypatch, extra):
        assert run("generate", *CONFIG, "--out", "snap.romf") == 0
        assert run("pca", *CONFIG, "--snapshots", "snap.romf") == 0
        reports = []
        for name in ("train_classic", "train_adversarial"):
            def recording(*args, real=getattr(training, name)):
                out = real(*args)
                reports.append(out[-1])
                return out
            monkeypatch.setattr(training, name, recording)
        os.mkdir("out")
        assert run("train", *CONFIG, *DATA, *extra, "--out", "out/m.romf") == 0
        assert sorted(os.listdir("out")) == ["m.romf", "m.romf.manifest.json"]
        [report] = reports
        meta = read_json("out/m.romf.manifest.json")["meta"]
        # every curve in full, the adversarial ones for an adversarial run
        curves = {"train_mse": report.train_loss, "val_mse": report.val_loss}
        if extra:
            curves.update(d_loss=report.d_loss, g_adv_loss=report.g_adv_loss)
        assert meta["curves"] == curves
        assert len(report.train_loss) == SMALL_CONFIG["train"]["epochs"]
        assert meta["final_train_mse"] == report.train_loss[-1]
        assert meta["final_val_mse"] == report.val_loss[-1]

    def test_basis_field_comes_from_the_hashed_file(self, workdir):
        # the manifest's meta.field is not hashed; editing it must not
        # change which field train projects
        pipeline(workdir)
        path = "basis.romf.manifest.json"
        manifest = read_json(path)
        assert manifest["meta"]["field"] == "tracer"
        manifest["meta"]["field"] = "vel_x"
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        assert run("train", "--config", "config.json", "--snapshots",
                   "snap.romf", "--basis", "basis.romf", "--scaler",
                   "scaler.romf", "--out", "again.romf") == 0
        with open("classic.romf", "rb") as fa, open("again.romf", "rb") as fb:
            assert fa.read() == fb.read()
        meta = read_json("again.romf.manifest.json")["meta"]
        assert meta["field"] == "tracer"

    def test_verify_and_evaluate_from_another_directory(self, workdir,
                                                         monkeypatch):
        os.mkdir("run")
        os.mkdir("elsewhere")
        data = ["--snapshots", "run/snap.romf", "--basis", "run/basis.romf",
                "--scaler", "run/scaler.romf"]
        assert run("generate", "--config", "config.json",
                   "--out", "run/snap.romf") == 0
        assert run("pca", "--config", "config.json", "--snapshots",
                   "run/snap.romf", "--out", "run/basis.romf",
                   "--scaler-out", "run/scaler.romf") == 0
        assert run("train", "--config", "config.json", *data,
                   "--out", "run/classic.romf") == 0
        inputs = read_json("run/classic.romf.manifest.json")["inputs"]
        assert inputs["basis"]["path"] == "basis.romf"
        monkeypatch.chdir("elsewhere")
        for name in ("snap", "basis", "scaler", "classic"):
            cli.verify_artifact(f"../run/{name}.romf")
        data = [arg.replace("run/", "../run/") for arg in data]
        assert run("evaluate", "--classic", "../run/classic.romf",
                   "--adv", "../run/classic.romf", *data, "--starts", "40..42",
                   "--horizon", "5", "--out", "../run/report.csv") == 0
        cli.verify_artifact(os.path.join(workdir, "run", "report.csv"))

    @pytest.mark.parametrize("artifact, old, new", [
        ("classic.romf", b'"time_lag":2', b'"time_lag":3'),
        ("basis.romf", b'"n":90', b'"n":91'),
    ])
    def test_edited_metadata_is_hash_mismatch(self, workdir, capsys,
                                              artifact, old, new):
        # a model's meta is hashed with it; a basis's is an input of the model
        pipeline(workdir)
        with open(artifact, "rb") as fh:
            raw = fh.read()
        assert raw.count(old) == 1
        with open(artifact, "wb") as fh:
            fh.write(raw.replace(old, new))
        capsys.readouterr()
        assert run("evaluate", "--classic", "classic.romf", "--adv",
                   "classic.romf", "--snapshots", "snap.romf", "--basis",
                   "basis.romf", "--scaler", "scaler.romf", "--starts",
                   "40..42", "--horizon", "5") == 1
        err = capsys.readouterr().err
        assert artifact in err and "changed" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", [
        "horizon,a,b,c,d,e\n1,2,3,4,5,6\n2,3,4\n",  # ragged rows
        "horizon,a,b,c,d,e\n",  # a header alone
    ])
    def test_malformed_report_is_runtime_error(self, workdir, capsys, text):
        with open("bad.csv", "w") as fh:
            fh.write(text)
        cli.write_manifest("bad.csv")
        assert run("report", "bad.csv") == 1
        assert ("romcast: error: bad.csv: expected rows of 6 report columns"
                in capsys.readouterr().err)

    @pytest.mark.filterwarnings("error")
    def test_report_with_a_word_for_a_number_is_runtime_error(self, workdir,
                                                              capsys):
        with open("bad.csv", "w") as fh:
            fh.write("horizon,a,b,c,d,e\n1,x,3,4,5,6\n")
        cli.write_manifest("bad.csv")
        assert run("report", "bad.csv") == 1
        assert ("romcast: error: bad.csv: a report cell is not a number"
                in capsys.readouterr().err)

    @pytest.mark.filterwarnings("error")
    def test_report_without_pairs_prints_nan(self, workdir, capsys):
        nan = np.full(4, np.nan)
        forecast.EnsembleReport(
            horizons=np.arange(1, 5), mean_classic=nan, std_classic=nan,
            mean_adv=nan, std_adv=nan, reduction_pct=nan,
        ).to_csv("nan.csv")
        cli.write_manifest("nan.csv", meta={"n_pairs": [0] * 4,
                                            "diverged_classic": 1,
                                            "diverged_adv": 1})
        assert run("report", "nan.csv") == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[-1] for line in lines[3:6]] == ["0", "0", "0"]
        assert lines[6].split() == ["agg", "nan", "nan", "nan%"]

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stdout_exits_1_quietly(self, workdir, unbuffered):
        # buffered or not, the write that fails is inside the command
        nan = np.full(4, np.nan)
        forecast.EnsembleReport(
            horizons=np.arange(1, 5), mean_classic=nan, std_classic=nan,
            mean_adv=nan, std_adv=nan, reduction_pct=nan,
        ).to_csv("report.csv")
        cli.write_manifest("report.csv", meta={"n_pairs": [0] * 4,
                                               "diverged_classic": 0,
                                               "diverged_adv": 0})
        src = os.path.dirname(os.path.dirname(romcast.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
        read, write = os.pipe()
        os.close(read)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "romcast.cli", "report", "report.csv"],
                stdout=write, stderr=subprocess.PIPE, env=env, text=True)
        finally:
            os.close(write)
        assert (child.returncode, child.stderr) == (1, "")

    def test_report_on_equal_models_prints_zero(self, workdir, capsys):
        pipeline(workdir)
        assert run("evaluate", "--classic", "classic.romf", "--adv",
                   "classic.romf", "--snapshots", "snap.romf", "--basis",
                   "basis.romf", "--scaler", "scaler.romf", "--starts",
                   "40..49", "--horizon", "10", "--out", "same.csv") == 0
        capsys.readouterr()
        assert run("report", "same.csv") == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if "%" in line:
                assert "0.00%" in line

    def test_report_shows_what_only_the_manifest_records(self, workdir,
                                                         capsys):
        pipeline(workdir)
        assert run("evaluate", "--classic", "classic.romf", "--adv",
                   "classic.romf", *DATA, "--starts", "40..49", "--horizon",
                   "10", "--out", "same.csv") == 0
        path = "same.csv.manifest.json"
        manifest = read_json(path)
        manifest["meta"].update(n_pairs=list(range(10, 0, -1)),
                                diverged_classic=2, diverged_adv=3)
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        capsys.readouterr()
        assert run("report", "same.csv") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].split() == ["h", "classic", "adv", "reduction",
                                    "pairs"]
        # horizons 1, 5 and 10
        assert [line.split()[-1] for line in lines[3:6]] == ["10", "6", "1"]
        assert lines[6].split()[0] == "agg"
        assert lines[7].split() == ["diverged", "rollouts:", "classic",
                                    "2,", "adv", "3"]
        # a manifest that no longer describes the report is refused
        with open("same.csv", "a") as fh:
            fh.write("\n")
        assert run("report", "same.csv") == 1
        assert "same.csv changed" in capsys.readouterr().err
        # a report without a manifest is a missing artifact
        os.remove(path)
        assert run("report", "same.csv") == 2
        assert ("romcast: error: manifest not found for artifact: same.csv"
                in capsys.readouterr().err)

    def test_epoch_and_seed_overrides(self, workdir):
        pipeline(workdir)
        assert run("train", "--config", "config.json", "--snapshots",
                   "snap.romf", "--basis", "basis.romf", "--scaler",
                   "scaler.romf", "--epochs", "2", "--seed", "5",
                   "--out", "c5.romf") == 0
        manifest = read_json("c5.romf.manifest.json")
        assert len(manifest["meta"]["curves"]["train_mse"]) == 2
        assert manifest["seed"] == 5


class TestGridSearch:
    def test_grid_outputs(self, workdir):
        pipeline(workdir)
        before = set(os.listdir())
        assert run("gridsearch", *CONFIG, *DATA) == 0
        # the one artifact and its manifest, nothing else
        assert set(os.listdir()) - before == {"gridsearch.csv",
                                              "gridsearch.csv.manifest.json"}
        rows = read_lines("gridsearch.csv")
        assert rows[0] == "dropout,hidden_nodes,val_mse,failed"
        assert len(rows) == 3
        # the best point is the row of least val_mse, recorded in meta.best
        best = cli.verify_artifact("gridsearch.csv")["meta"]["best"]
        least = min((row.split(",") for row in rows[1:]),
                    key=lambda row: float(row[2]))
        assert (best["dropout"], best["hidden_nodes"]) == (float(least[0]),
                                                           int(least[1]))
        # the config to train with: train.epochs, not the search budget
        assert best["epochs"] == 4


class TestBench:
    def test_bench_smoke(self, workdir, capsys):
        pipeline(workdir)
        assert run("bench", "--model", "classic.romf", "--scaler",
                   "scaler.romf", "--config", "config.json", "--horizon",
                   "10", "--ensemble", "8") == 0
        out = capsys.readouterr().out
        sim = float(re.search(r"simulator ([\d.]+) us/step", out)[1])
        rows = re.findall(r"\(([^)]*)\) ([\d.]+) us/step\S* -> ratio ([\d.]+)x",
                          out)
        assert sim > 0
        assert [kind for kind, _, _ in rows] == ["single trajectory",
                                                 "batch of 8"]
        # each ratio is the simulator step over the forecast step, to the
        # digits printed
        for _, step, ratio in rows:
            assert float(ratio) == pytest.approx(sim / float(step),
                                                 rel=0.02, abs=0.06)


class TestOneHashPerFile:
    @pytest.fixture()
    def hashes(self, monkeypatch):
        counts = {}
        sha256 = cli._sha256

        def counted(path):
            key = os.path.realpath(path)
            counts[key] = counts.get(key, 0) + 1
            return sha256(path)

        monkeypatch.setattr(cli, "_sha256", counted)
        return counts

    def test_each_command_hashes_each_file_once(self, workdir, hashes):
        evaluate = ["evaluate", "--classic", "classic.romf", "--adv",
                    "adv.romf", *DATA, "--starts", "40..42", "--horizon",
                    "5", "--out", "report.csv"]
        commands = [
            (["generate", *CONFIG, "--out", "snap.romf"], 1),
            (["pca", *CONFIG, "--snapshots", "snap.romf", "--out",
              "basis.romf", "--scaler-out", "scaler.romf"], 3),
            (["train", *CONFIG, *DATA, "--out", "classic.romf"], 4),
            (["train", *CONFIG, *DATA, "--adversarial", "--out",
              "adv.romf"], 4),
            (evaluate, 6),
        ]
        for argv, total in commands:
            hashes.clear()
            assert run(*argv) == 0
            assert set(hashes.values()) == {1}
            assert sum(hashes.values()) == total
        # outside a command nothing is kept: each check hashes again
        hashes.clear()
        for _ in range(2):
            cli.verify_artifact("adv.romf")
        assert sum(hashes.values()) == 8

    def test_snapshots_edited_in_place_are_stale(self, workdir, capsys):
        # one payload byte changes and the size stays, as when the file is
        # regenerated; its own manifest is rewritten to match, so only the
        # records of the basis, scaler and model can tell
        pipeline(workdir)
        size = os.path.getsize("snap.romf")
        with open("snap.romf", "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 1]))
        assert os.path.getsize("snap.romf") == size
        cli.write_manifest("snap.romf")
        capsys.readouterr()
        assert run("train", "--config", "config.json", *DATA,
                   "--out", "again.romf") == 1
        assert "stale" in capsys.readouterr().err
        assert run("evaluate", "--classic", "classic.romf", "--adv",
                   "classic.romf", *DATA, "--starts", "40..42",
                   "--horizon", "5") == 1
        assert "stale" in capsys.readouterr().err
