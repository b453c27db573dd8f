import glob
import json
import os

import numpy as np
import pytest

from romcast import cli, forecast

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


def run(*argv):
    return cli.main(list(argv))


def pipeline(workdir, train_args=()):
    assert run("generate", "--config", "config.json", "--out", "snap.romf") == 0
    assert run("pca", "--config", "config.json", "--snapshots", "snap.romf",
               "--out", "basis.romf", "--scaler-out", "scaler.romf") == 0
    assert run("train", "--config", "config.json", "--snapshots", "snap.romf",
               "--basis", "basis.romf", "--scaler", "scaler.romf",
               "--out", "classic.romf", *train_args) == 0


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
        bad = dict(SMALL_CONFIG, data=dict(SMALL_CONFIG["data"], grid_nx=1))
        with open("bad.json", "w") as fh:
            json.dump(bad, fh)
        assert run("generate", "--config", "bad.json") == 2


    @pytest.mark.parametrize("swap, missing", [
        ({"--classic": "basis.romf"}, "'lstm.w_i'"),
        ({"--basis": "classic.romf"}, "'mean'"),
        ({"--scaler": "basis.romf"}, "'mins'"),
    ])
    def test_wrong_kind_artifact_is_format_error(self, workdir, capsys, swap,
                                                 missing):
        pipeline(workdir)
        paths = {"--classic": "classic.romf", "--adv": "classic.romf",
                 "--snapshots": "snap.romf", "--basis": "basis.romf",
                 "--scaler": "scaler.romf", **swap}
        args = [item for pair in paths.items() for item in pair]
        capsys.readouterr()
        assert run("evaluate", *args, "--starts", "40..42",
                   "--horizon", "5") == 1
        err = capsys.readouterr().err
        assert "missing array" in err and missing in err


class TestGenerate:
    def test_reruns_are_byte_identical(self, workdir):
        run("generate", "--config", "config.json", "--out", "a.romf")
        run("generate", "--config", "config.json", "--out", "b.romf")
        with open("a.romf", "rb") as fa, open("b.romf", "rb") as fb:
            assert fa.read() == fb.read()

    def test_default_config_shape(self, workdir, capsys):
        # default grid is 32x32 with 3 fields: m = 3072, n = 600
        assert run("generate", "--out", "default.romf") == 0
        out = capsys.readouterr().out
        assert "n=600" in out and "m=3072" in out

    def test_csv_export(self, workdir):
        run("generate", "--config", "config.json", "--out", "snap.romf",
            "--csv", "snap.csv")
        header = open("snap.csv").readline().strip().split(",")
        assert header[0] == "tracer:0"
        assert len(header) == 3 * 144


class TestPcaCommand:
    def test_writes_basis_scaler_and_manifests(self, workdir):
        run("generate", "--config", "config.json", "--out", "snap.romf")
        assert run("pca", "--config", "config.json", "--snapshots",
                   "snap.romf", "--out", "basis.romf",
                   "--scaler-out", "scaler.romf") == 0
        assert sorted(glob.glob("*.romf*")) == [
            "basis.romf", "basis.romf.manifest.json", "scaler.romf",
            "scaler.romf.manifest.json", "snap.romf", "snap.romf.manifest.json"]
        manifest = json.load(open("basis.romf.manifest.json"))
        assert manifest["meta"]["tau"] == 4
        assert manifest["inputs"]["snapshots"]["path"] == "snap.romf"

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
        cli.verify_artifact("adv.disc.romf")
        assert os.path.exists("classic.romf.report.csv")
        # one file per artifact, plus its manifest
        assert [path for path in glob.glob("*.json")
                if not path.endswith(".manifest.json")] == ["config.json"]
        for path in glob.glob("*.romf"):
            cli.verify_artifact(path)
        assert run("evaluate", "--classic", "classic.romf", "--adv",
                   "adv.romf", "--snapshots", "snap.romf", "--basis",
                   "basis.romf", "--scaler", "scaler.romf", "--starts",
                   "40..50", "--horizon", "12", "--out", "report.csv") == 0
        lines = open("report.csv").read().splitlines()
        assert len(lines) == 13  # header + one row per horizon step
        meta = json.load(open("report.csv.manifest.json"))["meta"]
        assert meta["n_pairs"] == [11] * 12
        assert run("report", "report.csv") == 0
        out = capsys.readouterr().out
        assert "agg" in out

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
        inputs = json.load(open("run/classic.romf.manifest.json"))["inputs"]
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
    def test_report_without_pairs_prints_nan(self, workdir, capsys):
        nan = np.full(4, np.nan)
        forecast.EnsembleReport(
            horizons=np.arange(1, 5), mean_classic=nan, std_classic=nan,
            mean_adv=nan, std_adv=nan, reduction_pct=nan, start_steps=(0,),
        ).to_csv("nan.csv")
        assert run("report", "nan.csv") == 0
        agg = [line for line in capsys.readouterr().out.splitlines()
               if "agg" in line]
        assert agg[0].split() == ["agg", "nan", "nan", "nan%"]

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

    def test_epoch_and_seed_overrides(self, workdir):
        pipeline(workdir)
        assert run("train", "--config", "config.json", "--snapshots",
                   "snap.romf", "--basis", "basis.romf", "--scaler",
                   "scaler.romf", "--epochs", "2", "--seed", "5",
                   "--out", "c5.romf") == 0
        report = open("c5.romf.report.csv").read().splitlines()
        assert len(report) == 3
        manifest = json.load(open("c5.romf.manifest.json"))
        assert manifest["seed"] == 5


class TestGridSearch:
    def test_grid_outputs(self, workdir):
        pipeline(workdir)
        assert run("gridsearch", "--config", "config.json", "--snapshots",
                   "snap.romf", "--basis", "basis.romf", "--scaler",
                   "scaler.romf", "--out", "grid.csv", "--best-out",
                   "best.json") == 0
        rows = open("grid.csv").read().splitlines()
        assert rows[0] == "dropout,hidden_nodes,val_mse,failed"
        assert len(rows) == 3
        best = json.load(open("best.json"))
        assert best["train"]["dropout"] in (0.0, 0.2)


class TestBench:
    def test_bench_smoke(self, workdir, capsys):
        pipeline(workdir)
        assert run("bench", "--model", "classic.romf", "--scaler",
                   "scaler.romf", "--config", "config.json", "--horizon",
                   "10", "--ensemble", "8", "--out", "bench.json") == 0
        out = capsys.readouterr().out
        assert "ratio" in out
        timing = json.load(open("bench.json"))
        assert timing["sim_seconds_per_step"] > 0
