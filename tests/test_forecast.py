import collections
import warnings

import numpy as np
import pytest

from romcast import forecast, neural, snapshots
from romcast.errors import InvalidConfig, ShapeMismatch, StartOutOfRange


def tiny_setup(seed=0, n=120, tau=3):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    scores = 0.5 + 0.4 * np.sin(2 * np.pi * t[:, None] / (9.0 + 3 * np.arange(tau)))
    scores = scores + 0.01 * rng.standard_normal(scores.shape)
    scaler = snapshots.fit_scaler(scores)
    model = neural.init_forecaster(tau, 8, "sigmoid", 0.0, 2, rng)
    return scores, scaler, model


class TestRollout:
    def test_zero_horizon(self):
        scores, scaler, model = tiny_setup()
        result = forecast.rollout(model, scaler, scaler.scale(scores)[:2], 0)
        assert result.horizon == 0
        assert result.predictions.shape == (0, 3)
        assert result.diverged_at is None

    def test_stub_fixed_point(self, monkeypatch):
        scores, scaler, model = tiny_setup()

        def last_row(model_, windows):
            return windows[..., -1, :]

        monkeypatch.setattr(forecast, "forecaster_step", last_row)
        window = scaler.scale(scores)[:2]
        (preds,), _ = forecast._roll(model, window[None].copy(), 7)
        assert np.allclose(preds, np.tile(window[-1], (7, 1)))

    def test_first_step_equals_direct_prediction(self):
        scores, scaler, model = tiny_setup()
        window = scaler.scale(scores)[10:12]
        direct, _ = neural.forecaster_forward(model, window[None])
        (preds,), _ = forecast._roll(model, window[None].copy(), 5)
        assert preds[0].tobytes() == direct[0].tobytes()
        result = forecast.rollout(model, scaler, window, 5)
        assert result.predictions.tobytes() == scaler.invert(preds).tobytes()

    def test_norms_are_linalg_norms_bit_for_bit(self):
        scores, scaler, model = tiny_setup()
        window = scaler.scale(scores)[0:2]
        result = forecast.rollout(model, scaler, window, 6)
        diff = result.predictions - scores[2:8]
        norms = forecast._norms(diff)
        assert np.all(np.isfinite(norms))
        for h in range(6):
            assert norms[h] == np.linalg.norm(diff[h])
        # evaluate_ensemble takes them over (model, start, step) axes
        assert forecast._norms(diff[None, None])[0, 0].tobytes() == \
            norms.tobytes()

    def test_divergence_recorded_not_raised(self):
        scores, scaler, model = tiny_setup()
        model.head.bias[0] = np.nan
        result = forecast.rollout(model, scaler, scaler.scale(scores)[:2], 4)
        assert result.diverged_at == 0
        assert np.all(np.isnan(result.predictions))

    def test_inference_purity(self):
        scores, scaler, model = tiny_setup()
        window = scaler.scale(scores)[3:5]
        before = {k: v.copy() for k, v in model.params().items()}
        a = forecast.rollout(model, scaler, window, 10)
        b = forecast.rollout(model, scaler, window, 10)
        assert a.predictions.tobytes() == b.predictions.tobytes()
        for key, val in model.params().items():
            assert val.tobytes() == before[key].tobytes()

    def test_bad_window_rejected(self):
        scores, scaler, model = tiny_setup()
        with pytest.raises(ShapeMismatch):
            forecast.rollout(model, scaler, scaler.scale(scores)[:3], 4)


class TestEvaluateEnsemble:
    def test_identical_models_zero_reduction(self):
        scores, scaler, model = tiny_setup()
        report = forecast.evaluate_ensemble(model, model, scores, scaler,
                                            range(10, 20), 15)
        assert np.array_equal(report.reduction_pct, np.zeros(15))
        assert report.aggregate_reduction_pct == 0.0

    def test_reduction_formula(self):
        assert forecast._reduction(2.0, 1.0) == 50.0
        assert forecast._reduction(0.0, 1.0) == 0.0
        assert np.isnan(forecast._reduction(np.nan, 1.0))
        assert np.isnan(forecast._reduction(np.inf, 1.0))
        assert np.isnan(forecast._reduction(1.0, np.nan))

    def test_swapping_models_swaps_curves(self):
        scores, scaler, model_a = tiny_setup(seed=1)
        _, _, model_b = tiny_setup(seed=2)
        fwd = forecast.evaluate_ensemble(model_a, model_b, scores, scaler,
                                         range(5, 15), 10)
        rev = forecast.evaluate_ensemble(model_b, model_a, scores, scaler,
                                         range(5, 15), 10)
        assert np.array_equal(fwd.mean_classic, rev.mean_adv)
        assert np.array_equal(fwd.mean_adv, rev.mean_classic)
        assert np.array_equal(fwd.std_classic, rev.std_adv)

    def test_start_out_of_range(self):
        scores, scaler, model = tiny_setup()
        with pytest.raises(StartOutOfRange):
            forecast.evaluate_ensemble(model, model, scores, scaler,
                                       [200], 10)
        with pytest.raises(StartOutOfRange):
            forecast.evaluate_ensemble(model, model, scores, scaler, [], 10)

    def test_mismatched_lags_rejected(self):
        scores, scaler, model = tiny_setup()
        rng = np.random.default_rng(9)
        other = neural.init_forecaster(3, 8, "sigmoid", 0.0, 3, rng)
        with pytest.raises(InvalidConfig):
            forecast.evaluate_ensemble(model, other, scores, scaler, [5], 10)

    def test_csv_round_trip(self, tmp_path):
        scores, scaler, model = tiny_setup()
        report = forecast.evaluate_ensemble(model, model, scores, scaler,
                                            range(10, 20), 8)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("horizon,mean_classic,std_classic,mean_adv,"
                            "std_adv,error_reduction_pct")
        assert len(lines) == 9
        loaded = forecast.EnsembleReport.from_csv(path)
        assert np.allclose(loaded.mean_classic, report.mean_classic,
                           rtol=1e-5)
        assert loaded.aggregate_reduction_pct == pytest.approx(
            report.aggregate_reduction_pct, abs=1e-4)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows", [["1,2,3,4,5,6", "2,3,4"], []])
    def test_ragged_or_empty_csv_is_shape_mismatch(self, tmp_path, rows):
        path = tmp_path / "report.csv"
        path.write_text("\n".join(["horizon,a,b,c,d,e", *rows]) + "\n")
        with pytest.raises(ShapeMismatch, match="report.csv"):
            forecast.EnsembleReport.from_csv(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("row, message", [
        ("1,x,3,4,5,6", "not a number"),
        ("1,2,,4,5,6", "not a number"),
        ("nan,2,3,4,5,6", "horizon"),
    ])
    def test_non_numeric_cell_is_shape_mismatch(self, tmp_path, row,
                                                message):
        path = tmp_path / "report.csv"
        path.write_text(f"horizon,a,b,c,d,e\n1,2,3,4,5,6\n{row}\n")
        with pytest.raises(ShapeMismatch, match="report.csv") as info:
            forecast.EnsembleReport.from_csv(path)
        assert message in str(info.value)

    @pytest.mark.filterwarnings("error")
    def test_literal_nan_cell_loads(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("horizon,a,b,c,d,e\n1,2,3,4,5,6\n2,nan,nan,nan,"
                        "nan,nan\n")
        loaded = forecast.EnsembleReport.from_csv(path)
        assert list(loaded.horizons) == [1, 2]
        assert loaded.mean_classic[0] == 2.0
        assert np.isnan(loaded.mean_classic[1])
        assert np.isnan(loaded.reduction_pct[1])


def reference_errors(model, scores, scaler, starts, horizon):
    """Per-start rollouts from 2-D ``forecaster_step`` calls: (S, H)."""
    scaled = scaler.scale(scores)
    lag = model.time_lag
    errors = []
    for start in starts:
        window = scaled[start:start + lag].copy()
        row = []
        for h in range(horizon):
            pred = neural.forecaster_step(model, window)
            window = np.vstack([window[1:], pred])
            truth = scores[start + lag + h]
            row.append(np.linalg.norm(scaler.invert(pred) - truth))
        errors.append(row)
    return np.array(errors)


class TestEngine:
    def test_batched_ensemble_matches_per_start_loop(self):
        scores, scaler, model_a = tiny_setup(seed=1)
        _, _, model_b = tiny_setup(seed=2)
        starts, horizon = range(3, 60), 20
        report = forecast.evaluate_ensemble(model_a, model_b, scores, scaler,
                                            starts, horizon)
        for model, mean, std in ((model_a, report.mean_classic,
                                  report.std_classic),
                                 (model_b, report.mean_adv, report.std_adv)):
            ref = reference_errors(model, scores, scaler, starts, horizon)
            np.testing.assert_allclose(mean, ref.mean(axis=0), rtol=1e-12)
            np.testing.assert_allclose(std, ref.std(axis=0), rtol=1e-12)
        assert np.array_equal(report.n_pairs, np.full(horizon, len(starts)))
        assert report.diverged_classic == report.diverged_adv == 0

    def test_diverging_row_leaves_other_rows_bit_identical(self):
        scores, scaler, model = tiny_setup()
        scaled = scaler.scale(scores)
        windows = np.stack([scaled[s:s + 2] for s in range(10, 16)])
        spoiled = windows.copy()
        spoiled[2, 0, 1] = np.nan
        clean_preds, clean_at = forecast._roll(model, windows, 9)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            preds, diverged_at = forecast._roll(model, spoiled, 9)
        others = [0, 1, 3, 4, 5]
        assert preds[others].tobytes() == clean_preds[others].tobytes()
        assert np.array_equal(diverged_at, [9, 9, 0, 9, 9, 9])
        assert np.array_equal(clean_at, np.full(6, 9))
        assert np.all(np.isnan(preds[2]))

    def test_row_diverging_mid_rollout(self, monkeypatch):
        calls = []

        def stub(model_, windows):
            pred = windows[..., -1, :] + 0.01
            if len(calls) >= 3:
                pred[1] = np.inf
            calls.append(len(windows))
            return pred

        scores, scaler, model = tiny_setup()
        monkeypatch.setattr(forecast, "forecaster_step", stub)
        windows = np.stack([scaler.scale(scores)[s:s + 2] for s in (0, 5, 9)])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            preds, diverged_at = forecast._roll(model, windows, 6)
        assert calls == [3] * 6
        assert np.array_equal(diverged_at, [6, 3, 6])
        assert np.all(np.isfinite(preds[1, :3]))
        assert np.all(np.isnan(preds[1, 3:]))
        assert np.all(np.isfinite(preds[[0, 2]]))
        # the diverged row is fed zeros: its window holds no inf
        assert np.all(np.isfinite(windows))

    def test_window_width_other_than_model_input_rejected(self, monkeypatch):
        # a model trained on 3 PCs against a basis of 2: checked once per
        # call, before any step runs, in every caller of the engine
        calls = []
        monkeypatch.setattr(forecast, "forecaster_step",
                            lambda *args: calls.append(args))
        scores, _, model = tiny_setup(tau=3)
        narrow = scores[:, :2]
        scaler = snapshots.fit_scaler(narrow)
        windows = scaler.scale(narrow)[None, :2]
        with pytest.raises(ShapeMismatch, match="2 PCs"):
            forecast._roll(model, windows, 5)
        with pytest.raises(ShapeMismatch, match="2 PCs"):
            forecast.rollout(model, scaler, windows[0], 5)
        with pytest.raises(ShapeMismatch, match="2 PCs"):
            forecast.evaluate_ensemble(model, model, narrow, scaler,
                                       range(3, 8), 5)
        assert calls == []


class TestPairedAccounting:
    """Both models are averaged over the starts where both are finite."""

    def run(self, monkeypatch, plan, starts=range(10, 16), horizon=8):
        scores, scaler, classic = tiny_setup(seed=1)
        _, _, adv = tiny_setup(seed=2)
        drift = {id(classic): 0.0, id(adv): 0.02}
        rows = {id(classic): plan["classic"], id(adv): plan["adv"]}
        calls = collections.Counter()

        def stub(model_, windows):
            step = calls[id(model_)]
            calls[id(model_)] += 1
            pred = windows[..., -1, :] + drift[id(model_)]
            for row, at in rows[id(model_)].items():
                if step >= at:
                    pred[row] = np.nan
            return pred

        monkeypatch.setattr(forecast, "forecaster_step", stub)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            report = forecast.evaluate_ensemble(classic, adv, scores, scaler,
                                                starts, horizon)
        # the stub's rollouts in closed form: last seed row plus drift
        scaled = scaler.scale(scores)
        steps = np.arange(1, horizon + 1)[:, None]
        errors, alive = [], []
        for name, model in (("classic", classic), ("adv", adv)):
            err = np.array([np.linalg.norm(
                scaler.invert(scaled[s + 1] + drift[id(model)] * steps)
                - scores[s + 2:s + 2 + horizon], axis=1) for s in starts])
            at = [plan[name].get(i, horizon) for i in range(len(starts))]
            errors.append(err)
            alive.append(np.arange(horizon) < np.array(at)[:, None])
        return report, np.array(errors), alive[0] & alive[1]

    def test_means_over_pairs_where_both_survive(self, monkeypatch):
        plan = {"classic": {1: 2, 3: 0}, "adv": {1: 5, 4: 4}}
        report, errors, paired = self.run(monkeypatch, plan)
        assert report.diverged_classic == 2 and report.diverged_adv == 2
        assert np.array_equal(report.n_pairs, [5, 5, 4, 4, 3, 3, 3, 3])
        assert np.array_equal(report.n_pairs, paired.sum(axis=0))
        for mean, std, err in ((report.mean_classic, report.std_classic,
                                errors[0]),
                               (report.mean_adv, report.std_adv, errors[1])):
            for h in range(8):
                kept = err[paired[:, h], h]
                assert mean[h] == pytest.approx(kept.mean(), rel=1e-12)
                assert std[h] == pytest.approx(kept.std(), rel=1e-12)
        # adv's surviving starts alone would give another mean from h=4 on
        assert report.mean_adv[4] != pytest.approx(
            errors[1][[0, 1, 2, 3, 5], 4].mean(), rel=1e-9)

    def test_no_pairs_left_gives_nan_not_zero(self, monkeypatch):
        plan = {"classic": {i: 3 for i in range(6)}, "adv": {}}
        report, errors, paired = self.run(monkeypatch, plan)
        assert report.diverged_classic == 6 and report.diverged_adv == 0
        assert np.array_equal(report.n_pairs, [6, 6, 6, 0, 0, 0, 0, 0])
        assert np.all(np.isnan(report.mean_classic[3:]))
        assert np.all(np.isnan(report.mean_adv[3:]))
        assert np.all(np.isnan(report.reduction_pct[3:]))
        assert np.all(np.isfinite(report.reduction_pct[:3]))
        means = errors[:, :, :3].mean(axis=1).mean(axis=1)
        assert report.aggregate_reduction_pct == pytest.approx(
            100.0 * (means[0] - means[1]) / means[0], rel=1e-12)


class TestTimingBenchmark:
    def test_smoke_and_single_ratio(self):
        scores, scaler, model = tiny_setup()
        config = snapshots.GeneratorConfig(grid_nx=16, grid_ny=16, n_steps=40,
                                           source_period=4.0)
        timing = forecast.timing_benchmark(model, config, horizon=20,
                                           ensemble_width=16)
        assert timing.sim_seconds_per_step > 0
        assert timing.forecast_seconds_per_step > 0
        assert timing.ratio_ensemble > timing.ratio_single
