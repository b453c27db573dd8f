import collections
import re
import types
import warnings

import numpy as np
import pytest

from romcast import forecast, neural, pca, snapshots, training
from romcast.errors import (
    EmptyInput,
    InvalidConfig,
    NonFiniteInput,
    ShapeMismatch,
    StartOutOfRange,
)


def tiny_setup(seed=0, n=120, tau=3):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    scores = 0.5 + 0.4 * np.sin(2 * np.pi * t[:, None] / (9.0 + 3 * np.arange(tau)))
    scores = scores + 0.01 * rng.standard_normal(scores.shape)
    scaler = snapshots.fit_scaler(scores)
    model = neural.init_forecaster(tau, 8, "sigmoid", 0.0, 2, rng)
    return scores, scaler, model


def roll(model, windows, horizon):
    """``forecast._roll`` of one model, as a stack of one: its (B, H, tau)
    predictions and (B,) divergence steps."""
    preds, diverged_at = forecast._roll(neural.stack([model], len(windows)),
                                        windows, horizon)
    return preds[0], diverged_at[0]


def per_model(stub):
    """A stand-in for ``stack_step`` in the engine, which steps a stack of
    models at once in its rollout's buffer: ``stub(model, windows)`` for
    each model of the stack, on its (B, N, tau) windows, written into the
    buffer's next row."""
    def step(stack, rows, cols, step):
        lag = stack.models[0].time_lag
        for m, model in enumerate(stack.models):
            windows = cols[step:step + lag, m].transpose(2, 0, 1)
            cols[lag + step, m] = stub(model, windows).T
    return step


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

        monkeypatch.setattr(forecast, "stack_step", per_model(last_row))
        window = scaler.scale(scores)[:2]
        (preds,), _ = roll(model, window[None].copy(), 7)
        assert np.allclose(preds, np.tile(window[-1], (7, 1)))

    def test_first_step_equals_direct_prediction(self):
        scores, scaler, model = tiny_setup()
        window = scaler.scale(scores)[10:12]
        # the engine rolls the float32 model, and widens what it predicts
        direct, _ = neural.forecaster_forward(model.astype(np.float32),
                                              window[None])
        (preds,), _ = roll(model, window[None].copy(), 5)
        assert preds[0].tobytes() == direct[0].astype(np.float64).tobytes()
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
        seed = window.copy()
        before = {k: v.copy() for k, v in model.params().items()}
        a = forecast.rollout(model, scaler, window, 10)
        b = forecast.rollout(model, scaler, window, 10)
        assert a.predictions.tobytes() == b.predictions.tobytes()
        assert window.tobytes() == seed.tobytes()
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
        with pytest.raises(StartOutOfRange, match="exceeds"):
            forecast.evaluate_ensemble(model, model, scores, scaler,
                                       [200], 10)
        with pytest.raises(StartOutOfRange):
            forecast.evaluate_ensemble(model, model, scores, scaler, [], 10)
        with pytest.raises(StartOutOfRange, match="start -3 is negative"):
            forecast.evaluate_ensemble(model, model, scores, scaler,
                                       [-3, 2], 10)

    def test_repeated_start_refused_before_any_rollout(self, monkeypatch):
        calls = []
        monkeypatch.setattr(forecast, "stack_step",
                            lambda *args: calls.append(args))
        scores, scaler, model = tiny_setup()
        with pytest.raises(InvalidConfig,
                           match="start 3 is given more than once"):
            forecast.evaluate_ensemble(model, model, scores, scaler,
                                       [5, 3, np.int64(3)], 2)
        assert calls == []

    @pytest.mark.parametrize("start", [3.9, 3.0, True, np.True_, "3",
                                       np.float64(3.0)])
    def test_start_that_is_not_an_integer_refused(self, monkeypatch, start):
        calls = []
        monkeypatch.setattr(forecast, "stack_step",
                            lambda *args: calls.append(args))
        scores, scaler, model = tiny_setup()
        with pytest.raises(InvalidConfig, match=re.escape(
                f"start {start!r} is not an integer")):
            forecast.evaluate_ensemble(model, model, scores, scaler,
                                       [5, start], 2)
        assert calls == []

    def test_numpy_integer_starts_are_the_int_starts(self):
        scores, scaler, model = tiny_setup()
        want = forecast.evaluate_ensemble(model, model, scores, scaler,
                                          [3, 7], 4)
        got = forecast.evaluate_ensemble(model, model, scores, scaler,
                                         np.array([3, 7]), 4)
        assert got.mean_classic.tobytes() == want.mean_classic.tobytes()
        assert np.array_equal(got.n_pairs, [2] * 4)

    @pytest.mark.parametrize("shape", [(120,), (2, 120, 3), ()])
    def test_scores_not_2d_are_shape_mismatch(self, shape):
        _, scaler, model = tiny_setup()
        with pytest.raises(ShapeMismatch, match="not an n x tau matrix"):
            forecast.evaluate_ensemble(model, model, np.zeros(shape), scaler,
                                       [3], 2)

    def test_mismatched_lags_rejected(self):
        scores, scaler, model = tiny_setup()
        rng = np.random.default_rng(9)
        other = neural.init_forecaster(3, 8, "sigmoid", 0.0, 3, rng)
        with pytest.raises(InvalidConfig):
            forecast.evaluate_ensemble(model, other, scores, scaler, [5], 10)

    @pytest.mark.parametrize("wide_arm", ["classic", "adv"])
    def test_arm_of_other_width_named_before_any_rollout(self, monkeypatch,
                                                         wide_arm):
        calls = []
        monkeypatch.setattr(forecast, "stack_step",
                            lambda *args: calls.append(args))
        scores, scaler, model = tiny_setup(tau=3)
        wide = neural.init_forecaster(4, 8, "sigmoid", 0.0, 2,
                                      np.random.default_rng(3))
        arms = {"classic": model, "adv": model, wide_arm: wide}
        with pytest.raises(ShapeMismatch, match=f"scores hold 3 PCs, the "
                                                f"{wide_arm} model takes 4"):
            forecast.evaluate_ensemble(arms["classic"], arms["adv"], scores,
                                       scaler, range(3, 8), 5)
        assert calls == []

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


def reference_predictions(model, scaled, starts, horizon):
    """Per-start float32 rollouts from 2-D ``forecaster_step`` calls on
    the float32 model and windows that the engine rolls: (S, H, tau)."""
    lag = model.time_lag
    model = model.astype(np.float32)
    rollouts = []
    for start in starts:
        window = scaled[start:start + lag].astype(np.float32)
        row = []
        for _ in range(horizon):
            pred = neural.forecaster_step(model, window)
            window = np.vstack([window[1:], pred])
            row.append(pred)
        rollouts.append(row)
    return np.array(rollouts)


def errors_of(preds, scores, scaler, starts, lag):
    """(S, H) unscaled L2 errors, one ``np.linalg.norm`` each, of the
    (S, H, tau) scaled predictions rolled from the windows at ``starts``."""
    return np.array([
        [np.linalg.norm(scaler.invert(pred) - scores[start + lag + h])
         for h, pred in enumerate(rolled.astype(np.float64))]
        for start, rolled in zip(starts, preds)])


class TestEngine:
    def test_batched_ensemble_matches_per_start_loop(self):
        scores, scaler, model_a = tiny_setup(seed=1)
        _, _, model_b = tiny_setup(seed=2)
        starts, horizon = range(3, 60), 20
        report = forecast.evaluate_ensemble(model_a, model_b, scores, scaler,
                                            starts, horizon)
        scaled = scaler.scale(scores)
        windows = np.stack([scaled[s:s + 2] for s in starts])
        for model, mean, std in ((model_a, report.mean_classic,
                                  report.std_classic),
                                 (model_b, report.mean_adv, report.std_adv)):
            # the report's means and stds are those of the batch's errors
            preds, _ = roll(model, windows, horizon)
            errors = errors_of(preds, scores, scaler, starts, 2)
            np.testing.assert_allclose(mean, errors.mean(axis=0), rtol=1e-12)
            np.testing.assert_allclose(std, errors.std(axis=0), rtol=1e-12)
            # and the batch rolls each start as a loop over it does, but
            # that a batched float32 GEMM and the per-row ones may round a
            # prediction an ulp apart (seen: 1 ulp, in under 1% of them),
            # which moves the means by 1.9e-9 and the stds by 1.1e-8
            ref = reference_predictions(model, scaled, starts, horizon)
            np.testing.assert_array_max_ulp(preds.astype(np.float32), ref,
                                            maxulp=2)
            ref_errors = errors_of(ref, scores, scaler, starts, 2)
            np.testing.assert_allclose(mean, ref_errors.mean(axis=0),
                                       rtol=5e-8)
            np.testing.assert_allclose(std, ref_errors.std(axis=0),
                                       rtol=5e-8)
        assert np.array_equal(report.n_pairs, np.full(horizon, len(starts)))
        assert report.diverged_classic == report.diverged_adv == 0

    def test_diverging_row_leaves_other_rows_bit_identical(self):
        scores, scaler, model = tiny_setup()
        scaled = scaler.scale(scores)
        windows = np.stack([scaled[s:s + 2] for s in range(10, 16)])
        spoiled = windows.copy()
        spoiled[2, 0, 1] = np.nan
        clean_preds, clean_at = roll(model, windows, 9)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            preds, diverged_at = roll(model, spoiled, 9)
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
        monkeypatch.setattr(forecast, "stack_step", per_model(stub))
        windows = np.stack([scaler.scale(scores)[s:s + 2] for s in (0, 5, 9)])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            preds, diverged_at = roll(model, windows, 6)
        assert calls == [3] * 6
        assert np.array_equal(diverged_at, [6, 3, 6])
        assert np.all(np.isfinite(preds[1, :3]))
        assert np.all(np.isnan(preds[1, 3:]))
        assert np.all(np.isfinite(preds[[0, 2]]))
        # the engine writes predictions to a buffer of its own: the
        # caller's windows hold no inf
        assert np.all(np.isfinite(windows))

    def test_window_width_other_than_model_input_rejected(self, monkeypatch):
        # a model trained on 3 PCs against a basis of 2: checked once per
        # call, before any step runs, in every caller of the engine
        calls = []
        monkeypatch.setattr(forecast, "stack_step",
                            lambda *args: calls.append(args))
        scores, _, model = tiny_setup(tau=3)
        narrow = scores[:, :2]
        scaler = snapshots.fit_scaler(narrow)
        windows = scaler.scale(narrow)[None, :2]
        with pytest.raises(ShapeMismatch, match="2 PCs"):
            roll(model, windows, 5)
        with pytest.raises(ShapeMismatch, match="2 PCs"):
            forecast.rollout(model, scaler, windows[0], 5)
        with pytest.raises(ShapeMismatch, match="2 PCs"):
            forecast.evaluate_ensemble(model, model, narrow, scaler,
                                       range(3, 8), 5)
        assert calls == []


def stepwise(model, windows, horizon):
    """Rollouts by definition: ``forecaster_forward`` on windows shifted
    by hand, one step at a time; (B, H, tau)."""
    preds = np.empty((len(windows), horizon, windows.shape[2]))
    for h in range(horizon):
        pred, _ = neural.forecaster_forward(model, windows)
        preds[:, h] = pred
        windows = np.concatenate([windows[:, 1:], pred[:, None]], axis=1)
    return preds


def saturated_relu_model():
    """A relu forecaster on tau 2 PCs (p, q) whose rollouts are known.

    Every gate but g saturates exactly (i = o = 1, f = 0) and U is zero,
    so a step reads only the last input's q: unit 0 has h = tanh(tanh(q))
    and unit 1 idles at 0. The head predicts q' = relu(h + 0.25), which
    rises towards a fixed point above 0.84, and p' = relu(3.2e38 h +
    1.52e38), which overflows float32 (3.4028e38) to inf once h > 0.5884,
    that is q > 0.8204.
    """
    hidden, tau = 2, 2
    W = np.zeros((4 * hidden, tau))
    W[3 * hidden, 1] = 1.0  # g of unit 0 reads q
    b = np.repeat([800.0, -800.0, 800.0, 0.0], hidden)
    lstm = neural.LstmParams(W, np.zeros((4 * hidden, hidden)), b)
    head = neural.DenseParams(np.array([[3.2e38, 0.0], [1.0, 0.0]]),
                              np.array([1.52e38, 0.25]))
    return neural.LstmForecaster(lstm, head, "relu", 0.0, 2)


class TestRollMatchesStepwise:
    @pytest.mark.parametrize("batch", [1, 5, 141])
    @pytest.mark.parametrize("activation", ["sigmoid", "relu", "linear"])
    @pytest.mark.parametrize("lag", [1, 2, 3])
    def test_roll_equals_forward_on_shifted_windows(self, lag, activation,
                                                     batch):
        rng = np.random.default_rng(10 * lag + batch)
        # past 2N steps, so that the ring of N input projections wraps
        horizon = 2 * lag + 3
        for tau, hidden in ((3, 8), (16, 64)):
            models = [neural.init_forecaster(tau, hidden, activation, 0.0,
                                             lag, rng) for _ in range(2)]
            windows = rng.uniform(0.1, 0.9, (batch, lag, tau))
            seed = windows.copy()
            # the engine rolls the float32 model: so does the definition
            wants = [stepwise(model.astype(np.float32), windows, horizon)
                     for model in models]
            for steps in range(horizon + 1):
                preds, diverged_at = roll(models[0], windows, steps)
                assert preds.shape == (batch, steps, tau)
                assert preds.tobytes() == wants[0][:, :steps].tobytes(), steps
                assert np.array_equal(diverged_at, np.full(batch, steps))
            # two distinct models in one stack: each is its own network
            preds, diverged_at = forecast._roll(neural.stack(models, batch),
                                                windows, horizon)
            for got, want in zip(preds, wants):
                assert got.tobytes() == want.tobytes()
            assert np.array_equal(diverged_at, np.full((2, batch), horizon))
            assert windows.tobytes() == seed.tobytes()

    def test_relu_row_overflowing_mid_horizon(self):
        model = saturated_relu_model()
        narrow = model.astype(np.float32)
        # last q of each window: the middle row crosses 0.8204 at step 2,
        # the others only at steps 5 and 6, past the horizon
        windows = np.zeros((3, 2, 2))
        windows[:, -1, 1] = [0.0, 0.7, -10.0]
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            preds, diverged_at = roll(model, windows, 5)
        assert np.array_equal(diverged_at, [5, 2, 5])
        assert np.all(np.isnan(preds[1, 2:]))
        with np.errstate(over="ignore"):
            want = stepwise(narrow, windows[[1]], 3)[0]
        assert preds[1, :2].tobytes() == want[:2].tobytes()
        assert want[2, 0] == np.inf
        # the other rows: as if rolled alone, and by definition
        others = [0, 2]
        alone, alone_at = roll(model, windows[others], 5)
        assert preds[others].tobytes() == alone.tobytes()
        assert np.array_equal(alone_at, [5, 5])
        assert preds[others].tobytes() == stepwise(narrow, windows[others],
                                                   5).tobytes()
        # finite to the end, the first row within 2% of overflowing
        assert np.all(np.isfinite(preds[others]))
        assert preds[0, -1, 0] > 3.35e38


class TestStackedPass:
    """Models of one layout roll as one stack, through one kernel pass per
    step, and each gives the bits it gives rolled alone."""

    @pytest.mark.parametrize("batch", [1, 2, 4, 141])
    @pytest.mark.parametrize("activation", ["sigmoid", "relu", "linear"])
    @pytest.mark.parametrize("lag", [1, 2, 3])
    def test_each_arm_as_rolled_alone(self, lag, activation, batch):
        rng = np.random.default_rng(100 * lag + batch)
        arms = [neural.init_forecaster(16, 64, activation, 0.0, lag, rng)
                for _ in range(2)]
        windows = rng.uniform(0.1, 0.9, (batch, lag, 16))
        seed = windows.copy()
        preds, diverged_at = forecast._roll(neural.stack(arms, batch),
                                            windows, 12)
        assert preds.shape == (2, batch, 12, 16)
        for arm, got, got_at in zip(arms, preds, diverged_at):
            alone, alone_at = roll(arm, windows, 12)
            assert got.tobytes() == alone.tobytes()
            assert np.array_equal(got_at, alone_at)
        assert windows.tobytes() == seed.tobytes()

    @pytest.mark.parametrize("batch", [1, 2, 4, 141])
    def test_desk_arms_as_rolled_alone(self, desk_models, batch):
        scaled, models = desk_models
        arms = [models["classic"], models["adv"]]
        windows = scaled[np.arange(400, 400 + batch)[:, None] + np.arange(2)]
        preds, diverged_at = forecast._roll(neural.stack(arms, batch),
                                            windows, 50)
        for arm, got, got_at in zip(arms, preds, diverged_at):
            alone, alone_at = roll(arm, windows, 50)
            assert got.tobytes() == alone.tobytes()
            assert np.array_equal(got_at, alone_at)

    @pytest.mark.parametrize("batch", [1, 2, 4, 141])
    @pytest.mark.parametrize("activation", ["sigmoid", "relu", "linear"])
    def test_three_models_each_as_rolled_alone(self, activation, batch):
        rng = np.random.default_rng(batch)
        models = [neural.init_forecaster(16, 64, activation, 0.0, 2, rng)
                  for _ in range(3)]
        windows = rng.uniform(0.1, 0.9, (batch, 2, 16))
        preds, diverged_at = forecast._roll(neural.stack(models, batch),
                                            windows, 12)
        assert preds.shape == (3, batch, 12, 16)
        for model, got, got_at in zip(models, preds, diverged_at):
            alone, alone_at = roll(model, windows, 12)
            assert got.tobytes() == alone.tobytes()
            assert np.array_equal(got_at, alone_at)

    @pytest.mark.parametrize("batch", [1, 4])
    def test_a_stack_rolled_again_carries_nothing_over(self, desk_models,
                                                       batch):
        # the stack's step arrays are reused by every step of every roll:
        # a roll on other windows in between, and a longer one, leave the
        # next roll's bytes as the first's
        scaled, models = desk_models
        stack = neural.stack([models["classic"], models["adv"]], batch)
        windows = scaled[np.arange(400, 400 + batch)[:, None] + np.arange(2)]
        others = scaled[np.arange(100, 100 + batch)[:, None] + np.arange(2)]
        first = forecast._roll(stack, windows, 50)
        forecast._roll(stack, others, 80)
        again = forecast._roll(stack, windows, 50)
        for got, want in zip(again, first):
            assert got.tobytes() == want.tobytes()
        fresh = forecast._roll(neural.stack([models["classic"],
                                             models["adv"]], batch),
                               windows, 50)
        assert fresh[0].tobytes() == first[0].tobytes()

    def test_a_stacked_step_writes_its_row_and_ring_slot_alone(self):
        # the head writes straight into the buffer's next row, and that
        # row's projection takes the ring slot of the row the window left
        _, _, model = tiny_setup()
        models = [model, tiny_setup(seed=3)[2]]
        stack = neural.stack(models, 3)
        rng = np.random.default_rng(5)
        windows = rng.uniform(0.1, 0.9, (3, 2, 3)).astype(np.float32)
        rows, cols = neural.stack_rows(stack, windows, 4)
        assert np.shares_memory(rows, cols)
        for m in range(2):
            assert cols[:2, m].transpose(2, 0, 1).tobytes() == \
                windows.tobytes()
        neural.stack_step(stack, rows, cols, 0)
        kept_rows, kept_ring = rows.copy(), stack.steps.ring.copy()
        neural.stack_step(stack, rows, cols, 1)
        for r in (0, 1, 2, 4):
            assert rows[r].tobytes() == kept_rows[r].tobytes(), r
        assert stack.steps.ring[0].tobytes() == kept_ring[0].tobytes()
        # row 3 holds each network's step on the window of rows 1 and 2
        window = cols[1:3].transpose(1, 3, 0, 2)  # (M, B, N, tau)
        for m, alone in enumerate(models):
            want = neural.forecaster_step(alone.astype(np.float32),
                                          window[m])
            assert cols[3, m].T.tobytes() == want.tobytes()
        # and ring slot 1 the projection of row 3, as a window row's is
        for m in range(2):
            fresh = neural.stack(models, 3)
            neural.stack_rows(fresh, cols[2:4, m].transpose(2, 0, 1), 0)
            columns = slice(3 * m, 3 * (m + 1))
            assert stack.steps.ring[1][:, columns].tobytes() == \
                fresh.steps.ring[1][:, columns].tobytes()

    def test_row_overflowing_in_one_arm_leaves_the_rest(self):
        model = saturated_relu_model()
        # its layout, with a head that cannot overflow: p' = relu(h / 2)
        head = neural.DenseParams(np.array([[0.5, 0.0], [1.0, 0.0]]),
                                  np.array([0.0, 0.25]))
        other = neural.LstmForecaster(model.lstm, head, "relu", 0.0, 2)
        windows = np.zeros((3, 2, 2))
        windows[:, -1, 1] = [0.0, 0.7, -10.0]
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            preds, diverged_at = forecast._roll(
                neural.stack([model, other], 3), windows, 5)
        # the middle row of the first arm overflows at step 2, as alone
        assert np.array_equal(diverged_at, [[5, 2, 5], [5, 5, 5]])
        assert np.all(np.isnan(preds[0, 1, 2:]))
        assert np.all(np.isfinite(preds[0, 1, :2]))
        assert preds[0].tobytes() == roll(model, windows, 5)[0].tobytes()
        # its other rows: as rolled without the overflowing one
        others = [0, 2]
        without, _ = roll(model, windows[others], 5)
        assert preds[0, others].tobytes() == without.tobytes()
        # every row of the other arm: as rolled alone, and finite
        alone, _ = roll(other, windows, 5)
        assert preds[1].tobytes() == alone.tobytes()
        assert np.all(np.isfinite(preds[1]))

    def test_stack_keeps_its_models_and_narrows_their_blocks(self):
        _, _, model = tiny_setup()
        narrow = model.astype(np.float32)
        stack = neural.stack([narrow, model], 4)
        assert stack.models[0] is narrow and stack.models[1] is model
        assert stack.batch == 4
        W, U, b, weight, bias = narrow.params().values()
        # the gates' i, f and o rows and the sigmoid head halved, which is
        # exact: a step's sigmoids then skip z / 2
        ifo = slice(0, 3 * model.lstm.hidden_dim)
        W, U, b = (block.copy() for block in (W, U, b))
        for block in (W, U, b):
            block[ifo] = block[ifo] * np.float32(0.5)
        weight, bias = weight * np.float32(0.5), bias * np.float32(0.5)
        assert stack.activation is neural._sigmoid_of_half
        # each model's float32 weight blocks along the leading model axis
        for got, want in ((stack.lstm.W, W), (stack.lstm.U, U),
                          (stack.head.weight, weight)):
            assert got.dtype == np.float32
            assert got.shape == (2, *want.shape)
            for arm in got:
                assert arm.tobytes() == want.tobytes()
        # each model's float32 biases, side by side in the batch columns:
        # model m's broadcast to its columns 4m ... 4m + 3
        for got, want in ((stack.lstm.b, b), (stack.head.bias, bias)):
            assert got.dtype == np.float32
            assert got.shape == (len(want), 2 * 4)
            for arm in range(2):
                assert got[:, 4 * arm:4 * (arm + 1)].tobytes() == \
                    np.repeat(want[:, None], 4, axis=1).tobytes()
        # and the halving is exact: twice each halved row is the model's
        assert (stack.lstm.W[0, ifo] * 2).tobytes() == \
            narrow.lstm.W[ifo].tobytes()
        assert (stack.head.bias[:, 0] * 2).tobytes() == \
            narrow.head.bias.tobytes()

    @pytest.mark.parametrize("activation", ["relu", "linear"])
    def test_only_a_sigmoid_head_is_halved(self, activation):
        model = neural.init_forecaster(3, 8, activation, 0.0, 2,
                                       np.random.default_rng(6))
        narrow = model.astype(np.float32)
        stack = neural.stack([model], 2)
        assert stack.activation is neural.ACTIVATIONS[activation]
        assert stack.head.weight[0].tobytes() == \
            narrow.head.weight.tobytes()
        assert stack.head.bias.tobytes() == \
            np.repeat(narrow.head.bias[:, None], 2, axis=1).tobytes()
        assert (stack.lstm.U[0, :24] * 2).tobytes() == \
            narrow.lstm.U[:24].tobytes()
        assert stack.lstm.U[0, 24:].tobytes() == narrow.lstm.U[24:].tobytes()

    def test_no_forecasters_is_empty_input(self):
        with pytest.raises(EmptyInput, match="no forecasters"):
            neural.stack([], 4)

    @pytest.mark.parametrize("other", [{"hidden": 5}, {"activation": "relu"},
                                       {"lag": 3}, {"tau": 4}])
    def test_other_layouts_do_not_stack(self, other):
        _, _, model = tiny_setup()
        settings = {"tau": 3, "hidden": 8, "activation": "sigmoid", "lag": 2,
                    **other}
        odd = neural.init_forecaster(settings["tau"], settings["hidden"],
                                     settings["activation"], 0.0,
                                     settings["lag"], np.random.default_rng(4))
        with pytest.raises(ShapeMismatch, match="do not stack"):
            neural.stack([model, odd], 4)

    def test_batch_other_than_the_stacks_is_shape_mismatch(self):
        scores, scaler, model = tiny_setup()
        windows = np.stack([scaler.scale(scores)[s:s + 2] for s in (0, 5)])
        with pytest.raises(ShapeMismatch, match="2 windows for a stack "
                                                "laid out for 3"):
            forecast._roll(neural.stack([model], 3), windows, 4)


class TestFloat32Narrowing:
    """The engine narrows the model and the windows to float32 once: a
    value that narrowing takes past float32's range is bad input, named
    before any step runs, and not a divergence."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [1e39, -4e38, 1e300])
    def test_window_past_float32_range_is_non_finite_input(self, monkeypatch,
                                                           value):
        calls = []
        monkeypatch.setattr(forecast, "stack_step",
                            lambda *args: calls.append(args))
        scores, scaler, model = tiny_setup()
        windows = np.stack([scaler.scale(scores)[s:s + 2] for s in (0, 5, 9)])
        windows[2, 1, 0] = value
        with pytest.raises(NonFiniteInput,
                           match=r"window 2, row 1, PC 0 holds .*: past "
                                 r"float32's range"):
            roll(model, windows, 4)
        with pytest.raises(NonFiniteInput,
                           match="seed window row 1, PC 0 holds"):
            forecast.rollout(model, snapshots.MinMaxScaler(
                np.zeros(3), np.ones(3)), windows[2], 4)
        # through evaluate_ensemble, from a score past the range: named by
        # the start whose window holds it, not by its index in the batch
        scores[7, 0] = value * (scaler.maxs[0] - scaler.mins[0])
        with pytest.raises(NonFiniteInput,
                           match=r"start 6 \+ row 1, PC 0 holds"):
            forecast.evaluate_ensemble(model, model, scores, scaler,
                                       [3, 4, 6], 4)
        assert calls == []

    def test_largest_float32_window_rolls(self):
        # float32's largest value narrows to itself, so it is no error:
        # the sigmoid gates saturate on it and the rollout stays finite
        scores, scaler, model = tiny_setup()
        windows = np.stack([scaler.scale(scores)[s:s + 2] for s in (0, 5)])
        windows[1, 1, 0] = float(np.finfo(np.float32).max)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            preds, diverged_at = roll(model, windows, 4)
        assert np.array_equal(diverged_at, [4, 4])
        assert np.isfinite(preds).all()

    @pytest.mark.filterwarnings("error")
    def test_weight_past_float32_range_is_non_finite_input(self,
                                                           monkeypatch):
        calls = []
        monkeypatch.setattr(forecast, "stack_step",
                            lambda *args: calls.append(args))
        scores, scaler, model = tiny_setup()
        model.head.weight[1, 2] = 7e38
        with pytest.raises(NonFiniteInput, match="'head.weight' holds a "
                                                 "weight past float32's range"):
            forecast.evaluate_ensemble(model, model, scores, scaler,
                                       [3, 4], 5)
        assert calls == []

    def test_rolls_the_narrowed_model_and_hands_out_float64(self):
        scores, scaler, model = tiny_setup()
        windows = np.stack([scaler.scale(scores)[s:s + 2] for s in (0, 5)])
        preds, _ = roll(model, windows, 6)
        narrow, _ = roll(model.astype(np.float32), windows.astype(np.float32),
                         6)
        assert preds.dtype == narrow.dtype == np.float64
        assert preds.tobytes() == narrow.tobytes()
        assert np.array_equal(preds, preds.astype(np.float32))


@pytest.fixture(scope="module")
def desk_models():
    """The desk tracer's scaled scores (32 x 32 grid, 600 steps, tau 16)
    and two desk-sized models trained on them (hidden 64, lag 2): classic
    for 5 epochs and adversarial for 1."""
    data = snapshots.generate(snapshots.GeneratorConfig()).field("tracer")
    scores = pca.project(pca.fit(data, tau=16), data)
    scaled = snapshots.fit_scaler(scores).scale(scores)
    dataset = training.make_windows(scaled, 2, 0.9)
    classic, _ = training.train_classic(
        dataset, training.TrainConfig(epochs=5))
    adv, _, _ = training.train_adversarial(
        dataset, training.TrainConfig(epochs=1, adversarial=True))
    return scaled, {"classic": classic, "adv": adv}


class TestDeskFloat32Rollouts:
    @pytest.mark.parametrize("arm", ["classic", "adv"])
    @pytest.mark.parametrize("batch", [1, 4, 141])
    def test_within_1e_5_of_float64_over_50_steps(self, desk_models, arm,
                                                  batch):
        scaled, models = desk_models
        model = models[arm]
        assert model.flat.dtype == np.float64
        # evaluate's desk starts 400..540, or the first of them
        starts = np.arange(400, 400 + batch)[:, None]
        windows = scaled[starts + np.arange(2)]
        preds, diverged_at = roll(model, windows, 50)
        assert np.array_equal(diverged_at, np.full(batch, 50))
        # the float64 reference: forecaster_forward on windows shifted by
        # hand, in the loaded model's dtype
        want = stepwise(model, windows, 50)
        assert np.abs(preds - want).max() <= 1e-5


class TestPairedAccounting:
    """Both models are averaged over the starts where both are finite."""

    def run(self, monkeypatch, plan, starts=range(10, 16), horizon=8):
        scores, scaler, classic = tiny_setup(seed=1)
        _, _, adv = tiny_setup(seed=2)
        # float32 models, which the engine rolls as they are, so the stub
        # sees these very objects
        classic, adv = classic.astype(np.float32), adv.astype(np.float32)
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

        monkeypatch.setattr(forecast, "stack_step", per_model(stub))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            report = forecast.evaluate_ensemble(classic, adv, scores, scaler,
                                                starts, horizon)
        # the stub's rollouts: the last seed row plus drift, added step by
        # step in the engine's float32
        scaled = scaler.scale(scores).astype(np.float32)
        errors, alive = [], []
        for name, model in (("classic", classic), ("adv", adv)):
            rows = np.empty((len(starts), horizon, scaled.shape[1]))
            for i, s in enumerate(starts):
                row = scaled[s + 1]
                for h in range(horizon):
                    row = row + drift[id(model)]
                    rows[i, h] = row
            err = np.linalg.norm(scaler.invert(rows)
                                 - scores[np.array(starts)[:, None] + 2
                                          + np.arange(horizon)], axis=2)
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


def old_report_arithmetic(model_classic, model_adv, scores, scaler, starts,
                          horizon):
    """Means, stds and reductions as ``evaluate_ensemble`` took them
    before it scaled only the window rows and reduced all horizons at
    once: the whole score matrix scaled, and one scalar reduction per
    horizon."""
    def reduction(classic, adv):
        if not (np.isfinite(classic) and np.isfinite(adv)):
            return np.nan
        return 0.0 if classic == 0.0 else 100.0 * (classic - adv) / classic

    lag = model_classic.time_lag
    starts = np.array(starts)[:, None]
    windows = scaler.scale(scores)[starts + np.arange(lag)]
    preds, diverged_at = zip(*(roll(model, windows.copy(), horizon)
                               for model in (model_classic, model_adv)))
    truth = scores[starts + lag + np.arange(horizon)]
    errors = forecast._norms(scaler.invert(np.stack(preds)) - truth)
    paired = np.all(np.arange(horizon) < np.stack(diverged_at)[..., None],
                    axis=0)
    n_pairs = paired.sum(axis=0)
    with np.errstate(invalid="ignore"):
        means = np.where(paired, errors, 0.0).sum(axis=1) / n_pairs
        stds = np.sqrt(np.where(paired, (errors - means[:, None]) ** 2,
                                0.0).sum(axis=1) / n_pairs)
    return means, stds, np.array([reduction(c, a) for c, a in means.T])


class TestReportArithmetic:
    """``evaluate_ensemble`` gives the old arithmetic's bits."""

    def check(self, classic, adv, scores, scaler, starts, horizon,
              reset=lambda: None):
        """``reset`` runs before each of the two evaluations."""
        reset()
        report = forecast.evaluate_ensemble(classic, adv, scores, scaler,
                                            starts, horizon)
        reset()
        means, stds, reduction = old_report_arithmetic(
            classic, adv, scores, scaler, starts, horizon)
        got = np.stack([report.mean_classic, report.mean_adv])
        assert got.tobytes() == means.tobytes()
        assert np.stack([report.std_classic, report.std_adv]).tobytes() \
            == stds.tobytes()
        assert report.reduction_pct.tobytes() == reduction.tobytes()
        return report

    def test_trained_size_models(self):
        scores, scaler, classic = tiny_setup(seed=1)
        _, _, adv = tiny_setup(seed=2)
        report = self.check(classic, adv, scores, scaler, range(3, 60), 20)
        assert np.all(np.isfinite(report.reduction_pct))

    def test_classic_mean_zero_and_horizon_without_pairs(self, monkeypatch):
        # rows step by 1/64 and the scaler is the identity, so a classic
        # stub that adds 1/64 forecasts every row exactly until step 3;
        # from step 5 on every classic row has diverged
        scores = np.arange(64.0)[:, None] / 64.0 * np.ones(3)
        scaler = snapshots.MinMaxScaler(np.zeros(3), np.ones(3))
        # float32 models, which the engine rolls as they are, so the stub
        # sees these very objects
        classic, adv = (tiny_setup(seed=seed)[2].astype(np.float32)
                        for seed in (1, 2))
        calls = collections.Counter()

        def stub(model_, windows):
            step = calls[id(model_)]
            calls[id(model_)] += 1
            pred = windows[..., -1, :] + 1.0 / 64.0
            if model_ is adv:
                pred += 0.01
            elif step >= 5:
                pred[:] = np.nan
            elif step >= 3:
                pred[::2] += 0.02
            return pred

        monkeypatch.setattr(forecast, "stack_step", per_model(stub))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            report = self.check(classic, adv, scores, scaler, range(5, 11), 8,
                                reset=calls.clear)
        assert np.array_equal(report.mean_classic[:3], np.zeros(3))
        assert np.all(report.mean_adv[:3] > 0.0)
        assert np.array_equal(report.reduction_pct[:3], np.zeros(3))
        assert np.all(np.isfinite(report.reduction_pct[3:5]))
        assert np.array_equal(report.n_pairs, [6, 6, 6, 6, 6, 0, 0, 0])
        assert np.all(np.isnan(report.reduction_pct[5:]))

    @pytest.mark.parametrize("other, stacks", [
        ({}, [2] * 20),
        ({"hidden": 5}, [1] * 40),
        ({"activation": "relu"}, [1] * 40),
    ])
    def test_arms_of_one_or_two_layouts(self, monkeypatch, other, stacks):
        # arms of one layout take the stacked pass, one step for both;
        # of two, each arm rolls alone, and the report is the same either
        # way
        scores, scaler, classic = tiny_setup(seed=1)
        adv = neural.init_forecaster(3, other.get("hidden", 8),
                                     other.get("activation", "sigmoid"), 0.0,
                                     2, np.random.default_rng(2))
        seen = []

        def counted(stack, rows, cols, step):
            seen.append(len(stack.models))
            neural.stack_step(stack, rows, cols, step)

        monkeypatch.setattr(forecast, "stack_step", counted)
        for arms in ((classic, adv), (adv, classic)):
            seen.clear()
            report = forecast.evaluate_ensemble(*arms, scores, scaler,
                                                range(3, 60), 20)
            assert seen == stacks
            self.check(*arms, scores, scaler, range(3, 60), 20)
            assert np.all(np.isfinite(report.reduction_pct))


NOT_INTEGERS = [2.5, 2.0, True, np.True_, np.float64(2.0), "2"]


class TestRolloutSizes:
    """A horizon, an ensemble width and a stack's batch are integers, a
    numpy one included: anything else is InvalidConfig, before any step
    (a horizon of 2.5 used to be a bare TypeError, and True rolled one
    step)."""

    @pytest.fixture
    def no_steps(self, monkeypatch):
        calls = []
        monkeypatch.setattr(forecast, "stack_step",
                            lambda *args: calls.append(args))
        monkeypatch.setattr(forecast.snapshots, "generate",
                            lambda *args: calls.append(args))
        yield
        assert calls == []

    @pytest.mark.parametrize("horizon", NOT_INTEGERS)
    def test_horizon_that_is_not_an_integer_refused(self, no_steps,
                                                    horizon):
        scores, scaler, model = tiny_setup()
        window = scaler.scale(scores)[:2]
        config = snapshots.GeneratorConfig(grid_nx=16, grid_ny=16,
                                           n_steps=40, source_period=4.0)
        def refused(least):
            return pytest.raises(InvalidConfig, match=re.escape(
                f"horizon must be an integer >= {least}, got {horizon!r}"))

        with refused(0):
            roll(model, window[None], horizon)
        with refused(0):
            forecast.rollout(model, scaler, window, horizon)
        with refused(1):
            forecast.evaluate_ensemble(model, model, scores, scaler, [3, 4],
                                       horizon)
        with refused(1):
            forecast.timing_benchmark(model, config, horizon, 4)

    @pytest.mark.parametrize("width", [*NOT_INTEGERS, 0])
    def test_ensemble_width_that_is_not_an_integer_refused(self, no_steps,
                                                           width):
        _, _, model = tiny_setup()
        config = snapshots.GeneratorConfig(grid_nx=16, grid_ny=16,
                                           n_steps=40, source_period=4.0)
        with pytest.raises(InvalidConfig, match=re.escape(
                f"ensemble width must be an integer >= 1, got {width!r}")):
            forecast.timing_benchmark(model, config, 5, width)

    @pytest.mark.parametrize("batch", [*NOT_INTEGERS, 0, -1])
    def test_stack_batch_that_is_not_an_integer_from_one_refused(self,
                                                                 batch):
        _, _, model = tiny_setup()
        with pytest.raises(InvalidConfig, match=re.escape(
                f"batch must be an integer >= 1, got {batch!r}")):
            neural.stack([model], batch)

    def test_numpy_integer_sizes_are_the_int_sizes(self):
        scores, scaler, model = tiny_setup()
        windows = np.stack([scaler.scale(scores)[s:s + 2] for s in (0, 5)])
        want = forecast._roll(neural.stack([model], 2), windows, 6)
        got = forecast._roll(neural.stack([model], np.int64(2)), windows,
                             np.int64(6))
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        report = forecast.evaluate_ensemble(model, model, scores, scaler,
                                            [3, 4], np.int32(4))
        assert np.array_equal(report.horizons, [1, 2, 3, 4])


class TestTimed:
    @staticmethod
    def clocked(monkeypatch, durations):
        """A stub whose k-th call takes ``durations[k]`` seconds (0 past
        the list) on a clock of its own, which ``forecast`` reads. The
        durations are powers of two, so the clock's differences are
        exact."""
        now = [0.0]
        calls = []

        def stub():
            k = len(calls)
            calls.append(k)
            now[0] += durations[k] if k < len(durations) else 0.0

        monkeypatch.setattr(forecast, "time",
                            types.SimpleNamespace(perf_counter=lambda: now[0]))
        return stub, calls

    def test_cold_first_call_not_counted(self, monkeypatch):
        # a first call that stalls (a cold BLAS or page faults) is the
        # warm-up; a later slow call is outvoted by the median
        fast = 2.0 ** -10
        stub, calls = self.clocked(monkeypatch, [0.25, fast, fast, 2.0 ** -4,
                                                 fast, fast])
        per_call = forecast._timed(stub, min_calls=5, min_seconds=0.0)
        assert len(calls) == 6
        assert per_call == fast

    def test_times_on_until_min_seconds(self, monkeypatch):
        stub, calls = self.clocked(monkeypatch, [2.0 ** -6] * 40)
        assert forecast._timed(stub, min_calls=5, min_seconds=0.125) \
            == 2.0 ** -6
        # the warm-up, then eight calls of 1/64 s
        assert len(calls) == 9


class TestTimingBenchmark:
    def test_smoke_and_single_ratio(self):
        scores, scaler, model = tiny_setup()
        config = snapshots.GeneratorConfig(grid_nx=16, grid_ny=16, n_steps=40,
                                           source_period=4.0)
        timing = forecast.timing_benchmark(model, config, horizon=20,
                                           ensemble_width=16)
        assert timing.sim_seconds_per_step > 0
        assert timing.forecast_seconds_per_step > 0
        # batched, a trajectory's step costs less than on its own
        assert timing.forecast_seconds_per_step_ensemble \
            < timing.forecast_seconds_per_step
