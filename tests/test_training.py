import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from romcast import neural, optim, training
from romcast.errors import (
    EmptyInput,
    InvalidConfig,
    NonFiniteInput,
    NonFiniteLoss,
    TooFewSteps,
)

import oracles


def wave_scores(n=140, tau=3, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    data = 0.5 + 0.4 * np.sin(2 * np.pi * t[:, None] / (11.0 + 4 * np.arange(tau)))
    return data + 0.01 * rng.standard_normal(data.shape)


def quick_config(**overrides):
    base = dict(batch_size=16, hidden_nodes=8, dropout=0.0,
                output_activation="sigmoid", time_lag=2, epochs=5, seed=0)
    base.update(overrides)
    return training.TrainConfig(**base)


class TestMakeWindows:
    def test_window_arithmetic(self):
        scores = np.arange(8.0).reshape(4, 2)
        ds = training.make_windows(scores, 2, 0.9)
        assert len(ds.inputs) == len(ds.targets) == 2
        assert np.array_equal(ds.inputs[0], scores[0:2])
        assert np.array_equal(ds.targets[0], scores[2])
        assert np.array_equal(ds.inputs[1], scores[1:3])
        assert np.array_equal(ds.targets[1], scores[3])

    def test_single_sample_boundary(self):
        ds = training.make_windows(np.zeros((3, 2)), 2, 0.5)
        assert len(ds.inputs) == len(ds.targets) == 1

    def test_paper_scale_split(self):
        ds = training.make_windows(np.zeros((1500, 2)), 2, 0.9)
        assert len(ds.inputs) == len(ds.targets) == 1498
        assert ds.split == 1348
        assert len(ds.val_inputs) == len(ds.val_targets) == 150

    @pytest.mark.parametrize("lag", [0, -1, 2.5, 2.0, True, "2",
                                     np.float64(2.0)])
    def test_lag_that_is_not_an_integer_from_one_is_invalid(self, lag):
        with pytest.raises(InvalidConfig, match="time_lag must be an "
                                                "integer >= 1"):
            training.make_windows(np.zeros((8, 2)), lag, 0.9)

    def test_numpy_integer_lag_is_the_int_lag(self):
        scores = wave_scores(n=20)
        want = training.make_windows(scores, 2, 0.9)
        got = training.make_windows(scores, np.int64(2), 0.9)
        assert got.inputs.tobytes() == want.inputs.tobytes()
        assert got.split == want.split

    def test_too_few_steps(self):
        with pytest.raises(TooFewSteps):
            training.make_windows(np.zeros((2, 3)), 2, 0.9)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 5), st.integers(1, 400),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(lag=1, k=400, fraction=math.nextafter(1.0, 0.0))
    def test_a_window_is_always_left_to_validate(self, lag, k, fraction):
        # n = lag + k rows give k windows, and int(k * f) < k for
        # 0 < f < 1, which validation relies on
        ds = training.make_windows(np.zeros((lag + k, 1)), lag, fraction)
        assert len(ds.val_inputs) == len(ds.val_targets) >= 1

    def test_chronological_split(self):
        ds = training.make_windows(wave_scores(), 2, 0.8)
        assert ds.train_inputs.shape[0] == ds.split
        assert np.array_equal(ds.inputs[ds.split], ds.val_inputs[0])

    @pytest.mark.parametrize("lag", [1, 2, 3])
    def test_equals_per_window_stack(self, lag):
        scores = wave_scores(n=30, tau=4)[:, ::-1]  # a strided input too
        ds = training.make_windows(scores, lag, 0.9)
        expected = np.stack([scores[i:i + lag]
                             for i in range(len(scores) - lag)])
        assert np.array_equal(ds.inputs, expected)
        assert ds.inputs.dtype == np.float64
        assert ds.inputs.flags.c_contiguous

    @settings(deadline=None, max_examples=40)
    @given(st.integers(4, 60), st.integers(1, 5))
    def test_target_is_next_windows_last_row(self, n, lag):
        if n <= lag:
            return
        scores = np.arange(float(n * 2)).reshape(n, 2)
        ds = training.make_windows(scores, lag, 0.7)
        for i in range(len(ds.inputs) - 1):
            assert np.array_equal(ds.targets[i], ds.inputs[i + 1][-1])


class TestTrainClassic:
    def test_constant_sequence_reaches_tiny_loss(self):
        scores = np.full((40, 2), 0.5)
        ds = training.make_windows(scores, 2, 0.9)
        _, report = training.train_classic(ds, quick_config(epochs=200))
        assert report.train_loss[-1] < 1e-4

    def test_optimizer_step_bookkeeping(self, monkeypatch):
        ds = training.make_windows(wave_scores(), 2, 0.9)
        config = quick_config(epochs=1, batch_size=16)
        real_step = training.nadam_step
        states = []

        def counting(state, params, grads):
            states.append(state)
            return real_step(state, params, grads)

        monkeypatch.setattr(training, "nadam_step", counting)
        training.train_classic(ds, config)
        assert len(states) == states[-1].t == math.ceil(ds.split / 16)

    def test_bit_identical_given_seed(self):
        ds = training.make_windows(wave_scores(), 2, 0.9)
        m1, _ = training.train_classic(ds, quick_config(seed=5, dropout=0.3))
        m2, _ = training.train_classic(ds, quick_config(seed=5, dropout=0.3))
        for key, val in m1.params().items():
            assert val.tobytes() == m2.params()[key].tobytes()

    def test_report_lengths(self):
        ds = training.make_windows(wave_scores(), 2, 0.9)
        _, report = training.train_classic(ds, quick_config(epochs=4))
        assert len(report.train_loss) == 4
        assert len(report.val_loss) == 4
        assert len(report.epoch_seconds) == 4
        assert report.d_loss is None and report.g_adv_loss is None

    def test_adversarial_flag_rejected(self):
        ds = training.make_windows(wave_scores(), 2, 0.9)
        with pytest.raises(InvalidConfig):
            training.train_classic(ds, quick_config(adversarial=True))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("adversarial", [False, True],
                             ids=["classic", "adversarial"])
    def test_diverged_training_raises(self, adversarial):
        # bounded LSTM activations survive huge rates; the head does not.
        # Adversarially, the diverged fake batch reaches D first: that is
        # divergence too, not bad input
        ds = training.make_windows(wave_scores(), 2, 0.9)
        config = quick_config(output_activation="linear", lr=1e200,
                              epochs=40, adversarial=adversarial)
        train = (training.train_adversarial if adversarial
                 else training.train_classic)
        with pytest.raises(NonFiniteLoss):
            train(ds, config)

    @pytest.mark.filterwarnings("error")
    def test_diverged_last_update_raises(self):
        # one mini-batch in one epoch: no later loss sees the overflow
        ds = training.make_windows(wave_scores(n=20), 2, 0.9)
        assert ds.split <= 16
        with pytest.raises(NonFiniteLoss):
            training.train_classic(
                ds, quick_config(output_activation="linear", lr=1e200,
                                 epochs=1)
            )


class TestTrainAdversarial:
    def test_untrained_discriminator_loss_is_two_ln_two(self):
        # zero head weights force D(x) = 0.5 exactly
        rng = np.random.default_rng(0)
        disc = neural.init_discriminator(3, 8, rng)
        disc.head.weight[:] = 0.0
        disc.head.bias[:] = 0.0
        seq = rng.random((10, 1, 3))
        prob, _ = neural.discriminator_forward(disc, seq)
        loss = optim.bce(prob, 1.0)[0] + optim.bce(prob, 0.0)[0]
        assert loss == pytest.approx(2 * math.log(2), rel=1e-12)

    def test_lambda_zero_one_step_equals_classic_step(self):
        # one generator step through D with adv_weight=0 against the
        # classic step, from the same float32 forecaster and dropout draw
        ds = training.make_windows(wave_scores(), 2, 0.9)
        config = quick_config(adversarial=True, adv_weight=0.0, dropout=0.3)
        windows = ds.inputs[:32].astype(np.float32)
        targets = ds.targets[:32].astype(np.float32)
        disc = neural.init_discriminator(3, 8, np.random.default_rng(2))
        disc = disc.astype(np.float32)
        flats = []
        for with_disc in (False, True):
            model = neural.init_forecaster(3, 8, "sigmoid", 0.3, 2,
                                           np.random.default_rng(1))
            model = model.astype(np.float32)
            opt = optim.NadamState()
            _, _, tape = neural.lstm_forward(model.lstm, windows)
            loss, adv_loss = training._forecaster_step(
                model, opt, tape, windows, targets, np.random.default_rng(3),
                config, disc=disc if with_disc else None)
            assert (adv_loss is not None) == with_disc
            flats.append((loss, model.flat.tobytes(), opt.m.tobytes(),
                          opt.v.tobytes()))
        assert flats[0] == flats[1]

    def test_lambda_zero_generator_step_equals_classic_step(self):
        # the control arm: with adv_weight=0 the adversarial term is the
        # only difference, so the forecaster must match classic training
        # bit for bit over several epochs of several mini-batches
        ds = training.make_windows(wave_scores(), 2, 0.9)
        config = quick_config(epochs=3, batch_size=32, dropout=0.3, seed=4)
        assert ds.split > 3 * config.batch_size
        classic, classic_report = training.train_classic(ds, config)
        adv_cfg = replace(config, adversarial=True, adv_weight=0.0)
        adv, _, report = training.train_adversarial(ds, adv_cfg)
        assert np.all(np.isfinite(report.g_adv_loss))
        assert adv.flat.tobytes() == classic.flat.tobytes()
        assert report.train_loss == classic_report.train_loss
        assert report.val_loss == classic_report.val_loss

    def test_phase_isolation(self):
        ds = training.make_windows(wave_scores(), 2, 0.9)
        rng_streams = training._rng_streams(3)
        model = neural.init_forecaster(3, 8, "sigmoid", 0.0, 2,
                                       rng_streams["model"])
        disc = neural.init_discriminator(3, 8, rng_streams["disc"])
        opt_g = optim.NadamState(lr=1e-3)
        opt_d = optim.NadamState(lr=1e-3)
        config = quick_config(adversarial=True)
        windows, targets = ds.inputs[:16], ds.targets[:16]

        g_before = {k: v.copy() for k, v in model.params().items()}
        _, _, lstm_tape = neural.lstm_forward(model.lstm, windows)
        fake, _ = neural.forecaster_head(model, lstm_tape)
        training._discriminator_step(disc, opt_d, windows, targets, fake)
        for key, val in model.params().items():
            assert val.tobytes() == g_before[key].tobytes()

        d_before = {k: v.copy() for k, v in disc.params().items()}
        training._forecaster_step(model, opt_g, lstm_tape, windows, targets,
                                  rng_streams["dropout"], config, disc=disc)
        for key, val in disc.params().items():
            assert val.tobytes() == d_before[key].tobytes()

    def test_nan_fake_batch_is_non_finite_input(self):
        ds = training.make_windows(wave_scores(), 2, 0.9)
        disc = neural.init_discriminator(3, 8, np.random.default_rng(1))
        opt = optim.NadamState()
        windows, targets = ds.inputs[:16], ds.targets[:16]
        fake = targets.copy()
        fake[3, 1] = np.nan
        before = disc.flat.copy()
        with pytest.raises(NonFiniteInput):
            training._discriminator_step(disc, opt, windows, targets, fake)
        assert opt.t == 0 and disc.flat.tobytes() == before.tobytes()

    def test_discriminator_steps_per_epoch(self, monkeypatch):
        ds = training.make_windows(wave_scores(), 2, 0.9)
        config = quick_config(epochs=2, adversarial=True, d_steps=3)
        real_step = training.nadam_step
        sides = []

        def counting(state, params, grads):
            sides.append("d" if params["head.weight"].shape[0] == 1 else "g")
            return real_step(state, params, grads)

        monkeypatch.setattr(training, "nadam_step", counting)
        training.train_adversarial(ds, config)
        batches = 2 * math.ceil(ds.split / 16)
        assert sides.count("g") == batches
        assert sides.count("d") == 3 * batches

    def test_mini_batch_runs_the_forecasters_lstm_once(self, monkeypatch):
        # the fake batch and the generator step share one LSTM pass; D
        # runs its prefix and last step per d_step and for G
        ds = training.make_windows(wave_scores(), 2, 0.9)
        config = quick_config(epochs=2, adversarial=True, dropout=0.3)
        disc_runs = 6  # (prefix + last step) x (2 d_steps + G)
        real_recur = neural._recur
        real_astype = neural._Network.astype
        runs = []
        # training runs float32 copies and validates float64 ones; every
        # copy of a network comes from ``astype``
        copies = {neural.LstmForecaster: [], neural.Discriminator: []}

        def counting(lstm, seq, *state):
            runs.append(lstm)
            return real_recur(lstm, seq, *state)

        def recording(net, dtype):
            copy = real_astype(net, dtype)
            copies[type(copy)].append(copy.lstm)
            return copy

        monkeypatch.setattr(neural, "_recur", counting)
        monkeypatch.setattr(neural._Network, "astype", recording)
        training.train_adversarial(ds, config)
        batches = config.epochs * math.ceil(ds.split / config.batch_size)

        def runs_of(kind):
            return sum(any(lstm is own for own in copies[kind])
                       for lstm in runs)

        # plus one validation pass per epoch
        assert runs_of(neural.LstmForecaster) == batches + config.epochs
        assert runs_of(neural.Discriminator) == disc_runs * batches
        assert len(runs) == (1 + disc_runs) * batches + config.epochs

    def test_adversarial_losses_finite_and_discriminator_useful(self):
        scores = wave_scores(n=160)
        ds = training.make_windows(scores, 2, 0.9)
        config = quick_config(epochs=60, adversarial=True, hidden_nodes=16,
                              batch_size=16)
        model, disc, report = training.train_adversarial(ds, config)
        assert all(np.isfinite(report.d_loss))
        assert all(np.isfinite(report.g_adv_loss))
        assert all(np.isfinite(report.train_loss))
        # held-out accuracy of D on real vs predicted pairs, scored as
        # whole sequences
        pred, _ = neural.forecaster_forward(model, ds.val_inputs)
        seq_real, seq_fake = (
            np.concatenate([ds.val_inputs, last[:, None]], axis=1)
            for last in (ds.val_targets, pred)
        )
        # D emits logits: sigmoid(z) > 1/2 where z > 0
        z_real, _ = neural.discriminator_forward(disc, seq_real)
        z_fake, _ = neural.discriminator_forward(disc, seq_fake)
        accuracy = 0.5 * ((z_real > 0.0).mean() + (z_fake < 0.0).mean())
        assert 0.45 < accuracy <= 1.0

    def test_classic_flag_rejected(self):
        ds = training.make_windows(wave_scores(), 2, 0.9)
        with pytest.raises(InvalidConfig):
            training.train_adversarial(ds, quick_config())

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_generator_step_matches_finite_differences(self, monkeypatch,
                                                       dropout):
        # the generator's whole gradient, MSE plus adv_weight times the
        # BCE through D on [window, prediction], against the longdouble
        # loss; float64 networks, the gradient taken where Nadam gets it
        rng = np.random.default_rng(40)
        batch, lag, tau, hidden = 6, 3, 4, 8
        model = neural.init_forecaster(tau, hidden, "sigmoid", dropout, lag,
                                       rng)
        disc = neural.init_discriminator(tau, 5, rng)
        windows, targets = oracles.smooth_windows(rng, batch, lag, tau)
        config = quick_config(adversarial=True, adv_weight=0.7, time_lag=lag,
                              dropout=dropout)
        captured = []
        monkeypatch.setattr(training, "nadam_step",
                            lambda state, params, grads: captured.append(grads))
        _, _, lstm_tape = neural.lstm_forward(model.lstm, windows)
        training._forecaster_step(model, optim.NadamState(), lstm_tape,
                                  windows, targets, np.random.default_rng(5),
                                  config, disc=disc)
        (grads,) = captured
        mask = None
        if dropout:  # the mask the step drew, from the same seeded rng
            kept = np.random.default_rng(5).random((batch, hidden)) >= dropout
            mask = kept / (1.0 - dropout)
        params = model.params()
        loss = oracles.combined_adversarial_loss(
            params, disc.params(), windows, targets, "sigmoid",
            config.adv_weight, mask=mask)
        assert oracles.grad_check(params, loss, grads, n_samples=100,
                                  epsilon=1e-5, rng=1) < 1e-5


class TestFloat32Training:
    def test_steps_keep_every_array_float32(self, monkeypatch):
        ds = training.make_windows(wave_scores(), 2, 0.9)
        streams = training._rng_streams(3)
        model = neural.init_forecaster(3, 8, "relu", 0.3, 2,
                                       streams["model"]).astype(np.float32)
        disc = neural.init_discriminator(3, 8,
                                         streams["disc"]).astype(np.float32)
        opt_g, opt_d = optim.NadamState(), optim.NadamState()
        config = quick_config(adversarial=True, dropout=0.3)
        windows = ds.inputs[:16].astype(np.float32)
        targets = ds.targets[:16].astype(np.float32)
        arrays = []  # (what, array) for every array the steps hand on

        def recording_tape(cls, kind):
            real_init = cls.__init__

            def init(tape, *args):
                real_init(tape, *args)
                # every array a tape records, each step's of the lists too
                for field in fields(tape):
                    value = getattr(tape, field.name)
                    for item in value if isinstance(value, list) else [value]:
                        if isinstance(item, np.ndarray):
                            arrays.append((f"{kind}.{field.name}", item))
            monkeypatch.setattr(cls, "__init__", init)

        def recording(module, name, pick):
            fn = getattr(module, name)

            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                arrays.extend((name, value) for value in pick(args, out))
                return out
            monkeypatch.setattr(module, name, wrapped)

        recording(training, "mse_grad", lambda args, out: [out])
        recording(training, "bce", lambda args, out: [out[1]])
        recording(training, "candidate_grad", lambda args, out: [out])
        recording(training, "_param_grads", lambda args, out: [out[0].flat])
        # a run from a zero state has no dc0 (None)
        recording(neural, "_lstm_backward",
                  lambda args, out: [a for a in out if a is not None])
        recording(training, "nadam_step",
                  lambda args, out: [args[0].m, args[0].v, args[1].flat])
        recording_tape(neural.LstmTape, "lstm")
        recording_tape(neural.HeadTape, "head")

        _, _, lstm_tape = neural.lstm_forward(model.lstm, windows)
        fake, _ = neural.forecaster_head(model, lstm_tape)
        training._discriminator_step(disc, opt_d, windows, targets, fake)
        training._forecaster_step(model, opt_g, lstm_tape, windows, targets,
                                  streams["dropout"], config, disc=disc)
        names = {name for name, _ in arrays}
        assert {"lstm.seq", "lstm.gates", "lstm.h", "lstm.c", "lstm.tc",
                "head.h", "head.mask", "head.pred", "mse_grad",
                "bce", "candidate_grad", "_param_grads",
                "_lstm_backward", "nadam_step"} <= names
        for name, array in arrays:
            assert array.dtype == np.float32, name
        assert fake.dtype == np.float32
        assert opt_g.t == opt_d.t == 1

    @pytest.mark.parametrize("adversarial", [False, True])
    def test_trained_networks_are_float64_of_float32_values(self, tmp_path,
                                                            adversarial):
        ds = training.make_windows(wave_scores(), 2, 0.9)
        config = quick_config(epochs=3, dropout=0.3, adversarial=adversarial)
        if adversarial:
            model, disc, report = training.train_adversarial(ds, config)
            nets = [model, disc]
        else:
            model, report = training.train_classic(ds, config)
            nets = [model]
        for net in nets:
            assert net.flat.dtype == np.float64
            narrowed = net.flat.astype(np.float32).astype(np.float64)
            assert narrowed.tobytes() == net.flat.tobytes()

        def val_mse(net):
            pred, _ = neural.forecaster_forward(net, ds.val_inputs)
            return optim.mse(pred, ds.val_targets)

        assert report.val_loss[-1] == val_mse(model)
        neural.save_model(tmp_path / "model.romf", model)
        loaded, _, _ = neural.load_model(tmp_path / "model.romf")
        assert loaded.flat.tobytes() == model.flat.tobytes()
        assert report.val_loss[-1] == val_mse(loaded)


class TestGridSearch:
    def test_single_point_returns_it(self):
        scores = wave_scores()
        base = quick_config(epochs=3)
        best, results = training.grid_search(scores, {"dropout": [0.2]}, base)
        assert len(results) == 1
        assert best.dropout == 0.2

    def test_product_count(self):
        scores = wave_scores()
        base = quick_config(epochs=2)
        grid = {"dropout": [0.0, 0.3], "hidden_nodes": [4, 8],
                "batch_size": [16]}
        best, results = training.grid_search(scores, grid, base)
        assert len(results) == 4
        assert {point.config.hidden_nodes for point in results} == {4, 8}

    def test_default_grid_contains_reference_axes(self):
        assert training.DEFAULT_GRID["dropout"] == [0.3, 0.5]
        assert training.DEFAULT_GRID["output_activation"] == ["relu", "sigmoid"]
        assert training.DEFAULT_GRID["time_lag"] == [2]

    def test_selection_prefers_lower_val_then_smaller_model(self):
        scores = wave_scores()
        base = quick_config(epochs=3)
        grid = {"hidden_nodes": [8, 4]}
        best, results = training.grid_search(scores, grid, base)
        viable = [p for p in results if not p.failed]
        min_val = min(p.val_mse for p in viable)
        assert best.hidden_nodes == min(
            p.config.hidden_nodes for p in viable if p.val_mse == min_val
        )

    def test_failed_point_skipped_not_fatal(self, monkeypatch):
        scores = wave_scores()
        base = quick_config(epochs=2)
        real_train = training.train_classic

        def flaky(dataset, config):
            if config.dropout == 0.3:
                raise NonFiniteLoss("boom")
            return real_train(dataset, config)

        monkeypatch.setattr(training, "train_classic", flaky)
        best, results = training.grid_search(scores, {"dropout": [0.3, 0.0]},
                                             base)
        assert results[0].failed and not results[1].failed
        assert best.dropout == 0.0

    def test_bad_point_fails_before_any_training(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a grid point trained")

        monkeypatch.setattr(training, "train_classic", refuse)
        with pytest.raises(InvalidConfig, match="dropout"):
            training.grid_search(wave_scores(), {"dropout": [0.0, 1.5]},
                                 quick_config())

    def test_best_keeps_the_base_epochs(self):
        best, results = training.grid_search(
            wave_scores(), {"dropout": [0.0]}, quick_config(epochs=7),
            search_epochs=2)
        assert results[0].config.epochs == 2
        assert best == replace(results[0].config, epochs=7)

    def test_empty_grid_rejected(self):
        with pytest.raises(EmptyInput):
            training.grid_search(wave_scores(), {}, quick_config())

    def test_unknown_axis_rejected(self):
        with pytest.raises(InvalidConfig):
            training.grid_search(wave_scores(), {"lr": [0.1]}, quick_config())


class TestConfigValidation:
    def test_bad_fraction(self):
        with pytest.raises(InvalidConfig):
            quick_config(train_fraction=1.0)

    def test_replace_checks_the_new_config(self):
        with pytest.raises(InvalidConfig, match="lr"):
            replace(training.TrainConfig(), lr=float("nan"))

    def test_bad_adv_weight(self):
        with pytest.raises(InvalidConfig):
            quick_config(adv_weight=-0.5)

    def test_bad_disc_mode(self):
        # D always sees the window: no setting chooses otherwise
        with pytest.raises(TypeError, match="disc_mode"):
            quick_config(disc_mode="step")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name, value", [
        ("lr", math.nan), ("lr", math.inf), ("lr", 0.0), ("lr", -1e-3),
        ("d_lr", math.nan), ("d_lr", -1.0), ("d_lr", 0.0),
        ("adv_weight", math.nan), ("adv_weight", math.inf),
    ])
    def test_bad_optimizer_number(self, name, value):
        with pytest.raises(InvalidConfig, match=name):
            quick_config(**{name: value})

    @pytest.mark.parametrize("name, value", [("adv_weight", 0.0)])
    def test_edge_optimizer_number_accepted(self, name, value):
        quick_config(**{name: value})
