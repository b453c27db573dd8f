import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romcast import neural, optim, romf
from romcast.errors import InvalidConfig, NonFiniteInput, ShapeMismatch, TapeMismatch

import oracles


def zero_lstm(input_dim=3, hidden_dim=4):
    zeros_w = lambda: np.zeros((hidden_dim, input_dim))
    zeros_u = lambda: np.zeros((hidden_dim, hidden_dim))
    zeros_b = lambda: np.zeros(hidden_dim)
    return neural.LstmParams(
        w_i=zeros_w(), w_f=zeros_w(), w_o=zeros_w(), w_g=zeros_w(),
        u_i=zeros_u(), u_f=zeros_u(), u_o=zeros_u(), u_g=zeros_u(),
        b_i=zeros_b(), b_f=zeros_b(), b_o=zeros_b(), b_g=zeros_b(),
    )


class TestLstmForward:
    def test_zero_params_give_zero_hidden(self):
        params = zero_lstm()
        seq = np.random.default_rng(0).random((5, 3))
        hs, h_final, _ = neural.lstm_forward(params, seq)
        assert np.array_equal(hs, np.zeros((5, 4)))
        assert np.array_equal(h_final, np.zeros(4))

    def test_scalar_step_matches_hand_calculation(self):
        # hidden_dim = input_dim = 1 with hand-set scalar weights
        w, u, b = 0.7, -0.3, 0.1
        params = neural.LstmParams(
            w_i=np.array([[w]]), w_f=np.array([[2 * w]]),
            w_o=np.array([[-w]]), w_g=np.array([[0.5]]),
            u_i=np.array([[u]]), u_f=np.array([[u]]),
            u_o=np.array([[u]]), u_g=np.array([[u]]),
            b_i=np.array([b]), b_f=np.array([b]),
            b_o=np.array([b]), b_g=np.array([b]),
        )
        x = 0.9
        sig = lambda z: 1.0 / (1.0 + math.exp(-z))
        gi, gf = sig(w * x + b), sig(2 * w * x + b)
        go, gg = sig(-w * x + b), math.tanh(0.5 * x + b)
        c1 = gi * gg  # c0 = 0 so the forget path drops out
        expected = go * math.tanh(c1)
        _, h_final, _ = neural.lstm_forward(params, np.array([[x]]))
        assert h_final[0] == pytest.approx(expected, rel=1e-15)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000), st.integers(1, 6))
    def test_state_bounds(self, seed, steps):
        rng = np.random.default_rng(seed)
        params = neural.init_lstm_params(3, 5, rng)
        seq = rng.uniform(-3, 3, size=(steps, 3))
        hs, _, tape = neural.lstm_forward(params, seq)
        assert np.all(np.abs(hs) < 1.0)
        for t in range(1, steps + 1):
            gi, gf, _, gg = np.split(tape.gates[t - 1], 4, axis=-1)
            c = gf * tape.c[t - 1] + gi * gg
            assert np.all(np.abs(c) <= t)

    def test_shape_and_finite_checks(self):
        params = zero_lstm()
        with pytest.raises(ShapeMismatch):
            neural.lstm_forward(params, np.zeros((2, 5)))
        bad = np.zeros((2, 3))
        bad[0, 0] = np.inf
        with pytest.raises(NonFiniteInput):
            neural.lstm_forward(params, bad)

    def test_sigmoid_overflow_free_and_accurate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ends = neural.sigmoid(np.array([-800.0, 800.0]))
        assert np.all(np.isfinite(ends))
        assert np.array_equal(ends, [0.0, 1.0])
        x = np.linspace(-40.0, 40.0, 4001)
        exact = oracles.ld_sigmoid(x.astype(oracles.LD))
        assert np.max(np.abs(neural.sigmoid(x) - exact)) <= 1e-15


class TestForecasterForward:
    def test_sigmoid_codomain(self):
        rng = np.random.default_rng(1)
        model = neural.init_forecaster(3, 6, 3, "sigmoid", 0.0, 2, rng)
        pred, _ = neural.forecaster_forward(model, rng.random((2, 3)))
        assert np.all((pred > 0) & (pred < 1))

    def test_relu_of_bias(self):
        model = neural.init_forecaster(2, 4, 2, "relu", 0.0, 2,
                                       np.random.default_rng(0))
        model.head.weight[:] = 0.0
        model.head.bias[:] = [-1.0, 2.0]
        pred, _ = neural.forecaster_forward(model, np.random.default_rng(1).random((2, 2)))
        assert np.array_equal(pred, [0.0, 2.0])

    def test_zero_dropout_training_mode_is_noop(self):
        rng = np.random.default_rng(2)
        model = neural.init_forecaster(3, 5, 3, "linear", 0.0, 2, rng)
        window = rng.random((2, 3))
        a, _ = neural.forecaster_forward(model, window, training_mode=False)
        b, _ = neural.forecaster_forward(model, window, training_mode=True,
                                         rng=np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_dropout_mask_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        model = neural.init_forecaster(3, 64, 3, "linear", 0.5, 2, rng)
        window = rng.random((2, 3))
        a, ta = neural.forecaster_forward(model, window, training_mode=True,
                                          rng=np.random.default_rng(7))
        b, tb = neural.forecaster_forward(model, window, training_mode=True,
                                          rng=np.random.default_rng(7))
        assert np.array_equal(ta.mask, tb.mask)
        assert a.tobytes() == b.tobytes()
        # inverted dropout: surviving units are rescaled by 1/(1-rate)
        surviving = ta.mask[ta.mask > 0]
        assert np.allclose(surviving, 2.0)

    def test_wrong_window_length_rejected(self):
        model = neural.init_forecaster(3, 4, 3, "linear", 0.0, 2,
                                       np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            neural.forecaster_forward(model, np.zeros((3, 3)))

    def test_dropout_needs_rng(self):
        model = neural.init_forecaster(3, 4, 3, "linear", 0.5, 2,
                                       np.random.default_rng(0))
        with pytest.raises(InvalidConfig):
            neural.forecaster_forward(model, np.zeros((2, 3)),
                                      training_mode=True)


class TestDiscriminatorForward:
    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(5)
        disc = neural.init_discriminator(4, 8, rng)
        prob, _ = neural.discriminator_forward(disc, rng.random((6, 1, 4)))
        assert prob.shape == (6,)
        assert np.all((prob > 0) & (prob < 1))

    def test_scalar_head_enforced(self):
        rng = np.random.default_rng(6)
        lstm = neural.init_lstm_params(4, 8, rng)
        head = neural.DenseParams(weight=np.zeros((2, 8)), bias=np.zeros(2))
        with pytest.raises(InvalidConfig):
            neural.Discriminator(lstm=lstm, head=head)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(7)
        model = neural.init_forecaster(3, 5, 3, "sigmoid", 0.0, 2, rng)
        pred, tape = neural.forecaster_forward(model, rng.random((4, 2, 3)))
        grads, d_in = neural.backward(tape, np.zeros_like(pred))
        assert all(np.all(g == 0) for g in grads.values())
        assert np.all(d_in == 0)

    def test_zero_params_gradient_pattern(self):
        # at all-zero weights only the cell-candidate path (w_g, b_g) and
        # the head see gradient; i/f/o gate weight grads vanish
        params = zero_lstm()
        seq = np.random.default_rng(8).random((3, 3))
        _, h_final, tape = neural.lstm_forward(params, seq)
        grads, _ = neural.backward(tape, np.ones_like(h_final))
        assert np.any(grads["w_g"] != 0)
        assert np.any(grads["b_g"] != 0)
        for name in ("w_i", "w_f", "w_o", "u_i", "u_f", "u_o", "u_g"):
            assert np.all(grads[name] == 0), name

    def test_upstream_shape_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        model = neural.init_forecaster(3, 5, 3, "sigmoid", 0.0, 2, rng)
        _, tape = neural.forecaster_forward(model, rng.random((4, 2, 3)))
        with pytest.raises(TapeMismatch):
            neural.backward(tape, np.zeros((4, 5)))

    def test_gradients_match_finite_differences(self):
        # spec's reference check: eps=1e-5, <1e-5 over 100 params
        worst = 0.0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            model = neural.init_forecaster(4, 8, 4, "sigmoid", 0.0, 3, rng)
            windows, targets = oracles.smooth_windows(rng, 8, 3, 4)
            params = model.params()
            pred, tape = neural.forecaster_forward(model, windows)
            grads, _ = neural.backward(tape, optim.mse_grad(pred, targets))
            loss = oracles.forecaster_mse_loss(params, windows, targets,
                                               "sigmoid")
            worst = max(worst, oracles.grad_check(params, loss, grads,
                                                  n_samples=100, epsilon=1e-5,
                                                  rng=seed))
        assert worst < 1e-5

    def test_gradients_with_frozen_dropout_mask(self):
        rng = np.random.default_rng(12)
        model = neural.init_forecaster(4, 8, 4, "sigmoid", 0.5, 3, rng)
        windows, targets = oracles.smooth_windows(rng, 8, 3, 4)
        params = model.params()
        pred, tape = neural.forecaster_forward(model, windows,
                                               training_mode=True,
                                               rng=np.random.default_rng(3))
        grads, _ = neural.backward(tape, optim.mse_grad(pred, targets))
        loss = oracles.forecaster_mse_loss(params, windows, targets,
                                           "sigmoid", mask=tape.mask)
        err = oracles.grad_check(params, loss, grads, n_samples=100,
                                 epsilon=1e-5, rng=1)
        assert err < 1e-5

    def test_input_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        disc = neural.init_discriminator(4, 6, rng)
        seq = rng.random((5, 1, 4))
        prob, tape = neural.discriminator_forward(disc, seq)
        _, d_seq = neural.backward(tape, optim.bce_grad(prob, 1.0)[:, None])
        params = disc.params()
        eps = 1e-6
        for (b, t, j) in [(0, 0, 0), (2, 0, 1), (4, 0, 3)]:
            loss = oracles.discriminator_bce_loss(params, seq, 1.0)
            orig = seq[b, t, j]
            seq[b, t, j] = orig + eps
            up = loss()
            seq[b, t, j] = orig - eps
            down = loss()
            seq[b, t, j] = orig
            fd = float((up - down) / (2 * eps))
            assert d_seq[b, t, j] == pytest.approx(fd, rel=1e-6, abs=1e-12)


class TestGradCheckOperation:
    def test_quadratic_loss_is_exact(self):
        # central differences are exact for quadratics up to roundoff
        rng = np.random.default_rng(14)
        theta = {"w": rng.random(6)}
        target = rng.random(6)

        def loss():
            return np.sum((theta["w"].astype(np.longdouble)
                           - target.astype(np.longdouble)) ** 2)

        grads = {"w": 2.0 * (theta["w"] - target)}
        err = oracles.grad_check(theta, loss, grads, n_samples=6, epsilon=1e-5)
        assert err < 1e-9


class TestInitialization:
    def test_seeded_init_reproducible(self):
        a = neural.init_forecaster(3, 7, 3, "relu", 0.1, 2,
                                   np.random.default_rng(11))
        b = neural.init_forecaster(3, 7, 3, "relu", 0.1, 2,
                                   np.random.default_rng(11))
        for key, val in a.params().items():
            assert val.tobytes() == b.params()[key].tobytes()

    def test_forget_bias_and_scale(self):
        model = neural.init_forecaster(3, 16, 3, "relu", 0.0, 2,
                                       np.random.default_rng(12))
        assert np.all(model.lstm.b_f == 1.0)
        assert np.all(model.lstm.b_i == 0.0)
        bound = 1.0 / np.sqrt(16)
        assert np.abs(model.lstm.w_i).max() <= bound
        assert np.abs(model.head.weight).max() <= bound


class TestFlatLayout:
    def test_init_draws_gates_in_order_then_head(self):
        model = neural.init_forecaster(3, 5, 2, "sigmoid", 0.0, 2,
                                       np.random.default_rng(21))
        rng = np.random.default_rng(21)
        s = 1.0 / np.sqrt(5)
        expected = {}
        for kind, cols in (("w", 3), ("u", 5)):
            for gate in "ifog":
                expected[f"lstm.{kind}_{gate}"] = rng.uniform(-s, s,
                                                              size=(5, cols))
        for gate in "ifog":
            expected[f"lstm.b_{gate}"] = np.full(5, 1.0 if gate == "f"
                                                 else 0.0)
        expected["head.weight"] = rng.uniform(-s, s, size=(2, 5))
        expected["head.bias"] = np.zeros(2)
        params = model.params()
        assert list(params) == list(expected)
        for key, val in expected.items():
            assert params[key].tobytes() == val.tobytes(), key
        assert model.flat.tobytes() == np.concatenate(
            [val.ravel() for val in expected.values()]).tobytes()

    def test_named_views_alias_the_buffer(self):
        rng = np.random.default_rng(22)
        model = neural.init_forecaster(3, 4, 3, "linear", 0.0, 2, rng)
        window = rng.random((2, 3))
        before, _ = neural.forecaster_forward(model, window)
        flat_before = model.flat.copy()
        view = model.params()["lstm.w_f"]
        view[1, 2] += 0.5
        after, _ = neural.forecaster_forward(model, window)
        assert not np.array_equal(before, after)
        changed = np.flatnonzero(model.flat != flat_before)
        assert changed.size == 1
        assert model.lstm.w_f[1, 2] == model.flat[changed[0]]
        # w_f is the second block of four rows in the fused W
        assert model.lstm.W[4 + 1, 2] == model.lstm.w_f[1, 2]

    def test_batched_step_matches_inference_forward(self):
        rng = np.random.default_rng(23)
        model = neural.init_forecaster(4, 6, 4, "sigmoid", 0.3, 3, rng)
        windows = rng.random((7, 3, 4))
        step = neural.forecaster_step(model, windows)
        forward, _ = neural.forecaster_forward(model, windows)
        assert step.tobytes() == forward.tobytes()
        single = neural.forecaster_step(model, windows[2])
        direct, _ = neural.forecaster_forward(model, windows[2])
        assert single.tobytes() == direct.tobytes()


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    model = neural.init_forecaster(3, 5, 3, "sigmoid", 0.25, 2, rng)
    path = tmp_path / "model.romf"
    neural.save_model(path, model, seed=77)
    loaded, meta, _ = neural.load_model(path)
    assert meta["seed"] == 77
    assert loaded.output_activation == "sigmoid"
    assert loaded.dropout_rate == 0.25
    assert loaded.time_lag == 2
    for key, val in model.params().items():
        assert val.tobytes() == loaded.params()[key].tobytes()
    window = rng.random((2, 3))
    a, _ = neural.forecaster_forward(model, window)
    b, _ = neural.forecaster_forward(loaded, window)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("drop, missing", [
    ("array", "'lstm.u_o'"), ("kind", "'kind'"), ("time_lag", "'time_lag'"),
])
def test_load_incomplete_model_is_format_error(tmp_path, drop, missing):
    rng = np.random.default_rng(16)
    model = neural.init_forecaster(3, 5, 3, "sigmoid", 0.0, 2, rng)
    path = tmp_path / "model.romf"
    neural.save_model(path, model)
    arrays, meta = romf.read_arrays(path)
    if drop == "array":
        del arrays["lstm.u_o"]
    else:
        del meta[drop]
    romf.write_arrays(path, arrays, meta)
    with pytest.raises(romf.FormatError, match=missing):
        neural.load_model(path)


def _rewrite_meta(path, key, value):
    arrays, meta = romf.read_arrays(path)
    romf.write_arrays(path, arrays, {**meta, key: value})


# null is a seed's value when the model was saved without one
@pytest.mark.parametrize("key, value", [
    (key, value)
    for key in ("kind", "seed", "output_activation", "dropout_rate", "time_lag")
    for value in (None, "2", [2], True) if (key, value) != ("seed", None)
])
def test_load_model_meta_of_wrong_type_is_format_error(tmp_path, key, value):
    rng = np.random.default_rng(17)
    path = tmp_path / "model.romf"
    neural.save_model(path, neural.init_forecaster(3, 5, 3, "sigmoid", 0.0,
                                                   2, rng), seed=4)
    _rewrite_meta(path, key, value)
    with pytest.raises(romf.FormatError, match="model.romf"):
        neural.load_model(path)


@pytest.mark.parametrize("key, value, message", [
    ("time_lag", 0, "time_lag"), ("dropout_rate", 1.5, "dropout_rate"),
    ("output_activation", "tanh", "activation"), ("kind", "critic", "kind"),
])
def test_load_model_meta_out_of_range_is_format_error(tmp_path, key, value,
                                                      message):
    rng = np.random.default_rng(18)
    path = tmp_path / "model.romf"
    neural.save_model(path, neural.init_forecaster(3, 5, 3, "sigmoid", 0.0,
                                                   2, rng))
    _rewrite_meta(path, key, value)
    with pytest.raises(romf.FormatError, match=message):
        neural.load_model(path)


def test_discriminator_round_trip_and_one_file(tmp_path):
    disc = neural.init_discriminator(3, 4, np.random.default_rng(19))
    path = tmp_path / "disc.romf"
    neural.save_model(path, disc, seed=6)
    loaded, meta, extras = neural.load_model(path)
    assert isinstance(loaded, neural.Discriminator) and extras == {}
    assert meta == {"kind": "discriminator", "seed": 6}
    assert loaded.flat.tobytes() == disc.flat.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["disc.romf"]
