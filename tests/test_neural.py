import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romcast import neural, optim, romf
from romcast.errors import InvalidConfig, NonFiniteInput, ShapeMismatch, TapeMismatch

import oracles


def zero_lstm(input_dim=3, hidden_dim=4):
    return neural.LstmParams(np.zeros((4 * hidden_dim, input_dim)),
                             np.zeros((4 * hidden_dim, hidden_dim)),
                             np.zeros(4 * hidden_dim))


def lstm_tape(model, windows):
    """The tape of a forecaster's LSTM pass, for ``forecaster_head``."""
    return neural.lstm_forward(model.lstm, windows)[2]


class TestLstmForward:
    def test_zero_params_give_zero_hidden(self):
        params = zero_lstm()
        seq = np.random.default_rng(0).random((1, 5, 3))
        hs, h_final, _ = neural.lstm_forward(params, seq)
        assert np.array_equal(hs, np.zeros((1, 5, 4)))
        assert np.array_equal(h_final, np.zeros((1, 4)))

    def test_scalar_step_matches_hand_calculation(self):
        # hidden_dim = input_dim = 1 with hand-set scalar weights
        w, u, b = 0.7, -0.3, 0.1
        # rows are the gates i, f, o, g
        params = neural.LstmParams(W=np.array([[w], [2 * w], [-w], [0.5]]),
                                   U=np.full((4, 1), u), b=np.full(4, b))
        x = 0.9
        sig = lambda z: 1.0 / (1.0 + math.exp(-z))
        gi, gf = sig(w * x + b), sig(2 * w * x + b)
        go, gg = sig(-w * x + b), math.tanh(0.5 * x + b)
        c1 = gi * gg  # c0 = 0 so the forget path drops out
        expected = go * math.tanh(c1)
        _, h_final, _ = neural.lstm_forward(params, np.array([[[x]]]))
        assert h_final[0, 0] == pytest.approx(expected, rel=1e-15)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000), st.integers(1, 6))
    def test_state_bounds(self, seed, steps):
        rng = np.random.default_rng(seed)
        params = neural.init_lstm_params(3, 5, rng)
        seq = rng.uniform(-3, 3, size=(1, steps, 3))
        hs, _, tape = neural.lstm_forward(params, seq)
        assert np.all(np.abs(hs) < 1.0)
        # gate-major tape: gates (T, 4H, B); the cell states c_0..c_T are
        # (H, B) arrays, with c_0 None for the zero state
        for t in range(1, steps + 1):
            gi, gf, _, gg = np.split(tape.gates[t - 1], 4, axis=0)
            c_prev = 0.0 if tape.c[t - 1] is None else tape.c[t - 1]
            c = gf * c_prev + gi * gg
            assert np.all(np.abs(c) <= t)
            assert np.array_equal(c, tape.c[t])

    def test_shape_and_finite_checks(self):
        params = zero_lstm()
        with pytest.raises(ShapeMismatch):
            neural.lstm_forward(params, np.zeros((1, 2, 5)))
        # one sequence is a batch of one, not a (T, D) matrix
        with pytest.raises(ShapeMismatch):
            neural.lstm_forward(params, np.zeros((2, 3)))
        bad = np.zeros((1, 2, 3))
        bad[0, 0, 0] = np.inf
        with pytest.raises(NonFiniteInput):
            neural.lstm_forward(params, bad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_state_run_equals_run_from_explicit_zeros(self, dtype):
        # step 0 from a zero state skips U @ h_0 and f * c_0; the same
        # run started from explicit zero (h0, c0) takes both
        rng = np.random.default_rng(41)
        lstm = neural.init_lstm_params(4, 6, rng)
        lstm = neural.LstmParams(*(block.astype(dtype)
                                   for block in vars(lstm).values()))
        seq = rng.uniform(-2, 2, size=(5, 3, 4)).astype(dtype)
        zero = np.zeros((6, 5), dtype)
        free = neural._recur(lstm, seq)
        started = neural._recur(lstm, seq, zero, zero)
        assert not free.start and started.start
        assert free.gates.dtype == dtype
        assert free.gates.tobytes() == started.gates.tobytes()
        for name in ("h", "c", "tc"):
            got, want = getattr(free, name), getattr(started, name)
            if name != "tc":
                # the state lists start with (h0, c0): None from a zero
                # state, the given zeros otherwise
                assert got[0] is None and not want[0].any()
                got, want = got[1:], want[1:]
            assert len(got) == len(want) == 3
            for step, (a, b) in enumerate(zip(got, want)):
                assert a.dtype == dtype
                assert a.tobytes() == b.tobytes(), (name, step)
        # backward: the same dA; only a run from a given state has a c0
        # to hand a gradient to
        d_h = rng.standard_normal((6, 5)).astype(dtype)
        d_free, dc0_free = neural._lstm_backward(free, d_h)
        d_started, dc0 = neural._lstm_backward(started, d_h)
        assert d_free.tobytes() == d_started.tobytes()
        assert dc0_free is None and dc0.shape == (6, 5)

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
        model = neural.init_forecaster(3, 6, "sigmoid", 0.0, 2, rng)
        pred, _ = neural.forecaster_forward(model, rng.random((1, 2, 3)))
        assert np.all((pred > 0) & (pred < 1))

    def test_relu_of_bias(self):
        model = neural.init_forecaster(2, 4, "relu", 0.0, 2,
                                       np.random.default_rng(0))
        model.head.weight[:] = 0.0
        model.head.bias[:] = [-1.0, 2.0]
        pred, _ = neural.forecaster_forward(
            model, np.random.default_rng(1).random((1, 2, 2)))
        assert np.array_equal(pred, [[0.0, 2.0]])

    def test_zero_dropout_training_mode_is_noop(self):
        rng = np.random.default_rng(2)
        model = neural.init_forecaster(3, 5, "linear", 0.0, 2, rng)
        window = rng.random((1, 2, 3))
        a, _ = neural.forecaster_forward(model, window)
        b, _ = neural.forecaster_head(model, lstm_tape(model, window),
                                      np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_dropout_mask_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        model = neural.init_forecaster(3, 64, "linear", 0.5, 2, rng)
        window = rng.random((1, 2, 3))
        a, ta = neural.forecaster_head(model, lstm_tape(model, window),
                                       np.random.default_rng(7))
        b, tb = neural.forecaster_head(model, lstm_tape(model, window),
                                       np.random.default_rng(7))
        assert np.array_equal(ta.mask, tb.mask)
        assert a.tobytes() == b.tobytes()
        # inverted dropout: surviving units are rescaled by 1/(1-rate)
        surviving = ta.mask[ta.mask > 0]
        assert np.allclose(surviving, 2.0)

    def test_wrong_window_length_rejected(self):
        model = neural.init_forecaster(3, 4, "linear", 0.0, 2,
                                       np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            neural.forecaster_forward(model, np.zeros((1, 3, 3)))

    def test_head_of_other_size_than_input_rejected(self):
        # each prediction is the next input, which a rollout feeds back
        head = neural.DenseParams(np.zeros((3, 5)), np.zeros(3))
        with pytest.raises(ShapeMismatch, match="head.weight"):
            neural.LstmForecaster(zero_lstm(4, 5), head, "sigmoid", 0.0, 2)


class TestDiscriminatorForward:
    def test_output_is_the_linear_heads_logit(self):
        # the head is linear: the output is its logit, not a probability
        rng = np.random.default_rng(5)
        disc = neural.init_discriminator(4, 8, rng)
        seq = rng.random((6, 1, 4))
        logits, tape = neural.discriminator_forward(disc, seq)
        assert logits.shape == (6,)
        assert tape.model.output_activation == "linear"
        h, _ = oracles.ld_lstm_final_hidden(disc.params(), seq)
        want = h @ disc.head.weight[0] + disc.head.bias[0]
        assert np.max(np.abs(logits - want)) <= 1e-15
        # a bias far out is a logit far out, with no clamp or squashing
        disc.head.bias[:] = -40.0
        far, _ = neural.discriminator_forward(disc, seq)
        assert np.array_equal(far, logits - 40.0)

    def test_scalar_head_enforced(self):
        rng = np.random.default_rng(6)
        lstm = neural.init_lstm_params(4, 8, rng)
        head = neural.DenseParams(weight=np.zeros((2, 8)), bias=np.zeros(2))
        with pytest.raises(InvalidConfig):
            neural.Discriminator(lstm=lstm, head=head)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(7)
        model = neural.init_forecaster(3, 5, "sigmoid", 0.0, 2, rng)
        pred, tape = neural.forecaster_forward(model, rng.random((4, 2, 3)))
        grads, d_in = neural.backward(tape, np.zeros_like(pred))
        assert all(np.all(g == 0) for g in grads.values())
        assert np.all(d_in == 0)

    def test_zero_params_gradient_pattern(self):
        # at all-zero LSTM weights only the cell-candidate rows (g) of W
        # and b and the head bias see gradient; the i/f/o rows and all of
        # U stay zero
        hidden = 4
        head = neural.DenseParams(np.ones((3, hidden)), np.zeros(3))
        model = neural.LstmForecaster(zero_lstm(3, hidden), head, "linear",
                                      0.0, 3)
        seq = np.random.default_rng(8).random((1, 3, 3))
        pred, tape = neural.forecaster_forward(model, seq)
        grads, _ = neural.backward(tape, np.ones_like(pred))
        g_rows = slice(3 * hidden, 4 * hidden)
        assert np.all(grads["lstm.W"][g_rows] != 0)
        assert np.all(grads["lstm.b"][g_rows] != 0)
        assert np.all(grads["lstm.W"][:3 * hidden] == 0)
        assert np.all(grads["lstm.b"][:3 * hidden] == 0)
        assert np.all(grads["lstm.U"] == 0)
        assert np.all(grads["head.weight"] == 0)  # h is zero
        assert np.all(grads["head.bias"] == 1.0)

    def test_bare_lstm_tape_rejected(self):
        _, h_final, tape = neural.lstm_forward(zero_lstm(),
                                               np.ones((1, 2, 3)))
        with pytest.raises(TapeMismatch):
            neural.backward(tape, np.ones_like(h_final))

    def test_upstream_shape_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        model = neural.init_forecaster(3, 5, "sigmoid", 0.0, 2, rng)
        _, tape = neural.forecaster_forward(model, rng.random((4, 2, 3)))
        with pytest.raises(TapeMismatch):
            neural.backward(tape, np.zeros((4, 5)))

    def test_gradients_match_finite_differences(self):
        # spec's reference check: eps=1e-5, <1e-5 over 100 params
        worst = 0.0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            model = neural.init_forecaster(4, 8, "sigmoid", 0.0, 3, rng)
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
        model = neural.init_forecaster(4, 8, "sigmoid", 0.5, 3, rng)
        windows, targets = oracles.smooth_windows(rng, 8, 3, 4)
        params = model.params()
        pred, tape = neural.forecaster_head(model, lstm_tape(model, windows),
                                            np.random.default_rng(3))
        grads, _ = neural.backward(tape, optim.mse_grad(pred, targets))
        loss = oracles.forecaster_mse_loss(params, windows, targets,
                                           "sigmoid", mask=tape.mask)
        err = oracles.grad_check(params, loss, grads, n_samples=100,
                                 epsilon=1e-5, rng=1)
        assert err < 1e-5

    def test_input_gradients_match_finite_differences(self):
        # T=3 has a prefix of two steps, whose input grads backward joins
        # to the last step's
        cases = {1: [(0, 0, 0), (2, 0, 1), (4, 0, 3)],
                 3: [(0, 0, 0), (2, 1, 1), (4, 2, 3), (1, 0, 2)]}
        for steps, coords in cases.items():
            rng = np.random.default_rng(13)
            disc = neural.init_discriminator(4, 6, rng)
            seq = rng.random((5, steps, 4))
            prob, tape = neural.discriminator_forward(disc, seq)
            _, d_seq = neural.backward(tape, optim.bce(prob, 1.0)[1][:, None])
            assert d_seq.shape == seq.shape
            loss = oracles.discriminator_bce_loss(disc.params(), seq, 1.0)
            eps = 1e-6
            for (b, t, j) in coords:
                orig = seq[b, t, j]
                seq[b, t, j] = orig + eps
                up = loss()
                seq[b, t, j] = orig - eps
                down = loss()
                seq[b, t, j] = orig
                fd = float((up - down) / (2 * eps))
                assert d_seq[b, t, j] == pytest.approx(fd, rel=1e-6,
                                                       abs=1e-12)


def _branch_case(seed, prefix_steps, batch=6, dim=4, hidden=5):
    """A discriminator, a shared prefix and real and fake last steps."""
    rng = np.random.default_rng(seed)
    disc = neural.init_discriminator(dim, hidden, rng)
    windows, targets = oracles.smooth_windows(rng, batch, prefix_steps, dim)
    fake = targets + 0.1 * rng.standard_normal(targets.shape)
    return disc, windows, targets, fake


def _whole(windows, last):
    return np.concatenate([windows, last[:, None]], axis=1)


class TestDiscriminatorBranches:
    def test_state_carrying_kernel_matches_finite_differences(self):
        # the last step runs from the prefix's final (h, c): its step 0
        # feeds dU, and dh0 and dc0 carry the gradient into the prefix
        worst = 0.0
        for seed in range(3):
            disc, windows, targets, _ = _branch_case(seed, 3)
            prob, tape = neural.discriminator_branches(disc, windows,
                                                       targets[None])
            assert tape.lstm_tape.start and not tape.prefix.start
            d_prob = optim.bce(prob[0], 1.0)[1]
            grads, _ = neural._param_grads(tape, d_prob[:, None])
            params = disc.params()
            loss = oracles.discriminator_bce_loss(
                params, _whole(windows, targets), 1.0)
            worst = max(worst, oracles.grad_check(params, loss, grads,
                                                  n_samples=400,
                                                  epsilon=1e-5, rng=seed))
        assert worst < 1e-5

    def test_initial_state_gradients_match_finite_differences(self):
        # a run continued from the prefix's final state: the prefix's
        # inputs reach the loss only through dh0 and dc0
        rng = np.random.default_rng(21)
        disc = neural.init_discriminator(3, 4, rng)
        lstm, params = disc.lstm, disc.params()
        seq = rng.random((2, 3, 3))
        weights = rng.standard_normal((2, 4))
        pre = neural._recur(lstm, seq[:, :2])
        last = neural._recur(lstm, seq[:, 2:], pre.h[-1], pre.c[-1])
        assert np.allclose(last.h[-1], neural._recur(lstm, seq).h[-1],
                           rtol=1e-14, atol=0.0)
        d_last, dc0 = neural._lstm_backward(last, d_h_final=weights.T)
        dh0 = lstm.U.T @ d_last[:, :2]
        d_pre, _ = neural._lstm_backward(pre, d_h_final=dh0, d_c_final=dc0)
        d_seq = np.concatenate([neural._input_grads(pre, d_pre),
                                neural._input_grads(last, d_last)], axis=1)
        eps = 1e-6
        for idx in [(0, 0, 0), (1, 0, 2), (0, 1, 1), (1, 1, 0), (1, 2, 2)]:
            orig = seq[idx]
            seq[idx] = orig + eps
            h_up, _ = oracles.ld_lstm_final_hidden(params, seq)
            seq[idx] = orig - eps
            h_down, _ = oracles.ld_lstm_final_hidden(params, seq)
            seq[idx] = orig
            fd = float(np.sum(weights * (h_up - h_down)) / (2 * eps))
            assert d_seq[idx] == pytest.approx(fd, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("prefix_steps", [2, 0])
    def test_shared_prefix_equals_two_separate_passes(self, prefix_steps):
        disc, windows, targets, fake = _branch_case(22, prefix_steps)
        prob, tape = neural.discriminator_branches(
            disc, windows, np.stack([targets, fake]))
        d_prob = np.stack([optim.bce(prob[0], 1.0)[1],
                           optim.bce(prob[1], 0.0)[1]])
        grads, _ = neural._param_grads(tape, d_prob.reshape(-1, 1))
        total = np.zeros_like(grads.flat)
        for branch, last in enumerate((targets, fake)):
            p_sep, t_sep = neural.discriminator_forward(disc,
                                                        _whole(windows, last))
            assert np.allclose(prob[branch], p_sep, rtol=1e-13, atol=0.0)
            g_sep, _ = neural.backward(t_sep, d_prob[branch][:, None])
            total += g_sep.flat
        assert grads.layout == disc.params().layout
        scale = np.abs(total).max()
        assert np.abs(grads.flat - total).max() <= 1e-12 * scale

    @pytest.mark.parametrize("prefix_steps", [2, 0])
    def test_candidate_grad_equals_full_input_gradient(self, prefix_steps):
        disc, windows, _, fake = _branch_case(23, prefix_steps)
        prob, tape = neural.discriminator_branches(disc, windows, fake[None])
        d_prob = optim.bce(prob[0], 1.0)[1]
        got = neural.candidate_grad(tape, d_prob[None])[0]
        p_sep, t_sep = neural.discriminator_forward(disc, _whole(windows, fake))
        _, d_seq = neural.backward(t_sep, d_prob[:, None])
        want = d_seq[:, -1]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_non_finite_input_rejected(self):
        disc, windows, targets, _ = _branch_case(24, 2)
        windows[1, 0, 2] = np.inf
        with pytest.raises(NonFiniteInput):
            neural.discriminator_branches(disc, windows, targets[None])


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
        a = neural.init_forecaster(3, 7, "relu", 0.1, 2,
                                   np.random.default_rng(11))
        b = neural.init_forecaster(3, 7, "relu", 0.1, 2,
                                   np.random.default_rng(11))
        for key, val in a.params().items():
            assert val.tobytes() == b.params()[key].tobytes()

    def test_forget_bias_and_scale(self):
        model = neural.init_forecaster(3, 16, "relu", 0.0, 2,
                                       np.random.default_rng(12))
        # b stacks the gates i, f, o, g: only the forget block is one
        assert np.array_equal(model.lstm.b,
                              np.repeat([0.0, 1.0, 0.0, 0.0], 16))
        bound = 1.0 / np.sqrt(16)
        assert np.abs(model.lstm.W).max() <= bound
        assert np.abs(model.lstm.U).max() <= bound
        assert np.abs(model.head.weight).max() <= bound


def _views(net):
    return [*vars(net.lstm).values(), *vars(net.head).values()]


class TestConstruction:
    """A network checks its blocks' shapes and copies them into a buffer
    of its own; it never writes the parameters it was given."""

    @pytest.mark.parametrize("U, weight, message", [
        (np.zeros((16, 5)), np.zeros((3, 4)), "'lstm.W' has shape"),
        (np.zeros((16, 4)), np.zeros((3, 5)), "'head.weight' has shape"),
        (np.zeros(16), np.zeros((3, 4)), "2-D"),
    ])
    def test_hand_built_shapes_checked(self, U, weight, message):
        lstm = neural.LstmParams(np.zeros((16, 3)), U, np.zeros(16))
        head = neural.DenseParams(weight, np.zeros(3))
        with pytest.raises(ShapeMismatch, match=message):
            neural.LstmForecaster(lstm, head)

    def test_two_networks_of_one_params_own_their_weights(self):
        rng = np.random.default_rng(40)
        lstm = neural.init_lstm_params(3, 4, rng)
        head = neural.DenseParams(rng.random((3, 4)), np.zeros(3))
        given = [*vars(lstm).values(), *vars(head).values()]
        copies = [block.copy() for block in given]
        a = neural.LstmForecaster(lstm, head)
        b = neural.LstmForecaster(lstm, head)
        for net in (a, b):
            assert all(np.shares_memory(view, net.flat) for view in _views(net))
        assert not np.shares_memory(a.flat, b.flat)
        a.flat += 1.0
        kept = [*vars(lstm).values(), *vars(head).values()]
        assert all(now is block for now, block in zip(kept, given))
        for block, copy in zip(given, copies):
            assert block.tobytes() == copy.tobytes()

    def test_nadam_on_a_replaced_network_moves_only_its_forward(self):
        rng = np.random.default_rng(41)
        model = neural.init_forecaster(3, 5, "sigmoid", 0.3, 2, rng)
        other = replace(model, dropout_rate=0.0)
        for net in (model, other):
            assert all(np.shares_memory(view, net.flat) for view in _views(net))
        windows = rng.random((4, 2, 3))
        before = neural.forecaster_step(other, windows)
        pred, tape = neural.forecaster_forward(model, windows)
        grads, _ = neural.backward(tape, np.ones_like(pred))
        optim.nadam_step(optim.NadamState(lr=0.1), model.params(), grads)
        params = model.params()
        own = neural.LstmForecaster(
            neural.LstmParams(*(params["lstm." + key] for key in "WUb")),
            neural.DenseParams(params["head.weight"], params["head.bias"]),
            "sigmoid", 0.3, 2)
        moved = neural.forecaster_step(model, windows)
        assert moved.tobytes() == neural.forecaster_step(own, windows).tobytes()
        assert not np.array_equal(moved, before)
        assert neural.forecaster_step(other, windows).tobytes() == before.tobytes()


class TestFloat32:
    """A model computes in its buffer's dtype; training runs float32
    copies of float64 models."""

    def test_astype_rounds_and_widens_exactly(self):
        model = neural.init_forecaster(4, 6, "relu", 0.3, 3,
                                       np.random.default_rng(30))
        narrow = model.astype(np.float32)
        assert narrow.flat.dtype == np.float32
        assert narrow.params().layout == model.params().layout
        assert np.shares_memory(narrow.lstm.U, narrow.flat)
        assert (narrow.output_activation, narrow.dropout_rate,
                narrow.time_lag) == ("relu", 0.3, 3)
        assert narrow.flat.tobytes() == model.flat.astype(np.float32).tobytes()
        wide = narrow.astype(np.float64)
        assert wide.flat.dtype == np.float64
        assert np.array_equal(wide.flat, narrow.flat)

    @staticmethod
    def _forecaster_grads(model, windows, targets):
        pred, tape = neural.forecaster_head(
            model, lstm_tape(model, windows), np.random.default_rng(3))
        return neural._param_grads(tape, optim.mse_grad(pred, targets))

    @staticmethod
    def _branch_grads(disc, windows, targets):
        fake = targets[::-1]
        prob, tape = neural.discriminator_branches(
            disc, windows, np.stack([targets, fake]))
        d_prob = np.stack([optim.bce(prob[0], 1.0)[1],
                           optim.bce(prob[1], 0.0)[1]])
        return neural._param_grads(tape, d_prob.reshape(-1, 1))

    @pytest.mark.parametrize("kind", ["forecaster", "branches"])
    def test_float32_gradients_match_float64(self, kind):
        # the same weights and inputs, all exact in float32, run in both
        # dtypes: only the arithmetic differs
        rng = np.random.default_rng(31)
        if kind == "forecaster":
            net = neural.init_forecaster(4, 8, "sigmoid", 0.3, 3, rng)
            grads_of = self._forecaster_grads
        else:
            net = neural.init_discriminator(4, 8, rng)
            grads_of = self._branch_grads
        windows, targets = oracles.smooth_windows(rng, 8, 3, 4)
        windows = windows.astype(np.float32)
        targets = targets.astype(np.float32)
        got = {}
        for dtype in (np.float32, np.float64):
            grads, segments = grads_of(net.astype(dtype), windows,
                                       targets.astype(dtype))
            d_inputs = np.concatenate([neural._input_grads(*seg).ravel()
                                       for seg in segments])
            got[dtype] = (grads.flat, d_inputs)
        for narrow, wide in zip(got[np.float32], got[np.float64]):
            assert narrow.dtype == np.float32 and wide.dtype == np.float64
            np.testing.assert_allclose(narrow, wide, rtol=1e-4,
                                       atol=1e-4 * np.abs(wide).max())


class TestFlatLayout:
    def test_init_draws_gates_in_order_then_head(self):
        model = neural.init_forecaster(3, 5, "sigmoid", 0.0, 2,
                                       np.random.default_rng(21))
        rng = np.random.default_rng(21)
        s = 1.0 / np.sqrt(5)
        # one draw per gate, i, f, o, g, for W and then for U: the buffer
        # holds exactly these numbers, in this order
        gates = {"lstm.W": [rng.uniform(-s, s, size=(5, 3)) for _ in "ifog"],
                 "lstm.U": [rng.uniform(-s, s, size=(5, 5)) for _ in "ifog"],
                 "lstm.b": [np.full(5, 1.0 if gate == "f" else 0.0)
                            for gate in "ifog"]}
        expected = {key: np.concatenate(blocks)
                    for key, blocks in gates.items()}
        expected["head.weight"] = rng.uniform(-s, s, size=(3, 5))
        expected["head.bias"] = np.zeros(3)
        params = model.params()
        assert list(params) == list(expected)
        for key, val in expected.items():
            assert params[key].tobytes() == val.tobytes(), key
        per_gate = [block.ravel() for blocks in gates.values()
                    for block in blocks]
        assert model.flat.tobytes() == np.concatenate(
            per_gate + [expected["head.weight"].ravel(),
                        expected["head.bias"]]).tobytes()

    def test_named_views_alias_the_buffer(self):
        rng = np.random.default_rng(22)
        model = neural.init_forecaster(3, 4, "linear", 0.0, 2, rng)
        window = rng.random((1, 2, 3))
        before, _ = neural.forecaster_forward(model, window)
        flat_before = model.flat.copy()
        # row 1 of the forget gate, the second block of four rows in W
        view = model.params()["lstm.W"]
        view[4 + 1, 2] += 0.5
        after, _ = neural.forecaster_forward(model, window)
        assert not np.array_equal(before, after)
        changed = np.flatnonzero(model.flat != flat_before)
        assert changed.tolist() == [(4 + 1) * 3 + 2]
        assert model.lstm.W[4 + 1, 2] == model.flat[changed[0]]

    def test_batched_step_matches_inference_forward(self):
        rng = np.random.default_rng(23)
        model = neural.init_forecaster(4, 6, "sigmoid", 0.3, 3, rng)
        windows = rng.random((7, 3, 4))
        step = neural.forecaster_step(model, windows)
        forward, _ = neural.forecaster_forward(model, windows)
        assert step.tobytes() == forward.tobytes()
        # one (N, tau) window, as a rollout or a per-row check passes it
        single = neural.forecaster_step(model, windows[2])
        direct, _ = neural.forecaster_forward(model, windows[2:3])
        assert single.tobytes() == direct[0].tobytes()


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    model = neural.init_forecaster(3, 5, "sigmoid", 0.25, 2, rng)
    path = tmp_path / "model.romf"
    neural.save_model(path, model, seed=77)
    loaded, meta, _ = neural.load_model(path)
    assert meta["seed"] == 77
    assert loaded.output_activation == "sigmoid"
    assert loaded.dropout_rate == 0.25
    assert loaded.time_lag == 2
    for key, val in model.params().items():
        assert val.tobytes() == loaded.params()[key].tobytes()
    window = rng.random((1, 2, 3))
    a, _ = neural.forecaster_forward(model, window)
    b, _ = neural.forecaster_forward(loaded, window)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("drop, missing", [
    ("array", "'lstm.U'"), ("kind", "'kind'"), ("time_lag", "'time_lag'"),
])
def test_load_incomplete_model_is_format_error(tmp_path, drop, missing):
    rng = np.random.default_rng(16)
    model = neural.init_forecaster(3, 5, "sigmoid", 0.0, 2, rng)
    path = tmp_path / "model.romf"
    neural.save_model(path, model)
    arrays, meta = romf.read_arrays(path)
    if drop == "array":
        del arrays["lstm.U"]
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
    neural.save_model(path, neural.init_forecaster(3, 5, "sigmoid", 0.0,
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
    neural.save_model(path, neural.init_forecaster(3, 5, "sigmoid", 0.0,
                                                   2, rng))
    _rewrite_meta(path, key, value)
    with pytest.raises(romf.FormatError, match=message):
        neural.load_model(path)


# one array of the wrong shape each, for a model with input 3, hidden 5
# and output 3; H is read from U's columns
@pytest.mark.parametrize("key, shape", [
    ("lstm.W", (19, 3)),  # rows other than 4H
    ("lstm.U", (19, 5)),
    ("lstm.U", (20, 4)),  # H = 4, which W and b no longer fit
    ("lstm.b", (20, 1)),
    ("head.weight", (3, 4)),  # head reads another hidden size
    ("head.bias", (2,)),
    ("lstm.W", ()),
    ("lstm.b", (19,)),
    ("lstm.W", (20, 4)),  # the forecaster's input is not its output
])
def test_load_model_wrong_shape_is_format_error(tmp_path, key, shape):
    path = tmp_path / "model.romf"
    neural.save_model(path, neural.init_forecaster(
        3, 5, "sigmoid", 0.0, 2, np.random.default_rng(20)))
    arrays, meta = romf.read_arrays(path)
    arrays[key] = np.zeros(shape)
    romf.write_arrays(path, arrays, meta)
    with pytest.raises(romf.FormatError, match="model.romf") as info:
        neural.load_model(path)
    assert "shape" in str(info.value) or "2-D" in str(info.value)


def test_per_gate_file_is_format_error(tmp_path):
    # the layout before the fused blocks were stored: twelve gate arrays
    model = neural.init_forecaster(3, 5, "sigmoid", 0.0, 2,
                                   np.random.default_rng(25))
    arrays = {}
    for kind, fused in zip("wub", (model.lstm.W, model.lstm.U, model.lstm.b)):
        for gate, block in zip("ifog", np.split(fused, 4)):
            arrays[f"lstm.{kind}_{gate}"] = block
    arrays["head.weight"] = model.head.weight
    arrays["head.bias"] = model.head.bias
    path = tmp_path / "model.romf"
    romf.write_arrays(path, arrays, {
        "kind": "forecaster", "seed": None, "output_activation": "sigmoid",
        "dropout_rate": 0.0, "time_lag": 2})
    with pytest.raises(romf.FormatError, match="missing array 'lstm.W'"):
        neural.load_model(path)


def test_discriminator_file_is_format_error(tmp_path):
    # the record that train --adversarial once wrote beside its model
    disc = neural.init_discriminator(3, 4, np.random.default_rng(19))
    path = tmp_path / "m.disc.romf"
    romf.write_arrays(path, disc.params(), {"kind": "discriminator",
                                            "seed": 6})
    with pytest.raises(romf.FormatError,
                       match="m.disc.romf: a discriminator, not a forecaster"):
        neural.load_model(path)
