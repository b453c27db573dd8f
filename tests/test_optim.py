import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romcast import neural, optim
from romcast.errors import LabelOutOfRange, ShapeMismatch

import oracles
from oracles import ld_bce, nadam_scalar


class TestMse:
    def test_equal_inputs_zero(self):
        assert optim.mse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_forced_arithmetic(self):
        assert optim.mse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 12.5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            optim.mse(np.zeros(3), np.zeros(4))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        pred = rng.random((4, 3))
        target = rng.random((4, 3))
        grad = optim.mse_grad(pred, target)
        eps = 1e-6
        for idx in [(0, 0), (1, 2), (3, 1)]:
            orig = pred[idx]
            pred[idx] = orig + eps
            up = optim.mse(pred, target)
            pred[idx] = orig - eps
            down = optim.mse(pred, target)
            pred[idx] = orig
            fd = (up - down) / (2 * eps)
            assert grad[idx] == pytest.approx(fd, abs=1e-9)


class TestBce:
    """``bce`` takes the discriminator's logits z."""

    def test_half_prediction(self):
        # z = 0 is the prediction 1/2
        assert optim.bce(0.0, 1.0)[0] == pytest.approx(math.log(2), rel=1e-12)

    def test_near_one_prediction(self):
        # the logit of the prediction 1 - 1e-7
        assert optim.bce(math.log((1.0 - 1e-7) / 1e-7), 1.0)[0] < 1.1e-7

    def test_saturated_discriminator_keeps_generator_gradient(self):
        # D sure that every prediction is fake: z near -30, where a
        # probability clamped to [1e-7, 1 - 1e-7] had no gradient at all
        rng = np.random.default_rng(7)
        disc = neural.init_discriminator(3, 8, rng).astype(np.float32)
        windows, targets = oracles.smooth_windows(rng, 16, 2, 3)
        windows = windows.astype(np.float32)
        fake = (targets + 0.3).astype(np.float32)
        logits, _ = neural.discriminator_branches(disc, windows, fake[None])
        disc.head.bias[:] = -30.0 - logits.mean()
        logits, tape = neural.discriminator_branches(disc, windows, fake[None])
        assert np.all(np.abs(logits + 30.0) < 1.0)
        assert np.all(neural.sigmoid(logits.astype(np.float64)) < 1e-7)
        loss, d_logits = optim.bce(logits[0], 1.0)
        assert loss == pytest.approx(-float(logits.mean()), rel=1e-3)
        assert np.all(d_logits == np.float32(-1.0 / 16))
        grad = neural.candidate_grad(tape, d_logits[None])[0]
        assert grad.dtype == np.float32 and grad.shape == fake.shape
        assert np.all(np.isfinite(grad))
        assert np.all(np.abs(grad).sum(axis=1) > 0.0)

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            optim.bce(0.5, 0.3)

    @settings(deadline=None, max_examples=50)
    @given(
        st.floats(-50.0, 50.0, allow_nan=False),
        st.floats(-50.0, 50.0, allow_nan=False),
    )
    def test_strictly_decreasing_for_label_one(self, a, b):
        # strict only where softplus(-z) differs in float64: logits an
        # ulp apart can round to the same loss
        lo, hi = sorted((a, b))
        if lo == hi:
            return
        loss_lo, loss_hi = np.logaddexp(0.0, [-lo, -hi])
        if loss_lo != loss_hi:
            assert optim.bce(lo, 1.0)[0] > optim.bce(hi, 1.0)[0]
        else:
            assert optim.bce(lo, 1.0)[0] >= optim.bce(hi, 1.0)[0]

    @pytest.mark.parametrize("label", [0.0, 1.0, 0, 1, True])
    def test_matches_separate_loss_and_gradient(self, label):
        # the longdouble loss and gradient (sigmoid(z) - y) / n, over
        # both saturated ends, the old clamp's edges and the inside
        edge = math.log((1.0 - 1e-7) / 1e-7)
        z = np.concatenate([
            [-800.0, -100.0, -30.0, -edge, -1e-300, 0.0, 1e-300, edge, 30.0,
             100.0, 800.0],
            np.random.default_rng(2).uniform(-20.0, 20.0, 23),
        ])
        with warnings.catch_warnings(), np.errstate(over="raise",
                                                    invalid="raise",
                                                    divide="raise"):
            warnings.simplefilter("error")
            loss, grad = optim.bce(z, label)
        assert loss == pytest.approx(float(ld_bce(z, label)), rel=1e-15)
        want = (oracles.ld_sigmoid(z.astype(oracles.LD)) - label) / z.size
        # tanh to within an ulp of 1
        assert np.max(np.abs(grad - want)) <= np.finfo(float).eps / z.size
        # saturated the wrong way, the gradient is the whole -+1 / n,
        # where the clamp gave 0
        wrong = z <= -30.0 if label else z >= 30.0
        assert wrong.sum() == 3
        assert np.all(np.abs(grad[wrong] * z.size - (-1.0 if label else 1.0))
                      <= 1e-12)

    @settings(deadline=None, max_examples=60)
    @given(
        st.sampled_from([np.float32, np.float64]),
        st.sampled_from([0, 1]),
        st.lists(st.floats(-60.0, 60.0, allow_nan=False), min_size=1,
                 max_size=12),
    )
    def test_matches_longdouble_softplus_and_its_finite_difference(
            self, dtype, label, values):
        # the two ends a dtype's exp would overflow at ride along: the
        # loss and the gradient must come out with no warning
        end = 800.0 if dtype == np.float64 else 100.0
        z = np.array(values + [-end, end], dtype=dtype)
        with warnings.catch_warnings(), np.errstate(over="raise",
                                                    invalid="raise",
                                                    divide="raise"):
            warnings.simplefilter("error")
            loss, grad = optim.bce(z, label)
        assert grad.dtype == dtype
        # a sum of n rounded terms, and tanh to within a few ulps of 1
        ulp = np.finfo(dtype).eps
        assert loss == pytest.approx(float(ld_bce(z, label)),
                                     rel=z.size * ulp)
        zl = z.astype(oracles.LD)
        exact = (oracles.ld_sigmoid(zl) - label) / z.size
        assert np.max(np.abs(grad - exact)) <= 4 * ulp / z.size
        # central differences of the longdouble loss, one logit at a time
        eps = oracles.LD(1e-6)
        for i in range(z.size):
            up, down = zl.copy(), zl.copy()
            up[i] += eps
            down[i] -= eps
            fd = (ld_bce(up, label) - ld_bce(down, label)) / (2 * eps)
            assert grad[i] == pytest.approx(float(fd), rel=1e-6,
                                            abs=(4 * ulp + 1e-9) / z.size)

    @pytest.mark.parametrize("label", [0.5, 2.0, -1, np.nan,
                                       np.array([1.0, 0.0]), "1"])
    def test_label_other_than_literal_zero_or_one(self, label):
        with pytest.raises(LabelOutOfRange):
            optim.bce(np.array([0.2, 0.7]), label)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(-4.0, 4.0, size=8)
        for label in (0.0, 1.0):
            grad = optim.bce(z, label)[1]
            eps = 1e-6
            for idx in (0, 3, 7):
                orig = z[idx]
                z[idx] = orig + eps
                up = optim.bce(z, label)[0]
                z[idx] = orig - eps
                down = optim.bce(z, label)[0]
                z[idx] = orig
                fd = (up - down) / (2 * eps)
                assert grad[idx] == pytest.approx(fd, abs=1e-7)


def flat(**arrays):
    return optim.FlatParams.pack(arrays)


class TestNadam:
    def test_zero_lr_leaves_params(self):
        state = optim.NadamState(lr=0.0)
        params = flat(w=np.array([1.0, -2.0]))
        grads = flat(w=np.array([0.5, 0.5]))
        optim.nadam_step(state, params, grads)
        assert np.array_equal(params["w"], [1.0, -2.0])

    def test_zero_grad_fresh_state_is_identity(self):
        state = optim.NadamState()
        params = flat(w=np.array([1.0, -2.0]))
        optim.nadam_step(state, params, flat(w=np.zeros(2)))
        assert np.array_equal(params["w"], [1.0, -2.0])
        assert state.t == 1

    def test_single_step_matches_scalar_oracle(self):
        # f(theta) = theta^2 / 2 from theta = 1, common hyperparameters
        state = optim.NadamState(lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)
        params = flat(t=np.array([1.0]))
        optim.nadam_step(state, params, flat(t=np.array([1.0])))
        expected, _, _, _ = nadam_scalar(1.0, 1.0, 0.0, 0.0, 0, 1e-3, 0.9,
                                         0.999, 1e-8)
        assert params["t"][0] == pytest.approx(expected, abs=1e-12)

    def test_many_random_triples_match_scalar_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            theta, grad = rng.standard_normal(2)
            m, v = rng.standard_normal(), abs(rng.standard_normal())
            t_prev = int(rng.integers(0, 50))
            lr = 10.0 ** rng.uniform(-4, -1)
            state = optim.NadamState(lr=lr, beta1=0.9, beta2=0.999, eps=1e-8,
                                     t=t_prev, m=np.array([m]),
                                     v=np.array([v]))
            params = flat(x=np.array([theta]))
            optim.nadam_step(state, params, flat(x=np.array([grad])))
            expected, em, ev, et = nadam_scalar(theta, grad, m, v, t_prev, lr,
                                                0.9, 0.999, 1e-8)
            assert params["x"][0] == pytest.approx(expected, abs=1e-12)
            assert state.m[0] == pytest.approx(em, abs=1e-15)
            assert state.v[0] == pytest.approx(ev, abs=1e-15)
            assert state.t == et

    def test_deterministic_updates(self):
        def run():
            state = optim.NadamState(lr=0.01)
            params = flat(w=np.linspace(-1, 1, 5))
            for step in range(20):
                grads = flat(w=np.sin(params["w"] + step))
                optim.nadam_step(state, params, grads)
            return params["w"].tobytes()

        assert run() == run()

    def test_descent_on_convex_quadratic(self):
        state = optim.NadamState(lr=0.05)
        params = flat(t=np.array([1.0]))
        for _ in range(200):
            optim.nadam_step(state, params, flat(t=params["t"]))
        initial_loss = 0.5
        final_loss = 0.5 * params["t"][0] ** 2
        assert final_loss <= 0.01 * initial_loss

    def test_gradient_shape_mismatch(self):
        state = optim.NadamState()
        with pytest.raises(ShapeMismatch):
            optim.nadam_step(state, flat(w=np.zeros(3)), flat(w=np.zeros(4)))


class TestClipGlobalNorm:
    def test_noop_below_cap(self):
        grads = flat(a=np.array([3.0]), b=np.array([4.0]))
        optim.clip_global_norm(grads, 10.0)
        assert grads["a"][0] == 3.0 and grads["b"][0] == 4.0

    def test_scales_to_cap(self):
        grads = flat(a=np.array([3.0]), b=np.array([4.0]))
        optim.clip_global_norm(grads, 1.0)
        total = math.sqrt(grads["a"][0] ** 2 + grads["b"][0] ** 2)
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_zero_cap_disables(self):
        grads = flat(a=np.array([3000.0]))
        optim.clip_global_norm(grads, 0.0)
        assert grads["a"][0] == 3000.0
