import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romcast import optim
from romcast.errors import LabelOutOfRange, ShapeMismatch

from oracles import nadam_scalar


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
    def test_half_prediction(self):
        assert optim.bce(0.5, 1.0)[0] == pytest.approx(math.log(2), rel=1e-12)

    def test_near_one_prediction(self):
        assert optim.bce(1.0 - 1e-7, 1.0)[0] < 1.1e-7

    def test_clamped_zero_prediction(self):
        assert optim.bce(0.0, 1.0)[0] == pytest.approx(-math.log(1e-7), rel=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            optim.bce(0.5, 0.3)

    @settings(deadline=None, max_examples=50)
    @given(
        st.floats(1e-7, 1 - 1e-7, allow_nan=False),
        st.floats(1e-7, 1 - 1e-7, allow_nan=False),
    )
    def test_strictly_decreasing_for_label_one(self, a, b):
        # strict only where -log of the clamped inputs differs in float64:
        # inputs an ulp apart can round to the same loss
        lo, hi = sorted((a, b))
        if lo == hi:
            return
        clamped = np.clip([lo, hi], optim.BCE_CLAMP, 1.0 - optim.BCE_CLAMP)
        log_lo, log_hi = -np.log(clamped)
        if log_lo != log_hi:
            assert optim.bce(lo, 1.0)[0] > optim.bce(hi, 1.0)[0]
        else:
            assert optim.bce(lo, 1.0)[0] >= optim.bce(hi, 1.0)[0]

    @pytest.mark.parametrize("label", [0.0, 1.0, 0, 1, True])
    def test_matches_separate_loss_and_gradient(self, label):
        # the separate loss and gradient formulas, over both clamp zones,
        # their edges and the inside
        eps = optim.BCE_CLAMP
        pred = np.concatenate([
            [0.0, 1e-12, eps, np.nextafter(eps, 1.0), 0.5,
             np.nextafter(1.0 - eps, 0.0), 1.0 - eps, 1.0 - 1e-12, 1.0],
            np.random.default_rng(2).random(23),
        ])
        p = np.clip(pred, eps, 1.0 - eps)
        want_loss = float(np.mean(-(label * np.log(p)
                                    + (1.0 - label) * np.log1p(-p))))
        inside = (pred > eps) & (pred < 1.0 - eps)
        want_grad = np.where(inside, (p - label) / (p * (1.0 - p)), 0.0)
        loss, grad = optim.bce(pred, label)
        assert loss == want_loss
        assert grad.tobytes() == (want_grad / pred.size).tobytes()
        assert np.all(grad[[0, 1, 2, 6, 7, 8]] == 0.0)

    @pytest.mark.parametrize("label", [0.5, 2.0, -1, np.nan,
                                       np.array([1.0, 0.0]), "1"])
    def test_label_other_than_literal_zero_or_one(self, label):
        with pytest.raises(LabelOutOfRange):
            optim.bce(np.array([0.2, 0.7]), label)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        pred = rng.uniform(0.05, 0.95, size=8)
        for label in (0.0, 1.0):
            grad = optim.bce(pred, label)[1]
            eps = 1e-6
            for idx in (0, 3, 7):
                orig = pred[idx]
                pred[idx] = orig + eps
                up = optim.bce(pred, label)[0]
                pred[idx] = orig - eps
                down = optim.bce(pred, label)[0]
                pred[idx] = orig
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
