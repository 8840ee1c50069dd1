import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nsn.errors import ConfigError, ShapeError
from nsn import optim


def m(value, shape=(1, 1)):
    return np.full(shape, value, dtype=np.float32)


class TestMomentumStandard:
    def test_first_step(self):
        got = optim.momentum_standard(m(0.0), m(1.0), 0.9)
        np.testing.assert_allclose(got, 1.0)

    def test_alpha_zero_passes_gradient(self):
        got = optim.momentum_standard(m(0.5), m(2.0), 0.0)
        np.testing.assert_allclose(got, 2.0)

    def test_two_unit_steps_accumulate(self):
        v = optim.momentum_standard(m(0.0), m(1.0), 0.9)
        v = optim.momentum_standard(v, m(1.0), 0.9)
        np.testing.assert_allclose(v, 1.9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            optim.momentum_standard(m(0, (2, 2)), m(0, (2, 3)), 0.9)


class TestMomentumEma:
    def test_first_step(self):
        got = optim.momentum_nsn(m(0.0), m(1.0), 0.9)
        np.testing.assert_allclose(got, 0.1, rtol=1e-6)

    def test_alpha_zero_passes_gradient(self):
        got = optim.momentum_nsn(m(0.0), m(3.0), 0.0)
        np.testing.assert_allclose(got, 3.0)

    def test_fixed_point(self):
        got = optim.momentum_nsn(m(1.0), m(1.0), 0.9)
        np.testing.assert_allclose(got, 1.0, rtol=1e-6)

    @settings(deadline=None, max_examples=50)
    @given(v=arrays(np.float32, (3, 2), elements=st.floats(-5, 5, width=32)),
           g=arrays(np.float32, (3, 2), elements=st.floats(-5, 5, width=32)),
           alpha=st.floats(0.0, 0.99))
    def test_convex_combination_stays_bounded(self, v, g, alpha):
        out = optim.momentum_nsn(v, g, alpha)
        bound = max(np.max(np.abs(v)), np.max(np.abs(g)))
        assert np.max(np.abs(out)) <= bound * (1 + 1e-6)


class TestApplyUpdate:
    def test_zero_velocity_is_noop(self):
        w = m(0.7, (2, 3))
        assert np.array_equal(optim.apply_update(w, np.zeros_like(w), 0.3), w)

    def test_hand_case(self):
        got = optim.apply_update(m(1.0), m(0.1), 0.3)
        np.testing.assert_allclose(got, 0.97)

    def test_linearity(self):
        w, v = m(1.0, (2, 2)), m(0.25, (2, 2))
        twice = optim.apply_update(optim.apply_update(w, v, 0.1), v, 0.1)
        once = optim.apply_update(w, 2 * v, 0.1)
        np.testing.assert_allclose(twice, once, rtol=1e-6)


class TestL2Gradient:
    def test_zero_lambda(self):
        assert np.all(optim.l2_gradient(0.0, m(5.0, (3, 3))) == 0)

    def test_experiment_scale_value(self):
        got = optim.l2_gradient(9e-5, m(1.0))
        np.testing.assert_allclose(got, 9e-5, rtol=1e-6)

    def test_matches_finite_difference_of_penalty(self):
        # d/dW of (lam/2)||W||^2 at W
        lam = 0.01
        w = np.array([[0.5, -1.5]], np.float64)
        eps = 1e-6
        fd = np.zeros_like(w)
        for i in range(2):
            wp, wm = w.copy(), w.copy()
            wp[0, i] += eps
            wm[0, i] -= eps
            fd[0, i] = ((lam / 2 * np.sum(wp ** 2))
                        - (lam / 2 * np.sum(wm ** 2))) / (2 * eps)
        np.testing.assert_allclose(optim.l2_gradient(lam, w), fd, atol=1e-9)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            optim.l2_gradient(-1e-5, m(1.0))


class TestSchedule:
    def test_protocol_staircase(self):
        sched = optim.Schedule()
        assert optim.lr_at(sched, 0) == pytest.approx(0.3)
        assert optim.lr_at(sched, 199) == pytest.approx(0.3)
        assert optim.lr_at(sched, 200) == pytest.approx(0.1)
        assert optim.lr_at(sched, 400) == pytest.approx(0.1 / 3)

    def test_non_increasing_piecewise_constant(self):
        sched = optim.Schedule(base_lr=0.3, decay_every=5)
        values = [optim.lr_at(sched, e) for e in range(30)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        changes = [e for e in range(1, 30)
                   if values[e] != values[e - 1]]
        assert changes == [5, 10, 15, 20, 25]

    def test_validation(self):
        with pytest.raises(ConfigError):
            optim.Schedule(base_lr=0.0)
        with pytest.raises(ConfigError):
            optim.Schedule(alpha=1.0)
        with pytest.raises(ConfigError):
            optim.lr_at(optim.Schedule(), -1)


class TestFormatEquivalence:
    def test_ema_at_lr_tracks_standard_at_scaled_lr(self):
        # identical trajectories on a quadratic: V_ema = (1-alpha) * V_std
        rng = np.random.default_rng(0)
        w_ema = rng.uniform(-1, 1, (4, 4)).astype(np.float32)
        w_std = w_ema.copy()
        v_ema, v_std = np.zeros_like(w_ema), np.zeros_like(w_std)
        alpha, lr = 0.9, 0.05
        for _ in range(200):
            v_ema = optim.momentum_nsn(v_ema, w_ema, alpha)
            w_ema = optim.apply_update(w_ema, v_ema, lr)
            v_std = optim.momentum_standard(v_std, w_std, alpha)
            w_std = optim.apply_update(w_std, v_std, lr * (1 - alpha))
            assert np.max(np.abs(w_ema - w_std)) <= 1e-6



bounded32 = arrays(np.float32, (3, 4), elements=st.floats(-1e3, 1e3,
                                                          width=32))


FORMULAS = {
    "momentum_standard": lambda v, g, alpha: alpha * v + g,
    "momentum_nsn": lambda v, g, alpha: alpha * v + (1 - alpha) * g,
    "apply_update": lambda w, v, lr: w - lr * v,
}


class TestInPlaceForms:
    """Each rule runs its formula's float operations in the order the
    written expression does, so its result is bitwise that expression's,
    whether ``out`` is absent, a fresh array or the first operand, and
    with or without a scratch array."""

    @pytest.mark.parametrize("name, takes_scratch", [
        ("momentum_standard", False), ("momentum_nsn", True),
        ("apply_update", True)])
    @settings(deadline=None, max_examples=40)
    @given(a=bounded32, b=bounded32, scalar=st.floats(0.0, 0.99),
           out_kind=st.sampled_from(["none", "fresh", "in place"]),
           with_scratch=st.booleans())
    def test_out_form_is_bitwise_the_pure_form(self, name, takes_scratch, a,
                                               b, scalar, out_kind,
                                               with_scratch):
        want = FORMULAS[name](a, b, scalar)
        out = {"none": None, "fresh": np.empty_like(a),
               "in place": a}[out_kind]
        extra = ({"scratch": np.empty_like(a)}
                 if takes_scratch and with_scratch else {})
        got = getattr(optim, name)(a, b, scalar, out=out, **extra)
        assert out is None or got is out
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(deadline=None, max_examples=40)
    @given(w=bounded32, lam=st.floats(0.0, 1.0), in_place=st.booleans())
    def test_l2_out_form_is_bitwise_the_pure_form(self, w, lam, in_place):
        want = lam * w
        out = w if in_place else np.empty_like(w)
        got = optim.l2_gradient(lam, w, out=out)
        assert got is out and got.tobytes() == want.tobytes()
