import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roer import losses, nn
from roer.losses import (
    extreme_v_loss,
    gradient_penalty,
    td_error,
    weighted_huber_critic_loss,
)
from roer.nn import NetworkSpec, ParameterSet
from roer.schemes import ROER_DIVERGENCES, InvalidInputError

KL = ROER_DIVERGENCES["roer"]
PEARSON = ROER_DIVERGENCES["roer_chi2"]


def rel_err(a, b):
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    return np.max(np.abs(a - b) / np.maximum(1e-6, np.abs(a) + np.abs(b)))


def fd_vector_grad(f, x, h=1e-5):
    x = np.array(x, dtype=np.float64)
    out = np.zeros_like(x)
    for i in range(len(x)):
        orig = x[i]
        x[i] = orig + h
        up = f(x)
        x[i] = orig - h
        down = f(x)
        x[i] = orig
        out[i] = (up - down) / (2.0 * h)
    return out


class TestTdError:
    def test_arithmetic(self):
        d = td_error(1.0, 0.99, 10.0, 10.0, False)
        assert d == pytest.approx([0.9])

    def test_terminal_masks_bootstrap(self):
        d = td_error(np.array([2.0]), 0.9, np.array([100.0]), np.array([5.0]),
                     np.array([True]))
        assert d == pytest.approx([-3.0])

    def test_constant_reward_fixed_point(self):
        gamma = 0.9
        v = 1.0 / (1.0 - gamma)
        d = td_error(1.0, gamma, v, v, False)
        assert d == pytest.approx([0.0], abs=1e-12)

    @pytest.mark.parametrize("v_next, v_curr", [(math.nan, 0.0), (0.0, math.inf)])
    def test_nonfinite_value_estimate_rejected(self, v_next, v_curr):
        # the one check V meets before its TD errors become priorities; a
        # FloatingPointError, the one non-finite signal SacAgent.update aborts on
        with pytest.raises(FloatingPointError, match="non-finite"):
            td_error(1.0, 0.9, v_next, v_curr, False)


class TestExtremeVLoss:
    def test_zero_residuals(self):
        for beta in (0.4, 1.0, 4.0):
            out = extreme_v_loss(np.zeros(5), beta, 7.0, KL)
            assert out.value == pytest.approx(0.0, abs=1e-15)
            assert np.allclose(out.grad, 0.0)

    def test_single_residual_analytic(self):
        for beta in (0.5, 1.0, 2.0):
            out = extreme_v_loss(np.array([beta * math.log(2.0)]), beta, 7.0, KL)
            assert out.value == pytest.approx(1.0 - math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("beta", [0.4, 1.0, 4.0])
    def test_gradient_matches_finite_differences(self, beta):
        rng = np.random.default_rng(3)
        r = rng.normal(scale=2.0, size=16)

        def value_of_v(v):
            # residual depends on the estimate with a minus sign
            return extreme_v_loss(r - v, beta, 7.0, KL).value

        v0 = np.zeros(16)
        fd = fd_vector_grad(value_of_v, v0)
        analytic = -extreme_v_loss(r, beta, 7.0, KL).grad
        assert rel_err(analytic, fd) <= 1e-4

    def test_exponent_clip_keeps_loss_finite(self):
        clip = 7.0
        out = extreme_v_loss(np.array([(clip + 5.0) * 1.0]), 1.0, clip, KL)
        assert np.isfinite(out.value)
        assert out.value == pytest.approx(math.exp(clip) - clip - 1.0)
        assert out.clipped == 1
        assert out.grad[0] == 0.0  # frozen inside the clip region

    @pytest.mark.parametrize("beta", [0.4, 1.0, 4.0])
    def test_nonnegative_with_equality_only_at_zero(self, beta):
        rng = np.random.default_rng(8)
        for _ in range(200):
            r = rng.normal(scale=3.0, size=8)
            out = extreme_v_loss(r, beta, 50.0, KL)
            assert out.value >= 0.0
            if np.any(np.abs(r) > 1e-8):
                assert out.value > 0.0


class TestPearsonVLoss:
    """The value loss of roer_chi2: mean(f*(z) - z) = mean(z^2) / 2."""

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        r = rng.normal(size=12)
        fd = fd_vector_grad(lambda q: extreme_v_loss(q, 2.0, 7.0, PEARSON).value,
                            r.copy())
        assert rel_err(extreme_v_loss(r, 2.0, 7.0, PEARSON).grad, fd) <= 1e-4

    def test_squared_residual_with_the_upper_clip(self):
        out = extreme_v_loss(np.array([-2.0, 1.0, 9.0]), 0.5, 7.0, PEARSON)
        assert out.value == pytest.approx((16.0 + 4.0 + 49.0) / 2.0 / 3.0, rel=1e-14)
        assert out.grad.tolist() == pytest.approx([-4.0 / 1.5, 2.0 / 1.5, 0.0],
                                                  rel=1e-14)
        assert out.clipped == 1


class TestValueFixedPoint:
    @pytest.mark.parametrize("div", ROER_DIVERGENCES.values(),
                             ids=ROER_DIVERGENCES.keys())
    def test_summed_gradient_vanishes_at_the_unit_ratio(self, div):
        # at V with E[f*'((Q - V) / beta)] = 1 the gradient w.r.t. V is zero:
        # the ratio f*'(delta / beta) averages to 1 over the batch
        q = np.random.default_rng(6).normal(size=256)
        beta = 0.7
        v = (beta * math.log(np.mean(np.exp(q / beta))) if div is KL
             else float(np.mean(q)))
        grad = extreme_v_loss(q - v, beta, math.inf, div).grad
        assert abs(np.sum(grad)) <= 1e-12
        assert np.mean(div.f_star_prime((q - v) / beta)) == pytest.approx(1.0, abs=1e-12)


class TestWeightedHuber:
    def test_quadratic_branch(self):
        out = weighted_huber_critic_loss([0.0], [0.5], [1.0], k=1.0)
        assert out.value == pytest.approx(0.125)

    def test_linear_branch(self):
        out = weighted_huber_critic_loss([0.0], [2.0], [1.0], k=1.0)
        assert out.value == pytest.approx(1.5)

    def test_weight_linearity(self):
        one = weighted_huber_critic_loss([0.0], [0.7], [1.0], k=1.0)
        two = weighted_huber_critic_loss([0.0], [0.7], [2.0], k=1.0)
        assert two.value == pytest.approx(2.0 * one.value)
        assert two.grad == pytest.approx(2.0 * one.grad)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        t = rng.normal(scale=2.0, size=16)
        w = rng.uniform(0.5, 2.0, size=16)
        q0 = rng.normal(size=16)
        fd = fd_vector_grad(
            lambda q: weighted_huber_critic_loss(q, t, w, k=1.0).value, q0
        )
        out = weighted_huber_critic_loss(q0, t, w, k=1.0)
        assert rel_err(out.grad, fd) <= 1e-4

    def test_c1_at_boundary(self):
        k = 1.0
        for sign in (1.0, -1.0):
            lo = weighted_huber_critic_loss([0.0], [sign * (k - 1e-9)], [1.0], k=k)
            hi = weighted_huber_critic_loss([0.0], [sign * (k + 1e-9)], [1.0], k=k)
            assert abs(lo.value - hi.value) < 1e-8
            assert abs(lo.grad[0] - hi.grad[0]) < 1e-8

    # 1e12: above every finite residual here
    @pytest.mark.parametrize("k", [1.0, pytest.param(1e12, id="1e12")])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_prediction_gives_nonfinite_loss(self, bad, k):
        # no check of its own: SacAgent.update's finite check on the loss
        # aborts the step
        out = weighted_huber_critic_loss([0.5, bad], [0.0, 0.0], [1.0, 2.0], k=k)
        assert not math.isfinite(out.value)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            weighted_huber_critic_loss([0.0, 1.0], [1.0], [1.0])

    def test_mse_mode_is_large_k_limit(self):
        # a k above every |residual| gives the mean-square loss bit for bit
        rng = np.random.default_rng(6)
        q = rng.normal(size=8)
        t = rng.normal(size=8)
        w = rng.uniform(0.5, 2.0, size=8)
        x = t - q
        big = weighted_huber_critic_loss(q, t, w, k=1e12)
        assert big.value == float(np.add.reduce(w * (0.5 * x * x)) / 8)
        assert big.grad.tobytes() == (-w * x / 8).tobytes()


class TestGradientPenalty:
    def linear_critic(self, c):
        c = np.asarray(c, dtype=np.float64)
        return ParameterSet([c.reshape(1, -1).copy()], [np.zeros(1)])

    def test_inactive_below_unit_norm(self):
        params = self.linear_critic([0.3, 0.4])  # norm 0.5
        x = np.zeros((3, 2))
        out = gradient_penalty(params, x, nn.forward_cache(params, x)[1])
        assert out.value == 0.0
        assert not out.param_grads.flat.any()

    def test_norm_two_gives_one(self):
        params = self.linear_critic([2.0, 0.0])
        x = np.zeros((3, 2))
        out = gradient_penalty(params, x, nn.forward_cache(params, x)[1])
        assert out.value == pytest.approx(1.0)

    def test_linear_critic_norm_three(self):
        params = self.linear_critic([3.0, 0.0, 0.0])
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 3))
        out = gradient_penalty(params, x, nn.forward_cache(params, x)[1])
        assert out.value == pytest.approx(4.0)

    def test_caller_cache_skips_forward_pass(self, monkeypatch):
        params = nn.init(NetworkSpec(3, (4,), 1), 0)
        x = np.random.default_rng(0).normal(size=(5, 3))
        _, cache = nn.forward_cache(params, x)

        def no_forward(*args):
            raise AssertionError("forward pass recomputed")

        monkeypatch.setattr(nn, "forward_cache", no_forward)
        gradient_penalty(params, x, cache)

    def test_param_gradients_match_finite_differences(self):
        spec = NetworkSpec(4, (8, 6), 1)
        rng = np.random.default_rng(21)
        params = nn.init(spec, 21)
        # scale weights up so the hinge is active for every sample
        for w in params.weights:
            w *= 3.0
        x = rng.normal(size=(6, 4))

        def value():
            return gradient_penalty(params, x, nn.forward_cache(params, x)[1]).value

        analytic = gradient_penalty(params, x, nn.forward_cache(params, x)[1]).param_grads
        h = 1e-6
        for target, store in zip(params.weights, analytic.weights):
            it = np.nditer(target, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = target[idx]
                target[idx] = orig + h
                up = value()
                target[idx] = orig - h
                down = value()
                target[idx] = orig
                fd = (up - down) / (2.0 * h)
                assert abs(fd - store[idx]) / max(1e-6, abs(fd) + abs(store[idx])) <= 1e-4
