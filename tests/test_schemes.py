import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from roer.schemes import (
    ROER_DIVERGENCES,
    ConfigError,
    LaberConfig,
    PerConfig,
    RoerConfig,
    laber_select,
    per_priority,
    roer_update,
)

PEARSON = ROER_DIVERGENCES["roer_chi2"]


def cfg(**kw):
    base = dict(lam=0.5, beta=1.0, grad_clip=7.0, max_exp_clip=1e12,
                min_priority_clip=0.0)
    base.update(kw)
    return RoerConfig(**base)


class TestRoerUpdate:
    def test_zero_td_fixed_point_bitwise(self):
        for lam in (0.01, 0.3, 1.0):
            d = np.array([1.0, 0.123456789, 7.25])
            out = roer_update(np.zeros(3), d, cfg(lam=lam))
            assert np.array_equal(out, d)  # exact, including lam=0.3

    def test_single_element_unchanged_bitwise(self):
        for delta in (-3.7, 0.0, 12.1):
            out = roer_update(np.array([delta]), np.array([2.0]), cfg(lam=1.0))
            assert out[0] == 2.0

    def test_two_element_analytic(self):
        # delta/beta = {0, ln 2}: w = {1, 2}, mean 1.5, factors {2/3, 4/3}
        out = roer_update(np.array([0.0, math.log(2.0)]), np.ones(2), cfg(lam=1.0))
        assert out == pytest.approx([2 / 3, 4 / 3])

    def test_max_exp_clip_applied_before_normalization(self):
        c = cfg(lam=1.0, max_exp_clip=100.0)
        out = roer_update(np.array([math.log(200.0), 0.0]), np.ones(2), c)
        # clipped w = {100, 1}, mean 50.5
        assert out == pytest.approx([100 / 50.5, 1 / 50.5])

    def test_lower_clip_at_one(self):
        c = cfg(lam=1.0)
        out = roer_update(np.array([-5.0, 0.0]), np.ones(2), c)
        # both weights clip to 1 from below -> mean 1 -> unchanged
        assert np.array_equal(out, np.ones(2))

    def test_min_priority_floor_applied_last(self):
        c = cfg(lam=1.0, min_priority_clip=0.9)
        out = roer_update(np.array([0.0, math.log(2.0)]), np.ones(2), c)
        assert out == pytest.approx([0.9, 4 / 3])

    def test_order_preservation(self):
        rng = np.random.default_rng(0)
        c = cfg(lam=0.37, max_exp_clip=1e15)
        for _ in range(50):
            delta = rng.normal(size=8)
            d = rng.uniform(0.5, 2.0, size=8)
            ratios = roer_update(delta, d, c) / d
            order = np.argsort(delta)
            assert np.all(np.diff(ratios[order]) > -1e-12)

    def test_boundedness_with_clips(self):
        c = cfg(lam=0.5, max_exp_clip=50.0, min_priority_clip=0.1)
        rng = np.random.default_rng(1)
        delta = rng.normal(scale=100.0, size=64)
        d = rng.uniform(0.1, 10.0, size=64)
        out = roer_update(delta, d, c)
        assert np.all(np.isfinite(out))
        assert np.all(out >= 0.1)
        w_max_bound = (0.5 * 50.0 / 1.0 + 0.5) * d.max()
        assert np.all(out <= w_max_bound)

    def test_lambda_limits(self):
        delta = np.array([0.0, 1.0, -1.0])
        d = np.array([1.0, 2.0, 3.0])
        tiny = roer_update(delta, d, cfg(lam=1e-12))
        assert tiny == pytest.approx(d, rel=1e-10)
        # lam = 1 is the pure multiplicative form d' = w * d
        full = roer_update(delta, d, cfg(lam=1.0))
        w = np.exp(delta)
        w = np.maximum(w, 1.0)
        w /= w.mean()
        assert full == pytest.approx(w * d)

    def test_input_validation(self):
        with pytest.raises(ConfigError):
            RoerConfig(lam=0.0)
        with pytest.raises(ConfigError):
            RoerConfig(beta=-1.0)
        with pytest.raises(ConfigError):
            RoerConfig(max_exp_clip=0.5)
        with pytest.raises(ConfigError):
            RoerConfig(max_exp_clip=math.inf)

    def test_huge_td_error_stays_finite(self):
        for div in ROER_DIVERGENCES.values():
            out = roer_update(np.array([1e6, 0.0]), np.ones(2),
                              cfg(lam=1.0, max_exp_clip=100.0), div)
            assert np.all(np.isfinite(out))
            assert out == pytest.approx([100 / 50.5, 1 / 50.5])


def reference_kl_update(delta, d, c):
    """The KL update as the ROER scheme first computed it, with exp() on
    exponents capped at 700; the shared pipeline must match it bit for bit."""
    w = np.exp(np.minimum(delta / c.beta, 700.0))
    np.clip(w, 1.0, c.max_exp_clip, out=w)
    w /= w.mean()
    new = (c.lam * (w - 1.0) + 1.0) * d
    if c.min_priority_clip > 0.0:
        np.maximum(new, c.min_priority_clip, out=new)
    return new


@st.composite
def update_inputs(draw):
    n = draw(st.integers(1, 64))
    delta = draw(hnp.arrays(np.float64, n, elements=st.floats(-1e6, 1e6)))
    d = draw(hnp.arrays(np.float64, n, elements=st.floats(1e-3, 1e3)))
    c = RoerConfig(
        lam=draw(st.floats(1e-6, 1.0)),
        beta=draw(st.floats(1e-2, 1e2)),
        max_exp_clip=draw(st.floats(1.0, 1e12)),
        min_priority_clip=draw(st.sampled_from([0.0, 1e-3, 1.0])),
    )
    return delta, d, c


class TestSharedPipeline:
    @settings(max_examples=200, deadline=None)
    @given(update_inputs())
    def test_kl_matches_reference_bitwise(self, inputs):
        delta, d, c = inputs
        out = roer_update(delta, d, c, ROER_DIVERGENCES["roer"])
        assert np.array_equal(out, reference_kl_update(delta, d, c))

    @settings(max_examples=100, deadline=None)
    @given(update_inputs())
    def test_pearson_zero_td_leaves_priorities_bitwise(self, inputs):
        _, d, c = inputs
        d = np.maximum(d, c.min_priority_clip)  # the floor moves nothing above it
        assert np.array_equal(roer_update(np.zeros_like(d), d, c, PEARSON), d)

    @settings(max_examples=200, deadline=None)
    @given(update_inputs())
    def test_pearson_matches_analytic_ratio(self, inputs):
        delta, d, c = inputs
        w = np.clip(delta / c.beta + 1.0, 1.0, c.max_exp_clip)
        expect = (c.lam * (w / w.mean() - 1.0) + 1.0) * d
        expect = np.maximum(expect, c.min_priority_clip)
        out = roer_update(delta, d, c, PEARSON)
        assert out == pytest.approx(expect, rel=1e-12)
        assert np.all(out >= c.min_priority_clip)


class TestPerPriority:
    def test_floor(self):
        out = per_priority(np.array([0.5]), PerConfig(alpha=0.4, min_priority=1.0))
        assert out == pytest.approx([1.0])

    def test_power(self):
        out = per_priority(np.array([16.0]), PerConfig(alpha=0.5, min_priority=1.0))
        assert out == pytest.approx([4.0])

    def test_alpha_zero_uniform(self):
        out = per_priority(np.array([0.0, 3.0, -9.0]), PerConfig(alpha=0.0))
        assert np.all(out == 1.0)

    def test_negative_errors_use_magnitude(self):
        out = per_priority(np.array([-16.0]), PerConfig(alpha=0.5))
        assert out == pytest.approx([4.0])


class TestLaberSelect:
    def test_equal_surrogates_unit_weights(self):
        idx, w = laber_select(np.ones(4), 2, np.random.default_rng(0))
        assert len(idx) == 2
        assert np.all(w == 1.0)

    def test_proportional_monte_carlo(self):
        rng = np.random.default_rng(123)
        hits = 0
        trials = 10_000
        for _ in range(trials):
            idx, _ = laber_select(np.array([3.0, 1.0]), 1, rng)
            hits += int(idx[0] == 0)
        assert abs(hits / trials - 0.75) < 0.02

    def test_weight_one_at_mean(self):
        s = np.array([1.0, 2.0, 3.0])
        rng = np.random.default_rng(7)
        for _ in range(50):
            idx, w = laber_select(s, 3, rng)
            at_mean = s[idx] == 2.0
            assert np.all(w[at_mean] == 1.0)

    def test_all_zero_fallback(self):
        idx, w = laber_select(np.zeros(6), 3, np.random.default_rng(0))
        assert len(idx) == 3
        assert np.all(w == 1.0)

    def test_config_guard(self):
        LaberConfig(large_batch=256).check_minibatch(64)
        with pytest.raises(ConfigError):
            LaberConfig(large_batch=32).check_minibatch(64)

