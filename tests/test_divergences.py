import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from roer.divergences import (
    DIFFERENTIABLE_KINDS,
    DomainError,
    Kind,
    NondifferentiableError,
    conjugate,
    conjugate_prime,
    generator,
    generator_prime,
    spec,
)

ALL_KINDS = list(Kind)
FUNCTIONS = (generator, generator_prime, conjugate, conjugate_prime)


def x_elements():
    return st.floats(1e-6, 1e6)


def y_elements(sp):
    # inside the conjugate domain, capped where exp() would overflow
    lo, hi = sp.domain_conj
    return st.floats(max(lo, -50.0), min(hi, 50.0),
                     exclude_max=sp.conj_upper_open and hi <= 50.0)


def bad_y_values(sp):
    lo, hi = sp.domain_conj
    bad = [math.nan, math.inf, -math.inf]
    if math.isfinite(hi):
        bad.append(hi if sp.conj_upper_open else hi + 0.1)
    if math.isfinite(lo):
        bad.append(lo - 0.1)
    return bad


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestTabulatedValues:
    def test_generator_values(self):
        assert generator(spec(Kind.PEARSON_CHI2), 3.0) == pytest.approx(2.0)
        assert generator(spec(Kind.KL), 1.0) == 0.0
        assert generator(spec(Kind.SQUARED_HELLINGER), 4.0) == pytest.approx(2.0)

    def test_generator_prime_values(self):
        assert generator_prime(spec(Kind.PEARSON_CHI2), 3.0) == pytest.approx(2.0)
        assert generator_prime(spec(Kind.KL), 1.0) == 0.0

    def test_neyman_prime_matches_finite_difference(self):
        # independent oracle: central difference of the generator itself
        sp = spec(Kind.NEYMAN_CHI2)
        fd = central_diff(lambda x: generator(sp, x), 2.0)
        assert fd == pytest.approx(0.375, abs=1e-9)
        assert generator_prime(sp, 2.0) == pytest.approx(fd, abs=1e-9)

    def test_conjugate_values(self):
        assert conjugate(spec(Kind.KL), 0.0) == 0.0
        assert conjugate(spec(Kind.PEARSON_CHI2), 2.0) == pytest.approx(4.0)
        assert conjugate(spec(Kind.REVERSE_KL), 0.0) == 0.0

    def test_conjugate_prime_values(self):
        assert conjugate_prime(spec(Kind.KL), 0.0) == 1.0
        assert conjugate_prime(spec(Kind.PEARSON_CHI2), 0.5) == pytest.approx(1.5)
        assert conjugate_prime(spec(Kind.SQUARED_HELLINGER), 0.0) == 1.0


class TestNormalization:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_generator_zero_at_one(self, kind):
        assert generator(spec(kind), 1.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("kind", DIFFERENTIABLE_KINDS)
    def test_generator_prime_zero_at_one(self, kind):
        assert generator_prime(spec(kind), 1.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_convex_midpoint(self, kind):
        sp = spec(kind)
        rng = np.random.default_rng(7)
        xs = rng.uniform(0.05, 20.0, size=(300, 2))
        for a, b in xs:
            mid = generator(sp, 0.5 * (a + b))
            assert mid <= 0.5 * (generator(sp, a) + generator(sp, b)) + 1e-12


class TestConjugateDuality:
    @pytest.mark.parametrize("kind", DIFFERENTIABLE_KINDS)
    def test_conjugate_inverse_identity(self, kind):
        sp = spec(kind)
        grid = np.logspace(np.log10(0.1), np.log10(10.0), 200)
        worst = max(
            abs(conjugate_prime(sp, generator_prime(sp, x)) - x) for x in grid
        )
        assert worst <= 1e-9

    @pytest.mark.parametrize("kind", DIFFERENTIABLE_KINDS)
    def test_fenchel_young_inequality(self, kind):
        sp = spec(kind)
        rng = np.random.default_rng(11)
        lo, hi = sp.domain_conj
        lo = max(lo, -20.0)
        hi = min(hi, 20.0)
        n = 10_000
        xs = rng.uniform(0.05, 20.0, size=n)
        ys = rng.uniform(lo, hi - 1e-9, size=n)
        for x, y in zip(xs, ys):
            assert generator(sp, x) + conjugate(sp, y) >= x * y - 1e-12

    @pytest.mark.parametrize("kind", DIFFERENTIABLE_KINDS)
    def test_fenchel_young_equality_at_gradient(self, kind):
        sp = spec(kind)
        rng = np.random.default_rng(13)
        for x in rng.uniform(0.1, 10.0, size=200):
            y = generator_prime(sp, x)
            gap = generator(sp, x) + conjugate(sp, y) - x * y
            assert abs(gap) <= 1e-9

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_td_error_unit_ratio(self, kind):
        assert conjugate_prime(spec(kind), 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_conjugate_prime_nondecreasing(self, kind):
        sp = spec(kind)
        lo, hi = sp.domain_conj
        lo = max(lo, -10.0)
        hi = min(hi, 10.0)
        ys = np.linspace(lo + 1e-6, hi - 1e-6, 500)
        vals = [conjugate_prime(sp, y) for y in ys]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestDomains:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("x", [0.0, -1.0, float("nan")])
    def test_generator_rejects_nonpositive(self, kind, x):
        with pytest.raises(DomainError):
            generator(spec(kind), x)

    @pytest.mark.parametrize(
        "kind,y",
        [
            (Kind.REVERSE_KL, 1.0),
            (Kind.REVERSE_KL, 2.0),
            (Kind.NEYMAN_CHI2, 0.5),
            (Kind.SQUARED_HELLINGER, 2.0),
            (Kind.TOTAL_VARIATION, 0.6),
            (Kind.TOTAL_VARIATION, -0.6),
        ],
    )
    def test_conjugate_rejects_out_of_domain(self, kind, y):
        with pytest.raises(DomainError):
            conjugate(spec(kind), y)
        with pytest.raises(DomainError):
            conjugate_prime(spec(kind), y)

    def test_error_message_names_bound(self):
        with pytest.raises(DomainError, match="y < 1"):
            conjugate(spec(Kind.REVERSE_KL), 1.5)
        with pytest.raises(DomainError, match="y < 0.5"):
            conjugate(spec(Kind.NEYMAN_CHI2), 0.7)

    def test_total_variation_kink_reports_subgradient(self):
        with pytest.raises(NondifferentiableError) as exc:
            generator_prime(spec(Kind.TOTAL_VARIATION), 1.0)
        assert exc.value.subgradient == (-0.5, 0.5)

    def test_spec_lookup_by_name(self):
        assert spec("kl").kind is Kind.KL
        assert spec("squared_hellinger").kind is Kind.SQUARED_HELLINGER
        with pytest.raises(DomainError, match="unknown divergence"):
            spec("hellinger")


class TestArrayCalls:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_array_call_equals_scalar_calls_bitwise(self, kind, data):
        sp = spec(kind)
        shapes = hnp.array_shapes(max_dims=2, max_side=8)
        xs = data.draw(hnp.arrays(np.float64, shapes, elements=x_elements()))
        if kind is Kind.TOTAL_VARIATION:
            xs[xs == 1.0] = 2.0  # the kink has no derivative
        ys = data.draw(hnp.arrays(np.float64, shapes, elements=y_elements(sp)))
        for fn, args in zip(FUNCTIONS, (xs, xs, ys, ys)):
            out = fn(sp, args)
            each = np.array([fn(sp, v) for v in args.flat]).reshape(args.shape)
            assert out.shape == args.shape
            assert out.tobytes() == each.tobytes(), fn.__name__

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_dense_grid_equals_scalar_calls_bitwise(self, kind):
        # rounding differences between the scalar and array paths are rare
        # (about 1 in 1000 for a scalar ** 2), so sweep a dense grid too
        sp = spec(kind)
        lo, hi = sp.domain_conj
        xs = np.geomspace(1e-6, 1e6, 10_001)
        if kind is Kind.TOTAL_VARIATION:
            xs[xs == 1.0] = 2.0
        ys = np.linspace(max(lo, -50.0), min(hi, 50.0), 10_001)
        if sp.conj_upper_open:
            ys = ys[ys < hi]
        for fn, args in zip(FUNCTIONS, (xs, xs, ys, ys)):
            each = np.array([fn(sp, v) for v in args])
            assert fn(sp, args).tobytes() == each.tobytes(), fn.__name__

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_one_bad_element_rejects_the_array(self, kind, data):
        sp = spec(kind)
        n = data.draw(st.integers(1, 16))
        at = data.draw(st.integers(0, n - 1))
        xs = data.draw(hnp.arrays(np.float64, n, elements=st.floats(1.5, 1e6)))
        xs[at] = data.draw(st.sampled_from([0.0, -1.0, math.nan, math.inf]))
        ys = data.draw(hnp.arrays(np.float64, n, elements=y_elements(sp)))
        ys[at] = data.draw(st.sampled_from(bad_y_values(sp)))
        for fn, args in zip(FUNCTIONS, (xs, xs, ys, ys)):
            with pytest.raises(DomainError):
                fn(sp, args)

    def test_total_variation_kink_anywhere_in_the_array(self):
        with pytest.raises(NondifferentiableError):
            generator_prime(spec(Kind.TOTAL_VARIATION), np.array([0.5, 1.0, 2.0]))
