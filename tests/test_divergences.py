import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from roer.divergences import (
    SPECS,
    DivergenceSpec,
    DomainError,
    conjugate,
    conjugate_prime,
    generator,
    generator_prime,
)

ALL_SPECS = list(SPECS.values())
FUNCTIONS = (generator, generator_prime, conjugate, conjugate_prime)


def spec_id(value):
    """A divergence's test id, "Kind.KL" for kl: the form the ids took when
    the table was keyed by an enum, kept so that test history lines up; None
    (pytest's own id) for any other parameter."""
    return f"Kind.{value.name.upper()}" if isinstance(value, DivergenceSpec) else None


def x_elements():
    return st.floats(1e-6, 1e6)


def y_elements(sp):
    # inside the conjugate domain, capped where exp() would overflow
    lo, hi = sp.domain_conj
    return st.floats(max(lo, -50.0), min(hi, 50.0), exclude_max=hi <= 50.0)


def bad_y_values(sp):
    lo, hi = sp.domain_conj
    bad = [math.nan, math.inf, -math.inf]
    if math.isfinite(hi):
        bad.append(hi)
    if math.isfinite(lo):
        bad.append(lo - 0.1)
    return bad


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestTabulatedValues:
    def test_generator_values(self):
        assert generator(SPECS["pearson_chi2"], 3.0) == pytest.approx(2.0)
        assert generator(SPECS["kl"], 1.0) == 0.0
        assert generator(SPECS["squared_hellinger"], 4.0) == pytest.approx(2.0)

    def test_generator_prime_values(self):
        assert generator_prime(SPECS["pearson_chi2"], 3.0) == pytest.approx(2.0)
        assert generator_prime(SPECS["kl"], 1.0) == 0.0

    def test_neyman_prime_matches_finite_difference(self):
        # independent oracle: central difference of the generator itself
        sp = SPECS["neyman_chi2"]
        fd = central_diff(lambda x: generator(sp, x), 2.0)
        assert fd == pytest.approx(0.375, abs=1e-9)
        assert generator_prime(sp, 2.0) == pytest.approx(fd, abs=1e-9)

    def test_conjugate_values(self):
        assert conjugate(SPECS["kl"], 0.0) == 0.0
        assert conjugate(SPECS["pearson_chi2"], 2.0) == pytest.approx(4.0)
        assert conjugate(SPECS["reverse_kl"], 0.0) == 0.0

    def test_conjugate_prime_values(self):
        assert conjugate_prime(SPECS["kl"], 0.0) == 1.0
        assert conjugate_prime(SPECS["pearson_chi2"], 0.5) == pytest.approx(1.5)
        assert conjugate_prime(SPECS["squared_hellinger"], 0.0) == 1.0


class TestNormalization:
    @pytest.mark.parametrize("sp", ALL_SPECS, ids=spec_id)
    def test_generator_zero_at_one(self, sp):
        assert generator(sp, 1.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("sp", ALL_SPECS, ids=spec_id)
    def test_generator_prime_zero_at_one(self, sp):
        assert generator_prime(sp, 1.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("sp", ALL_SPECS, ids=spec_id)
    def test_convex_midpoint(self, sp):
        rng = np.random.default_rng(7)
        xs = rng.uniform(0.05, 20.0, size=(300, 2))
        for a, b in xs:
            mid = generator(sp, 0.5 * (a + b))
            assert mid <= 0.5 * (generator(sp, a) + generator(sp, b)) + 1e-12


class TestConjugateDuality:
    @pytest.mark.parametrize("sp", ALL_SPECS, ids=spec_id)
    def test_conjugate_inverse_identity(self, sp):
        grid = np.logspace(np.log10(0.1), np.log10(10.0), 200)
        worst = max(
            abs(conjugate_prime(sp, generator_prime(sp, x)) - x) for x in grid
        )
        assert worst <= 1e-9

    @pytest.mark.parametrize("sp", ALL_SPECS, ids=spec_id)
    def test_fenchel_young_inequality(self, sp):
        rng = np.random.default_rng(11)
        lo, hi = sp.domain_conj
        lo = max(lo, -20.0)
        hi = min(hi, 20.0)
        n = 10_000
        xs = rng.uniform(0.05, 20.0, size=n)
        ys = rng.uniform(lo, hi - 1e-9, size=n)
        for x, y in zip(xs, ys):
            assert generator(sp, x) + conjugate(sp, y) >= x * y - 1e-12

    @pytest.mark.parametrize("sp", ALL_SPECS, ids=spec_id)
    def test_fenchel_young_equality_at_gradient(self, sp):
        rng = np.random.default_rng(13)
        for x in rng.uniform(0.1, 10.0, size=200):
            y = generator_prime(sp, x)
            gap = generator(sp, x) + conjugate(sp, y) - x * y
            assert abs(gap) <= 1e-9

    @pytest.mark.parametrize("sp", ALL_SPECS, ids=spec_id)
    def test_zero_td_error_unit_ratio(self, sp):
        assert conjugate_prime(sp, 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("sp", ALL_SPECS, ids=spec_id)
    def test_conjugate_prime_nondecreasing(self, sp):
        lo, hi = sp.domain_conj
        lo = max(lo, -10.0)
        hi = min(hi, 10.0)
        ys = np.linspace(lo + 1e-6, hi - 1e-6, 500)
        vals = [conjugate_prime(sp, y) for y in ys]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestDomains:
    @pytest.mark.parametrize("sp", ALL_SPECS, ids=spec_id)
    @pytest.mark.parametrize("x", [0.0, -1.0, float("nan")])
    def test_generator_rejects_nonpositive(self, sp, x):
        with pytest.raises(DomainError):
            generator(sp, x)

    @pytest.mark.parametrize(
        "sp,y",
        [
            (SPECS["reverse_kl"], 1.0),
            (SPECS["reverse_kl"], 2.0),
            (SPECS["neyman_chi2"], 0.5),
            (SPECS["squared_hellinger"], 2.0),
        ],
        ids=spec_id,
    )
    def test_conjugate_rejects_out_of_domain(self, sp, y):
        with pytest.raises(DomainError):
            conjugate(sp, y)
        with pytest.raises(DomainError):
            conjugate_prime(sp, y)

    def test_error_message_names_bound(self):
        with pytest.raises(DomainError, match="y < 1"):
            conjugate(SPECS["reverse_kl"], 1.5)
        with pytest.raises(DomainError, match="y < 0.5"):
            conjugate(SPECS["neyman_chi2"], 0.7)

    def test_spec_lookup_by_name(self):
        # the table is keyed by the names the config and the oracle use
        assert list(SPECS) == ["kl", "reverse_kl", "pearson_chi2", "neyman_chi2",
                               "squared_hellinger"]
        assert all(sp.name == name for name, sp in SPECS.items())


class TestArrayCalls:
    @pytest.mark.parametrize("sp", ALL_SPECS, ids=spec_id)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_array_call_equals_scalar_calls_bitwise(self, sp, data):
        shapes = hnp.array_shapes(max_dims=2, max_side=8)
        xs = data.draw(hnp.arrays(np.float64, shapes, elements=x_elements()))
        ys = data.draw(hnp.arrays(np.float64, shapes, elements=y_elements(sp)))
        for fn, args in zip(FUNCTIONS, (xs, xs, ys, ys)):
            out = fn(sp, args)
            each = np.array([fn(sp, v) for v in args.flat]).reshape(args.shape)
            assert out.shape == args.shape
            assert out.tobytes() == each.tobytes(), fn.__name__

    @pytest.mark.parametrize("sp", ALL_SPECS, ids=spec_id)
    def test_dense_grid_equals_scalar_calls_bitwise(self, sp):
        # rounding differences between the scalar and array paths are rare
        # (about 1 in 1000 for a scalar ** 2), so sweep a dense grid too
        lo, hi = sp.domain_conj
        xs = np.geomspace(1e-6, 1e6, 10_001)
        ys = np.linspace(max(lo, -50.0), min(hi, 50.0), 10_001)
        ys = ys[ys < hi]
        for fn, args in zip(FUNCTIONS, (xs, xs, ys, ys)):
            each = np.array([fn(sp, v) for v in args])
            assert fn(sp, args).tobytes() == each.tobytes(), fn.__name__

    @pytest.mark.parametrize("sp", ALL_SPECS, ids=spec_id)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_one_bad_element_rejects_the_array(self, sp, data):
        n = data.draw(st.integers(1, 16))
        at = data.draw(st.integers(0, n - 1))
        xs = data.draw(hnp.arrays(np.float64, n, elements=st.floats(1.5, 1e6)))
        xs[at] = data.draw(st.sampled_from([0.0, -1.0, math.nan, math.inf]))
        ys = data.draw(hnp.arrays(np.float64, n, elements=y_elements(sp)))
        ys[at] = data.draw(st.sampled_from(bad_y_values(sp)))
        for fn, args in zip(FUNCTIONS, (xs, xs, ys, ys)):
            with pytest.raises(DomainError):
                fn(sp, args)

    @pytest.mark.parametrize("sp", ALL_SPECS, ids=spec_id)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_scalar_check_equals_one_element_array_check(self, sp, data):
        # the 0-d domain checks take a Python-arithmetic path; it must
        # accept, return and reject exactly as the array path does
        lo, hi = sp.domain_conj
        edges = [v for v in (lo, hi, 0.0, -0.0) if math.isfinite(v)]
        v = data.draw(st.one_of(st.floats(), st.sampled_from(
            edges + [math.nextafter(e, d) for e in edges for d in (-math.inf, math.inf)])))
        for check in (sp.check_x, sp.check_y):
            outcomes = []
            for arg in (v, np.float64(v), np.array([v])):
                try:
                    outcomes.append(check(arg).tobytes())
                except DomainError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1] == outcomes[2], check.__name__
