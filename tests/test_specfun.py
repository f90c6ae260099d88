import math
import warnings

import numpy as np
import pytest
import scipy.special

from passivelsm import specfun
from passivelsm.specfun import (
    DomainError,
    SingularityError,
    WaveContext,
    bessel_j,
    bessel_jn,
    bessel_y,
    bessel_yn,
    green2d,
    hankel1,
    hankel1_all,
)

from oracles import green2d_series, j0_series, jn_series, y0_series

# Frozen from the series oracles above.
J0_AT_1 = 0.7651976865579666
Y0_AT_1 = 0.088256964215677


class TestWaveContext:
    def test_wavelength_identity(self):
        for k in (0.5, 1.0, 2 * np.pi, 17.3):
            ctx = WaveContext(k=k)
            assert ctx.k * ctx.wavelength == pytest.approx(2 * np.pi, abs=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WaveContext(k=0.0)
        with pytest.raises(ValueError):
            WaveContext(k=-1.0)

    def test_rejects_nonfinite(self):
        for k in (np.nan, np.inf):
            with pytest.raises(ValueError):
                WaveContext(k=k)


class TestSeriesOracleValues:
    def test_j0_at_one(self):
        assert j0_series(1.0) == pytest.approx(J0_AT_1, abs=1e-16)
        assert bessel_j(0, 1.0) == pytest.approx(J0_AT_1, abs=1e-12)

    def test_y0_at_one(self):
        assert y0_series(1.0) == pytest.approx(Y0_AT_1, abs=1e-16)
        assert bessel_y(0, 1.0) == pytest.approx(Y0_AT_1, abs=1e-12)

    def test_small_argument_limits(self):
        assert bessel_j(0, 1e-12) == pytest.approx(1.0, abs=1e-15)
        assert bessel_j(1, 1e-12) == pytest.approx(0.0, abs=1e-12)

    def test_y0_log_divergence(self):
        assert bessel_y(0, 1e-8) < -10.0

    @pytest.mark.parametrize("n", [2, 5, 11, 23])
    @pytest.mark.parametrize("x", [0.3, 2.0, 7.5, 11.9])
    def test_general_order_matches_series_oracle(self, n, x):
        assert bessel_j(n, x) == pytest.approx(jn_series(n, x), abs=1e-11)


class TestIdentities:
    @pytest.mark.parametrize("x", [0.1, 1.0, 2.5, 10.0, 100.0])
    def test_wronskian(self, x):
        for n in range(0, 41):
            resid = (
                bessel_j(n + 1, x) * bessel_y(n, x)
                - bessel_j(n, x) * bessel_y(n + 1, x)
                - 2.0 / (np.pi * x)
            )
            assert abs(resid) < 1e-10

    @pytest.mark.parametrize("x", [0.7, 5.0, 14.0, 120.0, 900.0])
    def test_three_term_recurrence(self, x):
        for n in range(1, 41):
            jm1, jn_, jp1 = bessel_j(n - 1, x), bessel_j(n, x), bessel_j(n + 1, x)
            scale = max(abs(jm1), abs(jp1), abs(2 * n / x * jn_), 1e-300)
            assert abs(jm1 + jp1 - 2 * n / x * jn_) / scale < 1e-9

    def test_hankel_definition_and_conjugate(self):
        for n, x in [(0, 1.0), (3, 4.4), (12, 40.0)]:
            h = hankel1(n, x)
            assert h == pytest.approx(bessel_j(n, x) + 1j * bessel_y(n, x))
            # conjugate is the Hankel function of the second kind
            assert np.conj(h) == pytest.approx(bessel_j(n, x) - 1j * bessel_y(n, x))

    def test_hankel_asymptotic_magnitude(self):
        for x in (200.0, 1500.0, 9000.0):
            assert abs(hankel1(0, x)) == pytest.approx(
                math.sqrt(2.0 / (np.pi * x)), rel=1e-2
            )


class TestAgainstScipy:
    """scipy.special is an independent implementation; cross-validate
    broadly at the 1e-10 scaled-accuracy target."""

    def test_random_orders_and_arguments(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(0, 61))
            x = float(10 ** rng.uniform(-2, 4))
            jref = scipy.special.jv(n, x)
            yref = scipy.special.yv(n, x)
            assert abs(bessel_j(n, x) - jref) <= 1e-10 * max(1.0, abs(jref))
            assert abs(bessel_y(n, x) - yref) <= 1e-10 * max(1.0, abs(yref))

    def test_stacked_orders(self):
        x = np.array([0.05, 0.9, 3.0, 13.0, 77.0, 2300.0])
        js = bessel_jn(30, x)
        ys = bessel_yn(30, x)
        for n in (0, 1, 7, 30):
            np.testing.assert_allclose(js[n], scipy.special.jv(n, x), atol=1e-10)
            ref = scipy.special.yv(n, x)
            assert np.all(np.abs(ys[n] - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))


class TestDomain:
    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            bessel_j(-1, 1.0)
        with pytest.raises(DomainError):
            bessel_j(61, 1.0)
        with pytest.raises(DomainError):
            bessel_y(2.5, 1.0)

    def test_overflow_corner_is_infinite_not_nan(self):
        # Y_60(1e-4) exceeds double range; J_60(1e-5) underflows to zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bessel_y(60, 1e-4) == -np.inf
            assert not np.isnan(bessel_yn(60, [1e-4])).any()
            assert bessel_jn(60, [1e-5])[60, 0] == 0.0
            h = hankel1_all(60, [1e-4])[:, 0]
            assert not np.isnan(h).any()
            assert hankel1(60, 1e-4) == complex(bessel_j(60, 1e-4), -np.inf)

    def test_rejects_bad_argument(self):
        with pytest.raises(DomainError):
            bessel_j(0, 0.0)
        with pytest.raises(DomainError):
            bessel_j(0, -3.0)
        with pytest.raises(DomainError):
            bessel_y(0, 1.1e4)


class TestGreen2d:
    def test_value_against_series_oracle(self, ctx):
        val = green2d(ctx, (0.0, 0.0), (1.0, 0.0))
        ref = green2d_series(ctx.k, (0.0, 0.0), (1.0, 0.0))
        assert val == pytest.approx(ref, abs=1e-12)
        # frozen from the oracle
        assert val == pytest.approx(0.05727712750618047 + 0.05506922713498374j,
                                    abs=1e-12)

    def test_symmetry_random_pairs(self, ctx):
        rng = np.random.default_rng(3)
        x = rng.uniform(-5, 5, size=(100, 2))
        y = rng.uniform(-5, 5, size=(100, 2))
        np.testing.assert_allclose(green2d(ctx, x, y), green2d(ctx, y, x),
                                   rtol=0, atol=1e-15)

    def test_imaginary_part_is_quarter_j0(self, ctx):
        # moderate separations: the plain series oracle itself is only
        # good to ~1e-12 for arguments up to ~12
        rng = np.random.default_rng(4)
        x = rng.uniform(-0.6, 0.6, size=(50, 2))
        y = rng.uniform(-0.6, 0.6, size=(50, 2))
        r = np.sqrt(((x - y) ** 2).sum(axis=1))
        expected = 0.25 * np.array([j0_series(ctx.k * ri) for ri in r])
        np.testing.assert_allclose(green2d(ctx, x, y).imag, expected, atol=1e-11)

    def test_singularity_guard(self, ctx):
        with pytest.raises(SingularityError):
            green2d(ctx, (1.0, 2.0), (1.0, 2.0))

    def test_satisfies_helmholtz_equation(self, ctx):
        # five-point Laplacian residual shrinks ~4x when h halves
        y = np.array([0.0, 0.0])
        x = np.array([1.6, 0.9])

        def residual(h):
            e1 = np.array([h, 0.0])
            e2 = np.array([0.0, h])
            lap = (
                green2d(ctx, x + e1, y) + green2d(ctx, x - e1, y)
                + green2d(ctx, x + e2, y) + green2d(ctx, x - e2, y)
                - 4.0 * green2d(ctx, x, y)
            ) / h**2
            return abs(lap + ctx.k**2 * green2d(ctx, x, y))

        r1, r2 = residual(1e-3), residual(5e-4)
        assert r1 / r2 == pytest.approx(4.0, rel=0.25)
