import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.spatial.distance
import scipy.special

from passivelsm.specfun import (
    SingularityError, WaveContext, green2d, green_kr, hankel1_orders,
)

from oracles import green2d_broadcast, green2d_series, j0_series, jn_series, y0_series

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
        assert hankel1_orders(0, 1.0)[0].real == pytest.approx(J0_AT_1, abs=1e-12)

    def test_y0_at_one(self):
        assert y0_series(1.0) == pytest.approx(Y0_AT_1, abs=1e-16)
        assert hankel1_orders(0, 1.0)[0].imag == pytest.approx(Y0_AT_1, abs=1e-12)

    @pytest.mark.parametrize("x", [0.05, 0.9, 3.0, 7.5])
    def test_order_zero_matches_series_oracles(self, x):
        h = hankel1_orders(0, x)[0]
        assert h.real == pytest.approx(j0_series(x), abs=1e-12)
        assert h.imag == pytest.approx(y0_series(x), abs=1e-12)

    def test_small_argument_limits(self):
        h = hankel1_orders(1, 1e-12)
        assert h[0].real == pytest.approx(1.0, abs=1e-15)
        assert h[1].real == pytest.approx(0.0, abs=1e-12)

    def test_y0_log_divergence(self):
        assert hankel1_orders(0, 1e-8)[0].imag < -10.0

    @pytest.mark.parametrize("n", [2, 5, 11, 23])
    @pytest.mark.parametrize("x", [0.3, 2.0, 7.5, 11.9])
    def test_general_order_matches_series_oracle(self, n, x):
        assert hankel1_orders(n, x)[n].real == pytest.approx(jn_series(n, x), abs=1e-11)


class TestIdentities:
    @pytest.mark.parametrize("x", [0.1, 1.0, 2.5, 10.0, 100.0])
    def test_wronskian(self, x):
        h = hankel1_orders(41, x)
        for n in range(0, 41):
            resid = (
                h[n + 1].real * h[n].imag
                - h[n].real * h[n + 1].imag
                - 2.0 / (np.pi * x)
            )
            assert abs(resid) < 1e-10

    @pytest.mark.parametrize("x", [0.7, 5.0, 14.0, 120.0, 900.0])
    def test_three_term_recurrence(self, x):
        j = hankel1_orders(41, x).real
        for n in range(1, 41):
            jm1, jn_, jp1 = j[n - 1], j[n], j[n + 1]
            scale = max(abs(jm1), abs(jp1), abs(2 * n / x * jn_), 1e-300)
            assert abs(jm1 + jp1 - 2 * n / x * jn_) / scale < 1e-9

    def test_hankel_definition_and_conjugate(self):
        for n, x in [(0, 1.0), (3, 4.4), (12, 40.0)]:
            # conjugate is the Hankel function of the second kind, J - iY,
            # which scipy computes apart from jv/yv (AMOS)
            h = hankel1_orders(n, x)[n]
            assert np.conj(h) == pytest.approx(scipy.special.hankel2(n, x))

    def test_hankel_asymptotic_magnitude(self):
        x = np.array([200.0, 1500.0, 9000.0])
        np.testing.assert_allclose(np.abs(hankel1_orders(0, x)[0]),
                                   np.sqrt(2.0 / (np.pi * x)), rtol=1e-2)


class TestAgainstScipy:
    def test_stacked_orders(self):
        # six arguments against 31 orders: a transposed order axis shows
        x = np.array([0.05, 0.9, 3.0, 13.0, 77.0, 2300.0])
        h = hankel1_orders(30, x)
        assert h.shape == (31, 6)
        assert hankel1_orders(30, x.reshape(2, 3)).shape == (31, 2, 3)
        for n in (0, 1, 7, 30):
            np.testing.assert_allclose(h[n].real, scipy.special.jv(n, x), atol=1e-10)
            ref = scipy.special.yv(n, x)
            assert np.all(np.abs(h[n].imag - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))


class TestOverflow:
    def test_overflow_corner_is_infinite_not_nan(self):
        # Y_60(1e-4) exceeds double range; J_60(1e-5) underflows to zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = hankel1_orders(60, [1e-4])[:, 0]
            assert not np.isnan(h).any()
            assert h[60].imag == -np.inf
            assert h[60] == complex(scipy.special.jv(60, 1e-4), -np.inf)
            assert hankel1_orders(60, [1e-5])[60, 0].real == 0.0


class TestGreen2d:
    def test_value_against_series_oracle(self, ctx):
        val = green2d(ctx, (0.0, 0.0), (1.0, 0.0))[0, 0]
        ref = green2d_series(ctx.k, (0.0, 0.0), (1.0, 0.0))
        assert val == pytest.approx(ref, abs=1e-12)
        # frozen from the oracle
        assert val == pytest.approx(0.05727712750618047 + 0.05506922713498374j,
                                    abs=1e-12)

    def test_symmetry_random_pairs(self, ctx):
        rng = np.random.default_rng(3)
        x = rng.uniform(-5, 5, size=(100, 2))
        y = rng.uniform(-5, 5, size=(100, 2))
        np.testing.assert_allclose(np.diag(green2d(ctx, x, y)), np.diag(green2d(ctx, y, x)),
                                   rtol=0, atol=1e-15)

    def test_imaginary_part_is_quarter_j0(self, ctx):
        # moderate separations: the plain series oracle itself is only
        # good to ~1e-12 for arguments up to ~12
        rng = np.random.default_rng(4)
        x = rng.uniform(-0.6, 0.6, size=(50, 2))
        y = rng.uniform(-0.6, 0.6, size=(50, 2))
        r = np.sqrt(((x - y) ** 2).sum(axis=1))
        expected = 0.25 * np.array([j0_series(ctx.k * ri) for ri in r])
        np.testing.assert_allclose(np.diag(green2d(ctx, x, y)).imag, expected, atol=1e-11)

    def test_singularity_guard(self, ctx):
        with pytest.raises(SingularityError):
            green2d(ctx, (1.0, 2.0), (1.0, 2.0))

    @pytest.mark.parametrize("seed, p, q", [(0, 1, 7), (1, 13, 1), (2, 40, 33),
                                            (3, 80, 512), (4, 200, 512)])
    def test_every_pair_equals_broadcast_formula_bitwise(self, ctx, seed, p, q):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-8, 8, size=(p, 2))
        y = rng.uniform(-8, 8, size=(q, 2))
        g = green2d(ctx, x, y)
        assert g.shape == (p, q)
        np.testing.assert_array_equal(g, green2d_broadcast(ctx.k, x[:, None, :], y[None, :, :]))

    @pytest.mark.parametrize("seed, p, q", [(0, 1, 7), (2, 40, 33), (3, 80, 512)])
    def test_kernel_of_scaled_distances_is_green2d_bitwise(self, ctx, seed, p, q):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-8, 8, size=(p, 2))
        y = rng.uniform(-8, 8, size=(q, 2))
        kr = ctx.k * scipy.spatial.distance.cdist(x, y)
        assert green_kr(kr).tobytes() == green2d(ctx, x, y).tobytes()

    def test_kernel_at_zero_is_infinite_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = green_kr(np.array([0.0, 0.0]))
        np.testing.assert_array_equal(g.real, np.inf)
        np.testing.assert_array_equal(g.imag, 0.25)

    def test_holds_no_complex_temporary(self, ctx):
        """The peak is the complex output plus the real distance matrix."""
        rng = np.random.default_rng(8)
        x = rng.uniform(-5, 5, size=(80, 2))
        y = rng.uniform(-5, 5, size=(512, 2))
        tracemalloc.start()
        try:
            g = green2d(ctx, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * g.nbytes

    def test_swapped_arguments_give_transpose_bitwise(self, ctx):
        rng = np.random.default_rng(5)
        x = rng.uniform(-5, 5, size=(17, 2))
        y = rng.uniform(-5, 5, size=(9, 2))
        np.testing.assert_array_equal(green2d(ctx, x, y), green2d(ctx, y, x).T)

    def test_one_coincident_off_diagonal_pair_raises(self, ctx):
        rng = np.random.default_rng(6)
        x = rng.uniform(-5, 5, size=(6, 2))
        y = rng.uniform(-5, 5, size=(4, 2))
        green2d(ctx, x, y)    # no pair coincides yet
        y[2] = x[4]
        with pytest.raises(SingularityError):
            green2d(ctx, x, y)

    def test_single_points_are_batches_of_one(self, ctx):
        y = np.array([[1.0, 0.0], [0.0, 2.0], [-3.0, 1.0]])
        assert green2d(ctx, (0.0, 0.0), (1.0, 0.0)).shape == (1, 1)
        assert green2d(ctx, (0.0, 0.0), y).shape == (1, 3)
        assert green2d(ctx, y, np.zeros(2)).shape == (3, 1)
        np.testing.assert_array_equal(green2d(ctx, (0.0, 0.0), y)[0],
                                      green2d(ctx, y, (0.0, 0.0))[:, 0])

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
