import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from passivelsm import acquisition, geometry, inversion, pipeline
from passivelsm.geometry import circle_points
from passivelsm.inversion import (
    GridSpec,
    SvdFactors,
    indicator_map,
    morozov_alphas,
    rhs_vectors,
    svd,
    tikhonov_solve,
    write_indicator_csv,
    write_indicator_pgm,
    write_indicator_raw_csv,
)
from passivelsm.specfun import SingularityError, green2d, hankel1_orders

from oracles import mask_and_reciprocal_flat, singular_values_power_iteration


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def one_probe_alpha(factors, b, delta):
    """Morozov's alpha for one probe's coefficients b = U* phi_z, a batch of one."""
    b2 = np.abs(np.asarray(b))[:, None] ** 2
    return float(morozov_alphas(factors.sigma, b2, delta)[0][0])


def make_field_matrix(entries, receivers, delta=0.0):
    return acquisition.FieldMatrix(
        entries=entries, kind=acquisition.NEAR_FIELD, receivers=receivers,
        k=2 * np.pi, delta=delta,
    )


class TestSvd:
    def test_identity(self):
        f = svd(np.eye(5, dtype=complex))
        np.testing.assert_allclose(f.sigma, 1.0, atol=1e-14)

    def test_diagonal(self):
        f = svd(np.diag([3.0, 2.0, 1.0]).astype(complex))
        np.testing.assert_allclose(f.sigma, [3.0, 2.0, 1.0], atol=1e-14)

    def test_invariants_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 64))
            a = random_complex(rng, (n, n))
            f = svd(a)
            assert np.linalg.norm(f.u * f.sigma @ f.vh - a) / np.linalg.norm(a) < 1e-10
            assert np.linalg.norm(f.u.conj().T @ f.u - np.eye(n)) < 1e-10
            assert np.linalg.norm(f.v.conj().T @ f.v - np.eye(n)) < 1e-10
            assert np.all(np.diff(f.sigma) <= 0)

    def test_against_power_iteration_oracle(self):
        rng = np.random.default_rng(7)
        a = random_complex(rng, (8, 8))
        ref = singular_values_power_iteration(a)
        np.testing.assert_allclose(svd(a).sigma, ref, atol=1e-8)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            svd(np.zeros((3, 4)))


@pytest.fixture(scope="module")
def receivers():
    return circle_points(5.0, 12)


class TestRhsVector:
    def test_matches_green2d(self, receivers, ctx):
        z = np.array([0.7, -0.3])
        vec = rhs_vectors(receivers, z, ctx)[:, 0]
        for j, x in enumerate(receivers.points):
            assert vec[j] == pytest.approx(green2d(ctx, x, z)[0, 0], rel=1e-14)

    def test_magnitude_is_quarter_hankel(self, receivers, ctx):
        z = np.array([1.0, 1.0])
        vec = rhs_vectors(receivers, z, ctx)[:, 0]
        d = np.sqrt(((receivers.points - z) ** 2).sum(axis=1))
        expected = 0.25 * np.abs(hankel1_orders(0, ctx.k * d)[0])
        np.testing.assert_allclose(np.abs(vec), expected, rtol=1e-12)

    def test_center_gives_equal_entries(self, receivers, ctx):
        vec = rhs_vectors(receivers, (0.0, 0.0), ctx)[:, 0]
        np.testing.assert_allclose(vec, vec[0], rtol=1e-12)

    def test_singularity_at_receiver(self, receivers, ctx):
        with pytest.raises(SingularityError):
            rhs_vectors(receivers, receivers.points[3], ctx)


@pytest.fixture(scope="module")
def preset_runs():
    """(config, artifacts) at seed 0 of presets with J = 80, 160 and 200."""
    runs = {}
    for name in ("kite-C", "wavenumber(4pi,160)", "setup2(200)"):
        cfg = pipeline.preset(name)
        runs[name] = (cfg, pipeline.execute(cfg))
    return runs


def brentq_alpha(sigma, b2, delta):
    """Morozov's alpha for one column, by scipy's brentq in log(alpha)."""
    import scipy.optimize

    s2 = sigma ** 2

    def f(t):
        a = math.exp(t)
        return float((((a * a - delta ** 2 * s2) / (a + s2) ** 2) * b2).sum())

    t = scipy.optimize.brentq(f, math.log(inversion.ALPHA_FLOOR),
                              math.log(delta * sigma.max()), xtol=1e-14,
                              rtol=4 * np.finfo(float).eps, maxiter=500)
    return math.exp(t)


class TestMorozov:
    def test_matches_brentq_on_preset_rhs(self, preset_runs):
        rng = np.random.default_rng(12)
        for name, (cfg, art) in preset_runs.items():
            f = svd(art.matrix)
            probed = cfg.grid_spec().points()[art.indicator.mask.ravel()]
            zs = probed[rng.choice(len(probed), 48, replace=False)]
            b2 = np.abs(f.u.conj().T @ rhs_vectors(art.matrix.receivers, zs, cfg.ctx)) ** 2
            alpha, passes = inversion.morozov_alphas(f.sigma, b2, art.matrix.delta)
            assert 1 <= passes <= inversion.MOROZOV_MAX_PASSES
            # Newton from the bracket's secant converges in a few passes over
            # the whole map; falling back to bisection would take about 40
            assert art.indicator.morozov.newton_passes <= 8, name
            for c in range(len(zs)):
                ref = brentq_alpha(f.sigma, b2[:, c], art.matrix.delta)
                assert alpha[c] == pytest.approx(ref, rel=1e-12), (name, c)

    def test_degenerate_columns_in_one_batch(self):
        # singular: sigma_min = 0, so the bracket starts at ALPHA_FLOOR
        sigma, delta = np.array([3.0, 1.0, 0.2, 0.0]), 0.1
        b2 = np.array([
            [0.0, 1.0, 1.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 1.0, 1e-6],
        ])  # zero, top singular vector only, range only, null space only, mixed
        alpha, passes = inversion.morozov_alphas(sigma, b2, delta)
        assert passes <= inversion.MOROZOV_MAX_PASSES
        np.testing.assert_array_equal(np.isfinite(alpha), [False, True, True, False, True])
        assert alpha[1] == pytest.approx(delta * sigma[0], rel=1e-12)
        for c in (2, 4):
            assert alpha[c] == pytest.approx(brentq_alpha(sigma, b2[:, c], delta), rel=1e-12)
        # J = 1: the bracket is the one point delta * sigma
        alpha, _ = inversion.morozov_alphas(np.array([2.0]), np.array([[0.0, 4.0]]), 0.05)
        assert alpha[0] == np.inf
        assert alpha[1] == pytest.approx(0.1, rel=1e-12)

    def test_null_space_columns_mixed_with_solvable_ones(self):
        """sigma has zeros: data on their singular vectors alone has no root."""
        rng = np.random.default_rng(21)
        sigma = np.concatenate([np.sort(rng.uniform(0.1, 5.0, 8))[::-1], np.zeros(4)])
        factors = SvdFactors(u=np.eye(12, dtype=complex), sigma=sigma,
                             vh=np.eye(12, dtype=complex))
        delta = 0.05
        b = random_complex(rng, (12, 6))
        null, solvable = [1, 4], [0, 2, 3, 5]
        b[:8, null] = 0.0
        b[8:, solvable] = 0.0
        b2 = np.abs(b) ** 2
        alpha, passes = inversion.morozov_alphas(sigma, b2, delta)
        gnorm = inversion._tikhonov_norms(sigma, b2, alpha)
        assert passes >= 1
        assert np.isinf(alpha[null]).all()
        np.testing.assert_array_equal(gnorm[null], 0.0)
        for c in null:
            assert one_probe_alpha(factors, b[:, c], delta) == np.inf
        for c in solvable:
            assert alpha[c] == pytest.approx(one_probe_alpha(factors, b[:, c], delta),
                                             rel=1e-12)
            assert gnorm[c] > 0

    def test_closed_form_single_component(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            s = float(rng.uniform(0.05, 20.0))
            delta = float(rng.uniform(1e-3, 2.0))
            b = random_complex(rng, 1)
            f = SvdFactors(u=np.eye(1, dtype=complex), sigma=np.array([s]),
                           vh=np.eye(1, dtype=complex))
            alpha = one_probe_alpha(f, b, delta)
            assert alpha == pytest.approx(delta * s, rel=1e-12)
        # data on the top singular vector only: the root is the bracket's top
        for _ in range(25):
            f = svd(random_complex(rng, (int(rng.integers(2, 30)),) * 2))
            delta = float(rng.uniform(1e-3, 2.0))
            b = f.u.conj().T @ (f.u[:, 0] * random_complex(rng, 1))
            alpha = one_probe_alpha(f, b, delta)
            assert alpha == pytest.approx(delta * f.sigma[0], rel=1e-12)

    def test_alpha_vanishes_with_delta(self):
        rng = np.random.default_rng(2)
        a = random_complex(rng, (6, 6))
        f = svd(a)
        phi = random_complex(rng, 6)
        b = f.u.conj().T @ phi
        alphas = [one_probe_alpha(f, b, d) for d in (1e-2, 1e-5, 1e-8)]
        assert alphas[0] > alphas[1] > alphas[2]
        assert alphas[2] < 1e-6

    def test_identity_recomputed_without_svd(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 20))
            a = random_complex(rng, (n, n))
            f = svd(a)
            phi = random_complex(rng, n)
            delta = float(rng.uniform(0.01, 0.5)) * float(f.sigma.max())
            alpha = one_probe_alpha(f, f.u.conj().T @ phi, delta)
            g = tikhonov_solve(f, phi, alpha)
            lhs = np.linalg.norm(a @ g - phi) ** 2
            rhs = delta ** 2 * np.linalg.norm(g) ** 2
            assert abs(lhs - rhs) / rhs < 1e-6

    def test_no_root_for_zero_matrix(self):
        f = svd(np.zeros((4, 4), dtype=complex))
        assert one_probe_alpha(f, np.ones(4, dtype=complex), 0.1) == np.inf

    @pytest.mark.parametrize("delta", [0.0, -0.1])
    def test_no_root_without_positive_delta(self, delta):
        f = svd(np.eye(3, dtype=complex))
        alpha, passes = morozov_alphas(f.sigma, np.ones((3, 2)), delta)
        assert np.isinf(alpha).all() and passes == 0


def tikhonov_norms(f, phi, alpha):
    """(||g||, ||A g - phi||) for g = tikhonov_solve, with A = U diag(sigma) V*."""
    g = tikhonov_solve(f, phi, alpha)
    a = (f.u * f.sigma) @ f.vh
    return np.linalg.norm(g), np.linalg.norm(a @ g - phi)


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(4)
    a = random_complex(rng, (10, 10))
    return svd(a), random_complex(rng, 10)


class TestTikhonov:
    def test_alpha_to_infinity(self, problem):
        f, phi = problem
        g_norm, residual = tikhonov_norms(f, phi, 1e12)
        assert g_norm < 1e-9
        assert residual == pytest.approx(np.linalg.norm(phi), rel=1e-9)

    def test_alpha_to_zero_full_rank(self, problem):
        f, phi = problem
        g_norm, residual = tikhonov_norms(f, phi, 1e-14)
        assert residual < 1e-10 * np.linalg.norm(phi)

    def test_identity_matrix_half_filter(self):
        f = svd(np.eye(7, dtype=complex))
        phi = np.full(7, 1.0 + 0.0j)
        g_norm, _ = tikhonov_norms(f, phi, 1.0)
        assert g_norm == pytest.approx(np.linalg.norm(phi) / 2.0, rel=1e-12)

    def test_monotonicity_in_alpha(self, problem):
        f, phi = problem
        alphas = np.logspace(-6, 4, 30)
        norms, residuals = zip(*(tikhonov_norms(f, phi, a) for a in alphas))
        assert np.all(np.diff(norms) < 0)
        assert np.all(np.diff(residuals) > 0)

    def test_solve_matches_gnorm(self, problem):
        f, phi = problem
        # the SVD-basis norm the indicator map uses is ||g|| of the solution
        g = tikhonov_solve(f, phi, 0.37)
        b2 = np.abs(f.u.conj().T @ phi) ** 2
        g_norm = inversion._tikhonov_norms(f.sigma, b2[:, None], np.array([0.37]))[0]
        assert np.linalg.norm(g) == pytest.approx(g_norm, rel=1e-12)


class TestProbePoint:
    def test_morozov_invariant(self):
        rng = np.random.default_rng(5)
        a = random_complex(rng, (12, 12))
        f = svd(a)
        phi = random_complex(rng, 12)
        delta = 0.05 * float(f.sigma.max())
        alpha = one_probe_alpha(f, f.u.conj().T @ phi, delta)
        g_norm, residual = tikhonov_norms(f, phi, alpha)
        assert abs(residual ** 2 - delta ** 2 * g_norm ** 2) <= (
            1e-6 * delta ** 2 * g_norm ** 2
        )


class TestIndicatorMap:
    GRID = GridSpec(-6.0, 6.0, -6.0, 6.0, 24, 24)

    def test_zero_matrix_flat_map(self):
        receivers = circle_points(5.0, 10)
        matrix = make_field_matrix(np.zeros((10, 10), complex), receivers,
                                   delta=0.1)
        imap = indicator_map(matrix, self.GRID)
        assert not imap.mask.any()
        assert np.all(imap.values == 0.0)
        assert np.all(imap.reciprocal == 0.0)

    def test_morozov_stats(self):
        rng = np.random.default_rng(8)
        receivers = circle_points(5.0, 10)
        matrix = make_field_matrix(random_complex(rng, (10, 10)), receivers, delta=0.05)
        inside = int(((self.GRID.points() ** 2).sum(axis=1) <= 25.0).sum())
        stats = indicator_map(matrix, self.GRID).morozov
        assert stats.probed == inside and stats.unsolvable == 0
        assert 0 < stats.alpha_min <= stats.alpha_median <= stats.alpha_max
        assert 1 <= stats.newton_passes <= inversion.MOROZOV_MAX_PASSES
        # a zero matrix leaves every probe unsolvable and no alpha
        matrix = make_field_matrix(np.zeros((10, 10), complex), receivers, delta=0.1)
        stats = indicator_map(matrix, self.GRID).morozov
        assert stats == inversion.MorozovStats(
            probed=inside, unsolvable=inside, alpha_min=None, alpha_median=None,
            alpha_max=None, newton_passes=0)

    def test_mask_radius_zeroes_outside(self):
        rng = np.random.default_rng(6)
        receivers = circle_points(5.0, 10)
        entries = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        matrix = make_field_matrix(entries, receivers, delta=0.05)
        imap = indicator_map(matrix, self.GRID, mask_radius=5.0)
        pts = self.GRID.points()
        outside = (pts ** 2).sum(axis=1) > 25.0
        assert np.all(imap.values.ravel()[outside] == 0.0)
        assert not imap.mask.ravel()[outside].any()
        inside = ~outside
        assert imap.mask.ravel()[inside].all()
        assert np.all(imap.values.ravel()[inside] > 0.0)

    @pytest.mark.parametrize("radius", [-1.0, math.nan])
    def test_rejects_negative_or_nan_mask_radius(self, radius):
        receivers = circle_points(5.0, 10)
        matrix = make_field_matrix(np.eye(10, dtype=complex), receivers, delta=0.05)
        with pytest.raises(ValueError, match="mask_radius must be >= 0"):
            indicator_map(matrix, self.GRID, mask_radius=radius)

    def test_reciprocal_normalized(self):
        rng = np.random.default_rng(7)
        receivers = circle_points(5.0, 10)
        entries = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        matrix = make_field_matrix(entries, receivers, delta=0.05)
        imap = indicator_map(matrix, self.GRID)
        valid = imap.mask
        assert imap.reciprocal[valid].min() == pytest.approx(0.0, abs=1e-15)
        assert imap.reciprocal[valid].max() == pytest.approx(1.0, abs=1e-15)

    def test_mask_and_reciprocal_match_flat_formula_bitwise(self, preset_runs):
        for _, art in preset_runs.values():
            imap = art.indicator
            mask, reciprocal = mask_and_reciprocal_flat(imap.values)
            np.testing.assert_array_equal(imap.mask, mask)
            assert imap.reciprocal.tobytes() == reciprocal.tobytes()

    @pytest.mark.parametrize("values", [
        np.zeros((3, 4)), np.full((3, 4), 2.5), np.array([[0.0, 1.0, -0.0], [4.0, 0.0, 0.5]]),
    ], ids=["empty", "flat", "mixed"])
    def test_mask_and_reciprocal_of_small_maps(self, values):
        stats = inversion.MorozovStats(probed=0, unsolvable=0, alpha_min=None,
                                       alpha_median=None, alpha_max=None, newton_passes=0)
        imap = inversion.IndicatorMap(GridSpec(0.0, 1.0, 0.0, 1.0, *values.shape),
                                      values, stats)
        mask, reciprocal = mask_and_reciprocal_flat(values)
        np.testing.assert_array_equal(imap.mask, mask)
        assert imap.reciprocal.tobytes() == reciprocal.tobytes()
        # made once, on first read, and shared read-only by every reader
        assert imap.mask is imap.mask and imap.reciprocal is imap.reciprocal
        assert not (imap.mask.flags.writeable or imap.reciprocal.flags.writeable)

    def test_map_retains_only_its_values(self):
        # 8 B per cell of values; the grid and the Morozov stats are O(1)
        rng = np.random.default_rng(10)
        matrix = make_field_matrix(random_complex(rng, (8, 8)), circle_points(5.0, 8),
                                   delta=0.03)
        grid = GridSpec(-3.0, 3.0, -3.0, 3.0, 300, 300)
        # a first call leaves a few KB of one-time allocations; take them
        # before measuring, so the bound measures the map alone
        indicator_map(matrix, GridSpec(-3.0, 3.0, -3.0, 3.0, 4, 4))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            imap = indicator_map(matrix, grid)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert imap.morozov.probed == 300 * 300
        assert retained <= 8 * 300 * 300 + 4096

    def test_peak_per_cell_of_a_kite_c_map(self, preset_runs):
        # the receiver-collision test queries only the probes inside the
        # mask radius; a whole-grid distance array would add 8 B per cell
        cfg, art = preset_runs["kite-C"]
        grid = dataclasses.replace(cfg.grid_spec(), nx=300, ny=300)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            indicator_map(art.matrix, grid, mask_radius=cfg.mask_radius)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 56 * 300 * 300

    @pytest.mark.parametrize("scale, overflows", [(1e76, False), (1e77, True),
                                                  (1e100, True), (1e160, True)])
    def test_rejects_noise_that_overflows_discrepancy_arithmetic(self, scale, overflows):
        # sigma_max = delta = scale, so (delta sigma_max + sigma_max^2)^2 = 4 scale^4
        receivers = circle_points(5.0, 10)
        matrix = make_field_matrix(scale * np.eye(10, dtype=complex), receivers,
                                   delta=scale)
        if not overflows:
            indicator_map(matrix, self.GRID)
            return
        with pytest.raises(ValueError, match="overflows Morozov's discrepancy arithmetic"):
            indicator_map(matrix, self.GRID)

    def test_requires_positive_delta(self):
        receivers = circle_points(5.0, 10)
        matrix = make_field_matrix(np.eye(10, dtype=complex), receivers, delta=0.0)
        with pytest.raises(ValueError):
            indicator_map(matrix, self.GRID)

    def test_probe_consistency_with_scalar_path(self, ctx):
        """The vectorized map agrees with a per-cell Morozov solve."""
        rng = np.random.default_rng(9)
        receivers = circle_points(5.0, 8)
        entries = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        matrix = make_field_matrix(entries, receivers, delta=0.03)
        grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 5, 5)
        imap = indicator_map(matrix, grid)
        f = svd(matrix)
        for idx, z in enumerate(grid.points()):
            phi = rhs_vectors(receivers, z, ctx)[:, 0]
            alpha = one_probe_alpha(f, f.u.conj().T @ phi, 0.03)
            g_norm = np.linalg.norm(tikhonov_solve(f, phi, alpha))
            ix, iy = np.unravel_index(idx, (5, 5))
            assert imap.values[ix, iy] == pytest.approx(g_norm, rel=1e-9)

    def test_cell_on_a_receiver_is_left_out(self, ctx):
        rng = np.random.default_rng(11)
        receivers = circle_points(5.0, 10)
        matrix = make_field_matrix(random_complex(rng, (10, 10)), receivers, delta=0.05)
        grid = GridSpec(-5.0, 5.0, -5.0, 5.0, 11, 11)
        on_receiver = (grid.points() == receivers.points[0]).all(axis=1)
        assert on_receiver.sum() == 1
        with pytest.raises(SingularityError):
            rhs_vectors(receivers, grid.points()[on_receiver][0], ctx)
        imap = indicator_map(matrix, grid)
        assert not imap.mask.ravel()[on_receiver].any()
        assert imap.values.ravel()[on_receiver] == 0.0
        # 81 cells lie within radius 5; (5, 0) and (-5, 0) sit on receivers
        assert imap.mask.sum() == 79


class TestIndicatorMemory:
    def test_peak_stays_at_the_rhs_vectors_peak(self, preset_runs):
        """The Morozov solve holds no more than the right-hand sides did."""
        cfg, art = preset_runs["kite-C"]
        zs = cfg.grid_spec().points()[art.indicator.mask.ravel()]

        def traced_peak(fn):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                fn()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        rhs_peak = traced_peak(lambda: rhs_vectors(art.matrix.receivers, zs, cfg.ctx))
        map_peak = traced_peak(lambda: indicator_map(
            art.matrix, cfg.grid_spec(), mask_radius=cfg.mask_radius))
        assert art.indicator.morozov.unsolvable == 0
        assert map_peak <= 1.10 * rhs_peak

    def test_peak_stays_below_one_probe_matrix(self, preset_runs):
        """The probes stream through in blocks, so no J x P array exists."""
        cfg, art = preset_runs["kite-C"]
        j, p = art.matrix.entries.shape[0], art.indicator.morozov.probed
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            indicator_map(art.matrix, cfg.grid_spec(), mask_radius=cfg.mask_radius)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert p > 2 * (inversion.MOROZOV_BLOCK // j)
        assert peak < j * p * np.dtype(complex).itemsize


class TestIndicatorBlocks:
    def test_one_slope_pass_per_newton_pass(self, preset_runs, monkeypatch):
        """The no-root test at ALPHA_FLOOR makes no J x block pass of its own."""
        cfg, art = preset_runs["kite-C"]
        slope, solve = inversion._discrepancy_slope, inversion.morozov_alphas
        slope_calls, blocks = [], []

        def slope_spy(*args):
            slope_calls.append(len(args[1]))
            return slope(*args)

        def solve_spy(*args):
            before = len(slope_calls)
            alpha, passes = solve(*args)
            blocks.append((passes, len(slope_calls) - before))
            return alpha, passes

        monkeypatch.setattr(inversion, "_discrepancy_slope", slope_spy)
        monkeypatch.setattr(inversion, "morozov_alphas", solve_spy)
        imap = indicator_map(art.matrix, cfg.grid_spec(), mask_radius=cfg.mask_radius)
        block = inversion.MOROZOV_BLOCK // art.matrix.size
        assert len(blocks) == -(-imap.morozov.probed // block) > 1
        assert all(passes >= 1 and calls == passes for passes, calls in blocks)
        # a block with no root returns before any pass
        slope_calls.clear()
        alpha, passes = solve(np.array([2.0, 0.0]), np.array([[0.0, 1.0], [1.0, 1.0]]), 0.1)
        assert np.isinf(alpha).all() and passes == 0 and slope_calls == []

    def test_j80_blocks_of_conjugated_u_bitwise(self, preset_runs):
        """At J = 80 a block holds 512 probes, and U conjugated in place is
        U.conj() to the bit."""
        cfg, art = preset_runs["kite-C"]
        matrix = art.matrix
        assert inversion.MOROZOV_BLOCK // matrix.size == 512
        imap = indicator_map(matrix, cfg.grid_spec(), mask_radius=cfg.mask_radius)
        assert imap.morozov.unsolvable == 0
        zs = cfg.grid_spec().points()[imap.mask.ravel()]
        f = svd(matrix)
        uh = f.u.conj().T
        gnorm = []
        for start in range(0, len(zs), 512):
            b2 = np.abs(uh @ rhs_vectors(matrix.receivers, zs[start:start + 512], cfg.ctx))
            b2 *= b2
            alpha, _ = inversion.morozov_alphas(f.sigma, b2, matrix.delta)
            gnorm.append(inversion._tikhonov_norms(f.sigma, b2, alpha))
        assert imap.values[imap.mask].tobytes() == np.concatenate(gnorm).tobytes()

    def test_block_size_does_not_change_results(self, preset_runs, monkeypatch):
        """Any block size gives the single-block map."""
        cfg, art = preset_runs["kite-C"]
        j = art.matrix.size
        # 15 x 239 = 3585 = 7 * 512 + 1 probes, all well inside the receivers
        grid = GridSpec(-3.0, 3.0, -3.0, 3.0, 15, 239)
        solve = inversion.morozov_alphas

        def streamed(block):
            alphas = []

            def spy(*args):
                alpha, passes = solve(*args)
                alphas.append(alpha)
                return alpha, passes

            # MOROZOV_BLOCK counts J x probe entries
            monkeypatch.setattr(inversion, "MOROZOV_BLOCK", block * j)
            monkeypatch.setattr(inversion, "morozov_alphas", spy)
            imap = indicator_map(art.matrix, grid)
            assert len(alphas) == -(-imap.morozov.probed // block)
            return imap, np.concatenate(alphas)

        ref, ref_alpha = streamed(10 ** 6)
        assert ref.morozov.probed == ref_alpha.size == 3585
        for block in (1, 7, 512):
            imap, alpha = streamed(block)
            np.testing.assert_array_equal(imap.mask, ref.mask)
            assert imap.morozov.unsolvable == ref.morozov.unsolvable
            np.testing.assert_allclose(imap.values, ref.values, rtol=1e-14, atol=0)
            np.testing.assert_allclose(alpha, ref_alpha, rtol=1e-12, atol=0)


class TestIndicatorRuntime:
    def test_reference_size_under_budget(self):
        # one SVD plus 100x100 filtered probes for J=80 stays well under 10 s
        import time

        rng = np.random.default_rng(11)
        receivers = circle_points(5.0, 80)
        entries = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))
        matrix = make_field_matrix(entries, receivers, delta=0.05)
        grid = GridSpec(-6.0, 6.0, -6.0, 6.0, 100, 100)
        t0 = time.perf_counter()
        imap = indicator_map(matrix, grid)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        assert imap.mask.any()


class TestSerialization:
    @pytest.fixture()
    def imap(self):
        rng = np.random.default_rng(10)
        receivers = circle_points(5.0, 10)
        entries = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        matrix = make_field_matrix(entries, receivers, delta=0.05)
        return indicator_map(matrix, GridSpec(-6.0, 6.0, -6.0, 6.0, 12, 10))

    def test_csv_shape_and_values(self, imap, tmp_path):
        path = tmp_path / "indicator.csv"
        write_indicator_csv(imap, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,raw,reciprocal,mask"
        assert len(lines) == 1 + 12 * 10
        first = lines[1].split(",")
        assert float(first[0]) == -6.0
        assert float(first[1]) == -6.0

    def test_raw_csv(self, imap, tmp_path):
        path = tmp_path / "indicator_raw.csv"
        write_indicator_raw_csv(imap, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,value,mask"
        assert len(lines) == 1 + 12 * 10

    def test_pgm_header_and_payload(self, imap, tmp_path):
        path = tmp_path / "indicator.pgm"
        write_indicator_pgm(imap, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n12 10\n255\n")
        payload = blob.split(b"255\n", 1)[1]
        assert len(payload) == 12 * 10
        img = np.frombuffer(payload, dtype=np.uint8).reshape(10, 12)
        # top row of the image is the largest y row of the grid
        np.testing.assert_array_equal(
            img[0], np.round(255 * imap.reciprocal[:, -1]).astype(np.uint8)
        )
