import math
import tracemalloc
import warnings

import numpy as np
import pytest

from passivelsm import forward, geometry
from passivelsm.forward import (
    GeometryError,
    PointScattererConfig,
    ResonanceWarning,
    TruncationWarning,
    assemble_single_layer,
    mie_scattered_circle,
    point_scatterer_scattered,
    scattered_matrix,
    solve_charges,
    total_field_matrix,
)
from passivelsm.geometry import BoundaryCurve, discretize, place_scatterer
from passivelsm.specfun import green2d

from oracles import kress_weights_cosine_sum

FIRST_J0_ZERO = 2.404825557695773


@pytest.fixture(scope="module")
def circle_system(ctx):
    curve = BoundaryCurve(kind="circle", params=(0.25,))
    return assemble_single_layer(discretize(curve, 128), ctx)


@pytest.fixture(scope="module")
def kite_system(ctx):
    curve = place_scatterer(BoundaryCurve(kind="kite"), ctx, (2.0, 2.0), 0.5)
    return assemble_single_layer(discretize(curve, 256), ctx)


class TestAssembly:
    def test_matrix_symmetric(self, circle_system, kite_system):
        for system in (circle_system, kite_system):
            m = system.matrix
            assert np.linalg.norm(m - m.T) / np.linalg.norm(m) < 1e-10

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("curve", [
        BoundaryCurve(kind="kite", center=(2.0, 2.0), scale=0.5),
        BoundaryCurve(kind="ellipse", params=(0.4, 0.25), rotation=0.3),
        BoundaryCurve(kind="circle", params=(0.25,)),
    ], ids=["kite", "ellipse", "circle"])
    def test_matrix_bitwise_symmetric(self, ctx, curve, n):
        m = assemble_single_layer(discretize(curve, n), ctx).matrix
        assert np.array_equal(m, m.T)

    @pytest.mark.parametrize("n", [32, 64, 128, 256, 512, 1024, 2048])
    def test_kress_column_matches_cosine_sum(self, n):
        column = forward._kress_column(n)
        d = np.minimum(np.arange(n), n - np.arange(n))
        weights = column.copy()
        weights[1:] += np.log(4.0 * np.sin(np.pi * d[1:] / n) ** 2)
        ref = kress_weights_cosine_sum(n)
        assert np.abs(weights - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(column[1:], column[:0:-1])

    def test_assembly_peak_memory(self, ctx):
        # the complex matrix and its LU factors are 4 n^2 float64 values;
        # the self block's n x n temporaries must stay within 5 more
        n = 512
        boundary = discretize(BoundaryCurve(kind="kite", center=(2.0, 2.0), scale=0.5), n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assemble_single_layer(boundary, ctx)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 9 * n * n * 8

    def test_condition_estimate_benign(self, circle_system):
        assert circle_system.condition_estimate < 1e4

    def test_condition_estimate_brackets_exact_1_norm(self, circle_system, kite_system):
        # gecon's estimate is a lower bound of the 1-norm condition number,
        # up to the rounding of the explicit inverse (1e-12 relative)
        for system in (circle_system, kite_system):
            exact = np.linalg.cond(system.matrix, 1)
            assert exact / 10.0 <= system.condition_estimate <= exact * (1.0 + 1e-12)

    def test_resonance_warning(self, ctx):
        # ka at the first zero of J_0 makes k^2 an interior eigenvalue
        radius = FIRST_J0_ZERO / ctx.k
        curve = BoundaryCurve(kind="circle", params=(radius,))
        with pytest.warns(ResonanceWarning):
            system = assemble_single_layer(discretize(curve, 64), ctx)
        assert system.condition_estimate > 1e10

    def test_rejects_small_or_odd_node_counts(self, ctx):
        curve = BoundaryCurve(kind="circle", params=(0.25,))
        with pytest.raises(ValueError):
            assemble_single_layer(discretize(curve, 16), ctx)

    def test_empty_system(self, ctx):
        system = assemble_single_layer((), ctx)
        assert system.size == 0
        assert total_field_matrix(system, (1.0, 0.0), (3.0, 0.0))[0, 0] == pytest.approx(
            green2d(ctx, (1.0, 0.0), (3.0, 0.0))
        )


class TestSolve:
    def test_boundary_residual(self, kite_system, ctx):
        y = np.array([5.0, 0.0])
        charges = solve_charges(kite_system, y)[:, 0]
        rhs = -green2d(ctx, kite_system.nodes, y)
        resid = kite_system.matrix @ charges - rhs
        assert np.abs(resid).max() < 1e-8 * np.abs(rhs).max()

    def test_batch_columns_match_single_source_solves(self, kite_system):
        # each column of a batched solve equals its batch-of-one solve
        sources = np.array([[5.0, 0.0], [0.0, 5.0], [-4.0, -3.0]])
        charges = solve_charges(kite_system, sources)
        assert charges.shape == (kite_system.size, len(sources))
        for s, y in enumerate(sources):
            np.testing.assert_allclose(
                charges[:, s], solve_charges(kite_system, y)[:, 0], rtol=1e-12
            )

    def test_source_inside_rejected(self, kite_system):
        with pytest.raises(GeometryError):
            solve_charges(kite_system, (2.0, 2.0))

    def test_source_too_close_rejected(self, kite_system, ctx):
        boundary_point = kite_system.boundaries[0].nodes[0]
        normal = kite_system.boundaries[0].normals[0]
        y = boundary_point + 1e-4 * ctx.wavelength * normal
        with pytest.raises(GeometryError):
            solve_charges(kite_system, y)


class TestEvaluation:
    def test_total_field_vanishes_approaching_boundary(self, kite_system, ctx):
        bnd = kite_system.boundaries[0]
        y = np.array([5.0, 0.0])
        charges = solve_charges(kite_system, y)
        base = bnd.nodes[7]
        normal = bnd.normals[7]
        scale = abs(green2d(ctx, base + 0.5 * normal, y))
        vals = []
        for eps in (2e-2, 1e-2, 5e-3):
            x = base + eps * normal
            u = green2d(ctx, x, y) + scattered_matrix(kite_system, charges, x)[0, 0]
            vals.append(abs(u))
        # vanishes linearly in the distance to the sound-soft boundary
        assert vals[0] < 0.25 * scale
        assert vals[2] < 0.07 * scale
        assert vals[0] / vals[1] == pytest.approx(2.0, rel=0.3)
        assert vals[1] / vals[2] == pytest.approx(2.0, rel=0.3)

    def test_scattered_on_boundary_cancels_incident(self, kite_system, ctx):
        # u_s = -phi on dD is the defining condition; probing at a tenth of
        # a node spacing trips the conservative accuracy warning by design
        bnd = kite_system.boundaries[0]
        y = np.array([4.0, -1.0])
        charges = solve_charges(kite_system, y)
        x = bnd.nodes[33] + 1e-3 * bnd.normals[33]
        with pytest.warns(forward.AccuracyWarning):
            us = scattered_matrix(kite_system, charges, x)[0, 0]
        assert abs(us + green2d(ctx, x, y)) < 2e-2 * abs(green2d(ctx, x, y))

    def test_reciprocity(self, kite_system):
        a = np.array([5.0, 0.3])
        b = np.array([-1.0, 4.2])
        uab = total_field_matrix(kite_system, a, b)[0, 0]
        uba = total_field_matrix(kite_system, b, a)[0, 0]
        assert uab == pytest.approx(uba, rel=1e-6)

    def test_radiation_decay(self, kite_system):
        direction = np.array([math.cos(0.3), math.sin(0.3)])
        y = np.array([5.0, 0.0])
        charges = solve_charges(kite_system, y)
        amps = []
        for radius in (100.0, 300.0, 900.0):
            us = scattered_matrix(kite_system, charges, radius * direction)[0, 0]
            amps.append(abs(us) * math.sqrt(radius))
        # sqrt(R)-scaled magnitude settles toward a constant
        assert abs(amps[2] - amps[1]) < abs(amps[1] - amps[0])
        assert amps[2] == pytest.approx(amps[1], rel=1e-2)

    def test_matrix_and_pointwise_evaluation_agree(self, kite_system):
        # each batch entry equals its batch-of-one call
        sources = np.array([[5.0, 0.0], [0.0, 5.0]])
        points = np.array([[3.0, -1.0], [-2.0, 0.5]])
        charges = solve_charges(kite_system, sources)
        mat = scattered_matrix(kite_system, charges, points)
        for i, p in enumerate(points):
            for s in range(2):
                assert mat[i, s] == pytest.approx(
                    scattered_matrix(kite_system, charges[:, [s]], [p])[0, 0], rel=1e-12
                )


class TestNearBoundaryBatch:
    RADIUS = 0.25
    SOURCES = np.array([[5.0, 0.0], [0.0, -4.0], [-3.0, 3.0]])

    def ring(self, system, spacings):
        r = self.RADIUS + spacings * system.boundaries[0].max_spacing
        theta = 2 * np.pi * np.arange(7) / 7 + 0.1
        return r * np.column_stack([np.cos(theta), np.sin(theta)])

    def mie(self, ctx, pts):
        return np.column_stack([
            mie_scattered_circle(ctx, self.RADIUS, (0.0, 0.0), pts, y)
            for y in self.SOURCES
        ])

    def test_many_sources_match_mie(self, circle_system, ctx):
        # 1..4 node spacings from the boundary, three source columns at
        # once; the rings inside 3 spacings take the upsampled near path
        charges = solve_charges(circle_system, self.SOURCES)
        pts = np.vstack([self.ring(circle_system, f) for f in (1.0, 2.0, 3.0, 4.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", forward.AccuracyWarning)
            us = scattered_matrix(circle_system, charges, pts)
        ref = self.mie(ctx, pts)
        assert np.abs(us - ref).max() < 1e-6 * np.abs(ref).min()

    def test_closest_ring_warns_once_and_matches_mie(self, circle_system, ctx):
        charges = solve_charges(circle_system, self.SOURCES)
        pts = self.ring(circle_system, 0.5)
        with pytest.warns(forward.AccuracyWarning) as record:
            us = scattered_matrix(circle_system, charges, pts)
        assert len(record) == 1  # one per call and boundary, not per entry
        ref = self.mie(ctx, pts)
        assert np.abs(us - ref).max() < 1e-6 * np.abs(ref).min()


class TestMie:
    def test_boundary_condition(self, ctx):
        radius, center = 0.25, np.array([0.0, 0.0])
        y = np.array([5.0, 0.0])
        theta = 2 * np.pi * np.arange(90) / 90 + 0.01
        xb = center + radius * np.column_stack([np.cos(theta), np.sin(theta)])
        total = green2d(ctx, xb, y) + mie_scattered_circle(ctx, radius, center, xb, y)
        assert np.abs(total).max() < 1e-10

    def test_symmetry(self, ctx):
        a = np.array([3.0, 1.0])
        b = np.array([-2.0, 2.5])
        uab = mie_scattered_circle(ctx, 0.25, (0.3, -0.2), a, b)[0]
        uba = mie_scattered_circle(ctx, 0.25, (0.3, -0.2), b, a)[0]
        assert uab == pytest.approx(uba, rel=1e-12)

    def test_matches_nystrom(self, ctx):
        radius = 0.25
        curve = BoundaryCurve(kind="circle", params=(radius,))
        system = assemble_single_layer(discretize(curve, 256), ctx)
        y = np.array([5.0, 0.0])
        theta = 2 * np.pi * np.arange(64) / 64 + 0.03
        obs = 5.0 * np.column_stack([np.cos(theta), np.sin(theta)])
        ref = mie_scattered_circle(ctx, radius, (0.0, 0.0), obs, y)
        charges = solve_charges(system, y[None, :])
        us = scattered_matrix(system, charges, obs)[:, 0]
        assert np.abs(us - ref).max() / np.abs(ref).max() < 1e-6

    def test_truncation_warning(self, ctx):
        with pytest.warns(TruncationWarning):
            mie_scattered_circle(ctx, 0.25, (0.0, 0.0),
                                 np.array([1.0, 0.0]), np.array([0.0, 2.0]),
                                 truncation=2)

    def test_rejects_negative_truncation(self, ctx):
        with pytest.raises(ValueError):
            mie_scattered_circle(ctx, 0.25, (0.0, 0.0),
                                 np.array([1.0, 0.0]), np.array([0.0, 2.0]),
                                 truncation=-1)

    def test_rejects_interior_points(self, ctx):
        with pytest.raises(GeometryError):
            mie_scattered_circle(ctx, 0.25, (0.0, 0.0),
                                 np.array([0.1, 0.0]), np.array([5.0, 0.0]))


class TestPointScatterer:
    def test_symmetry(self, ctx):
        config = PointScattererConfig(centers=[[0.0, 0.0], [1.0, 1.0]],
                                      radii=[0.01, 0.02])
        a = np.array([3.0, 0.5])
        b = np.array([-2.0, 1.5])
        assert point_scatterer_scattered(config, ctx, a, b)[0, 0] == pytest.approx(
            point_scatterer_scattered(config, ctx, b, a)[0, 0], rel=1e-12
        )

    def test_reflection_shrinks_logarithmically(self, ctx):
        small = PointScattererConfig(centers=[[0.0, 0.0]], radii=[1e-3])
        tiny = PointScattererConfig(centers=[[0.0, 0.0]], radii=[1e-6])
        lam_small = abs(small.reflection_coefficients(ctx)[0])
        lam_tiny = abs(tiny.reflection_coefficients(ctx)[0])
        assert lam_tiny < lam_small
        # 1/|log r| scaling: ratio of logs, not of radii
        assert lam_small / lam_tiny == pytest.approx(
            math.log(ctx.k * 1e-6) / math.log(ctx.k * 1e-3), rel=0.15
        )

    def test_born_matches_bem_small_circle(self, ctx):
        radius = 0.01
        curve = BoundaryCurve(kind="circle", params=(radius,))
        system = assemble_single_layer(discretize(curve, 64), ctx)
        config = PointScattererConfig(centers=[[0.0, 0.0]], radii=[radius])
        y = 5.0 * np.array([math.cos(1.0), math.sin(1.0)])
        theta = 2 * np.pi * np.arange(16) / 16 + 0.05
        obs = 5.0 * np.column_stack([np.cos(theta), np.sin(theta)])
        charges = solve_charges(system, y[None, :])
        bem = scattered_matrix(system, charges, obs)[:, 0]
        born = point_scatterer_scattered(config, ctx, obs, y)[:, 0]
        assert np.abs(born - bem).max() / np.abs(bem).max() < 0.05


class TestMultipleScatterers:
    def test_two_circles_symmetric_and_reciprocal(self, ctx):
        curves = [
            BoundaryCurve(kind="circle", params=(0.2,), center=(-1.5, 0.0)),
            BoundaryCurve(kind="circle", params=(0.3,), center=(1.5, 0.5)),
        ]
        system = assemble_single_layer([discretize(c, 64) for c in curves], ctx)
        m = system.matrix
        assert np.array_equal(m, m.T)
        a, b = np.array([0.0, 3.0]), np.array([3.0, -2.0])
        assert total_field_matrix(system, a, b)[0, 0] == pytest.approx(
            total_field_matrix(system, b, a)[0, 0], rel=1e-8
        )


class TestHelmholtzKirchhoff:
    def test_identity_for_green_function(self, ctx):
        x = np.array([1.2, -0.7])
        y = np.array([-2.3, 0.4])
        lhs = green2d(ctx, x, y)
        lhs = lhs - np.conj(lhs)
        errors = []
        for radius in (25.0, 50.0, 100.0):
            nq = 512
            th = 2 * np.pi * np.arange(nq) / nq
            z = radius * np.column_stack([np.cos(th), np.sin(th)])
            w = 2 * np.pi * radius / nq
            px = green2d(ctx, x[None, :], z)
            py = green2d(ctx, y[None, :], z)
            quad = 2j * ctx.k * w * np.sum(np.conj(px) * py)
            errors.append(abs(lhs - quad) / abs(lhs))
        assert errors[-1] < 1e-2
        assert errors[0] > errors[1] > errors[2]

    def test_identity_for_total_fields(self, kite_system, ctx):
        x = np.array([1.2, -0.7])
        y = np.array([-2.3, 0.4])
        u_ref = total_field_matrix(kite_system, x, y)[0, 0]
        lhs = u_ref - np.conj(u_ref)
        errors = []
        for radius in (25.0, 50.0, 100.0):
            nq = 512
            th = 2 * np.pi * np.arange(nq) / nq
            z = radius * np.column_stack([np.cos(th), np.sin(th)])
            w = 2 * np.pi * radius / nq
            u = total_field_matrix(kite_system, np.vstack([x, y]), z)
            quad = 2j * ctx.k * w * np.sum(np.conj(u[0]) * u[1])
            errors.append(abs(lhs - quad) / abs(lhs))
        assert errors[-1] < 1e-2
        assert errors[0] > errors[1] > errors[2]


class TestSpectralConvergence:
    def test_error_vs_mie_reaches_floor(self, ctx):
        """Superalgebraic convergence: either the error drops 10x per
        doubling or it has already hit the 1e-10 floor (it has, for this
        analytic configuration, at every admissible node count)."""
        radius = 0.25
        curve = BoundaryCurve(kind="circle", params=(radius,))
        y = np.array([5.0, 0.0])
        theta = 2 * np.pi * np.arange(64) / 64 + 0.03
        obs = 5.0 * np.column_stack([np.cos(theta), np.sin(theta)])
        ref = mie_scattered_circle(ctx, radius, (0.0, 0.0), obs, y)
        scale = np.abs(ref).max()
        errs = []
        for n in (64, 128, 256):
            system = assemble_single_layer(discretize(curve, n), ctx)
            charges = solve_charges(system, y[None, :])
            us = scattered_matrix(system, charges, obs)[:, 0]
            errs.append(np.abs(us - ref).max() / scale)
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / max(fine, 1e-300) > 10.0 or max(coarse, fine) < 1e-10
