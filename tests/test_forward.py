import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from passivelsm import forward, geometry
from passivelsm.acquisition import near_field_matrix
from passivelsm.forward import (
    GeometryError,
    PointScatterers,
    ResonanceWarning,
    TruncationWarning,
    assemble_single_layer,
    mie_scattered_circle,
    scattered_matrix,
    solve_charges,
    total_field_matrix,
)
from passivelsm.geometry import BoundaryCurve, circle_points, discretize, place_scatterer
from passivelsm.specfun import WaveContext, green2d

from oracles import (
    kress_weights_cosine_sum,
    outward_unit_normals,
    reflection_coefficients_at_rim,
    scattered_matrix_masked,
    self_block_separate_j0_y0,
    trig_resample,
)

FIRST_J0_ZERO = 2.404825557695773


def system_matrix(system):
    """The unfactored matrix of an assembled system."""
    return forward._system_matrix(system.boundaries, system.ctx)


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
            m = system_matrix(system)
            assert np.linalg.norm(m - m.T) / np.linalg.norm(m) < 1e-10

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("curve", [
        BoundaryCurve(kind="kite", center=(2.0, 2.0), scale=0.5),
        BoundaryCurve(kind="ellipse", params=(0.4, 0.25), rotation=0.3),
        BoundaryCurve(kind="circle", params=(0.25,)),
    ], ids=["kite", "ellipse", "circle"])
    def test_matrix_bitwise_symmetric(self, ctx, curve, n):
        # assemble_single_layer factorizes the transpose in place, so it
        # depends on this
        m = forward._system_matrix((discretize(curve, n),), ctx)
        assert np.array_equal(m, m.T)

    KITE = BoundaryCurve(kind="kite", center=(2.0, 2.0), scale=0.5)
    TWO_CIRCLES = (BoundaryCurve(kind="circle", params=(0.2,), center=(-1.5, 0.0)),
                   BoundaryCurve(kind="circle", params=(0.3,), center=(1.5, 0.5)))

    @pytest.mark.parametrize("curves, n", [
        ((KITE,), 64), ((KITE,), 256), ((KITE,), 1024), (TWO_CIRCLES, 64),
    ], ids=["kite-64", "kite-256", "kite-1024", "two-circles-64"])
    def test_lu_equals_lu_of_the_matrix_bitwise(self, ctx, curves, n):
        system = assemble_single_layer([discretize(c, n) for c in curves], ctx)
        lu, piv = scipy.linalg.lu_factor(system_matrix(system))
        assert system.size == n * len(curves)
        # one read-only array of every boundary's nodes, made at assembly
        assert system.nodes is system.nodes and not system.nodes.flags.writeable
        np.testing.assert_array_equal(system.nodes,
                                      np.vstack([b.nodes for b in system.boundaries]))
        assert system.lu[0].tobytes() == lu.tobytes()
        np.testing.assert_array_equal(system.lu[1], piv)

    @pytest.mark.parametrize("n", [32, 64, 128, 256, 512, 1024, 2048])
    def test_kress_column_matches_cosine_sum(self, n):
        column = forward._kress_column(n)
        d = np.minimum(np.arange(n), n - np.arange(n))
        weights = column.copy()
        weights[1:] += np.log(4.0 * np.sin(np.pi * d[1:] / n) ** 2)
        ref = kress_weights_cosine_sum(n)
        assert np.abs(weights - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(column[1:], column[:0:-1])

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("curve", [
        BoundaryCurve(kind="kite", center=(2.0, 2.0), scale=0.5),
        BoundaryCurve(kind="ellipse", params=(0.4, 0.25), rotation=0.3),
        BoundaryCurve(kind="circle", params=(0.25,)),
    ], ids=["kite", "ellipse", "circle"])
    def test_self_block_equals_separate_j0_y0_formula_bitwise(self, ctx, curve, n):
        bnd = discretize(curve, n)
        assert (forward._self_block(bnd, ctx).tobytes()
                == self_block_separate_j0_y0(bnd, ctx.k).tobytes())

    def test_self_block_peak_memory(self, ctx):
        # the complex block is 2 n^2 float64 values; the real distances,
        # then the log term and its circulant, add 2 more
        n = 512
        boundary = discretize(BoundaryCurve(kind="kite", center=(2.0, 2.0), scale=0.5), n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            forward._self_block(boundary, ctx)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4.1 * n * n * 8

    def test_assembly_peak_memory(self, ctx):
        # the complex matrix, factorized in place, is 2 n^2 float64 values;
        # the self block's n x n temporaries and the 1-norm's absolute
        # values must stay within 5 more
        n = 512
        boundary = discretize(BoundaryCurve(kind="kite", center=(2.0, 2.0), scale=0.5), n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assemble_single_layer(boundary, ctx)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 7 * n * n * 8

    def test_system_retains_only_its_lu(self, ctx):
        # the LU factors are 2 n^2 float64 values; the pivots and the
        # boundary's nodes and speeds are O(n)
        n = 512
        boundary = discretize(BoundaryCurve(kind="kite", center=(2.0, 2.0), scale=0.5), n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            system = assemble_single_layer(boundary, ctx)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert system.size == n
        assert retained <= 2 * n * n * 8 + 64 * n

    def test_condition_estimate_benign(self, circle_system):
        assert circle_system.condition_estimate < 1e4

    def test_condition_estimate_brackets_exact_1_norm(self, circle_system, kite_system):
        # gecon's estimate is a lower bound of the 1-norm condition number,
        # up to the rounding of the explicit inverse (1e-12 relative)
        for system in (circle_system, kite_system):
            exact = np.linalg.cond(system_matrix(system), 1)
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
        assert system.size == 0 and system.nodes.shape == (0, 2)
        assert total_field_matrix(system, (1.0, 0.0), (3.0, 0.0))[0, 0] == pytest.approx(
            green2d(ctx, (1.0, 0.0), (3.0, 0.0))[0, 0]
        )


class TestSolve:
    def test_boundary_residual(self, kite_system, ctx):
        y = np.array([5.0, 0.0])
        charges = solve_charges(kite_system, y)[:, 0]
        rhs = -green2d(ctx, kite_system.nodes, y)[:, 0]
        resid = system_matrix(kite_system) @ charges - rhs
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
        bnd = kite_system.boundaries[0]
        boundary_point = bnd.nodes[0]
        normal = outward_unit_normals(bnd.curve, bnd.n)[0]
        y = boundary_point + 1e-4 * ctx.wavelength * normal
        with pytest.raises(GeometryError):
            solve_charges(kite_system, y)


class TestEvaluation:
    def test_total_field_vanishes_approaching_boundary(self, kite_system, ctx):
        bnd = kite_system.boundaries[0]
        y = np.array([5.0, 0.0])
        charges = solve_charges(kite_system, y)
        base = bnd.nodes[7]
        normal = outward_unit_normals(bnd.curve, bnd.n)[7]
        scale = abs(green2d(ctx, base + 0.5 * normal, y)[0, 0])
        vals = []
        for eps in (2e-2, 1e-2, 5e-3):
            x = base + eps * normal
            u = green2d(ctx, x, y)[0, 0] + scattered_matrix(kite_system, charges, x)[0, 0]
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
        x = bnd.nodes[33] + 1e-3 * outward_unit_normals(bnd.curve, bnd.n)[33]
        with pytest.warns(forward.AccuracyWarning):
            us = scattered_matrix(kite_system, charges, x)[0, 0]
        phi = green2d(ctx, x, y)[0, 0]
        assert abs(us + phi) < 2e-2 * abs(phi)

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
        total = green2d(ctx, xb, y)[:, 0] + mie_scattered_circle(ctx, radius, center, xb, y)
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
    @pytest.mark.parametrize("centers, radii", [
        ([[0.0, 0.0]], [math.nan]),
        ([[0.0, 0.0]], [math.inf]),
        ([[math.nan, 0.0]], [0.01]),
        ([[0.0, 0.0], [1.0, -math.inf]], [0.01, 0.01]),
    ], ids=["radius-nan", "radius-inf", "center-nan", "center-inf"])
    def test_rejects_non_finite(self, ctx, centers, radii):
        with pytest.raises(ValueError, match="must be finite"):
            PointScatterers(centers, radii, ctx)

    @pytest.mark.parametrize("centers, radii", [((), ()), (np.zeros((0, 2)), [])],
                             ids=["empty-tuple", "empty-array"])
    def test_rejects_no_centers(self, ctx, centers, radii):
        with pytest.raises(ValueError, match="at least one center"):
            PointScatterers(centers, radii, ctx)

    @pytest.mark.parametrize("centers", [[[0.0, 0.0], [0.01, 0.0]], [[0.0, 0.0], [0.02, 0.0]]],
                             ids=["overlapping", "touching"])
    def test_constructor_refuses_circles_that_meet(self, ctx, centers):
        with pytest.raises(GeometryError, match="point scatterers 1 and 2 overlap"):
            PointScatterers(centers, [0.01, 0.01], ctx)

    def test_symmetry(self, ctx):
        model = PointScatterers([[0.0, 0.0], [1.0, 1.0]], [0.01, 0.02], ctx)
        a = np.array([3.0, 0.5])
        b = np.array([-2.0, 1.5])
        assert model.scattered(a, b)[0, 0] == pytest.approx(
            model.scattered(b, a)[0, 0], rel=1e-12
        )

    def test_reflection_coefficients_equal_rim_formula_bitwise(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            radii = 10.0 ** rng.uniform(-8.0, 0.0, rng.integers(1, 6))
            ctx = WaveContext(rng.uniform(0.1, 50.0))
            centers = np.zeros((len(radii), 2))
            centers[:, 0] = 3.0 * np.arange(len(radii))  # radii < 1: clear of each other
            model = PointScatterers(centers, radii, ctx)
            assert (model.reflection_coefficients().tobytes()
                    == reflection_coefficients_at_rim(ctx, model.radii).tobytes())

    def test_reflection_shrinks_logarithmically(self, ctx):
        small = PointScatterers([[0.0, 0.0]], [1e-3], ctx)
        tiny = PointScatterers([[0.0, 0.0]], [1e-6], ctx)
        lam_small = abs(small.reflection_coefficients()[0])
        lam_tiny = abs(tiny.reflection_coefficients()[0])
        assert lam_tiny < lam_small
        # 1/|log r| scaling: ratio of logs, not of radii
        assert lam_small / lam_tiny == pytest.approx(
            math.log(ctx.k * 1e-6) / math.log(ctx.k * 1e-3), rel=0.15
        )

    def test_born_matches_bem_small_circle(self, ctx):
        radius = 0.01
        curve = BoundaryCurve(kind="circle", params=(radius,))
        system = assemble_single_layer(discretize(curve, 64), ctx)
        model = PointScatterers([[0.0, 0.0]], [radius], ctx)
        y = 5.0 * np.array([math.cos(1.0), math.sin(1.0)])
        theta = 2 * np.pi * np.arange(16) / 16 + 0.05
        obs = 5.0 * np.column_stack([np.cos(theta), np.sin(theta)])
        charges = solve_charges(system, y[None, :])
        bem = scattered_matrix(system, charges, obs)[:, 0]
        born = model.scattered(obs, y)[:, 0]
        assert np.abs(born - bem).max() / np.abs(bem).max() < 0.05


class TestInPlace:
    """Each in-place build equals the expression it replaced, bit for bit."""

    SOURCES = np.array([[5.0, 0.0], [0.0, -4.0], [-3.0, 3.0], [40.0, 12.0]])

    def test_solve_charges(self, kite_system, ctx):
        ref = scipy.linalg.lu_solve(kite_system.lu,
                                    -green2d(ctx, kite_system.nodes, self.SOURCES))
        assert solve_charges(kite_system, self.SOURCES).tobytes() == ref.tobytes()

    def test_total_field(self, kite_system, ctx):
        # u = E M^-1 (-phi(nodes, y)) + phi(x, y), E the receivers' Green rows
        receivers = 6.0 * np.column_stack([np.cos(np.arange(9.0)), np.sin(np.arange(9.0))])
        response = scipy.linalg.lu_solve(
            kite_system.lu, green2d(ctx, kite_system.nodes, receivers)).T
        rhs = -green2d(ctx, self.SOURCES, kite_system.nodes).T
        ref = response @ rhs + green2d(ctx, receivers, self.SOURCES)
        assert (total_field_matrix(kite_system, receivers, self.SOURCES).tobytes()
                == ref.tobytes())

    @pytest.mark.parametrize("spacings", [(6.0, 9.0), (1.0, 2.0, 3.0, 4.0)],
                             ids=["all-far", "near-and-far"])
    def test_scattered_field_of_one_boundary(self, circle_system, spacings):
        charges = solve_charges(circle_system, self.SOURCES)
        r = 0.25 + np.array(spacings)[:, None] * circle_system.boundaries[0].max_spacing
        theta = 2 * np.pi * np.arange(7) / 7 + 0.1
        pts = np.column_stack([(r * np.cos(theta)).ravel(), (r * np.sin(theta)).ravel()])
        assert (scattered_matrix(circle_system, charges, pts).tobytes()
                == scattered_matrix_masked(circle_system, charges, pts).tobytes())

    def test_scattered_field_of_two_boundaries(self, ctx):
        curves = [BoundaryCurve(kind="circle", params=(0.2,), center=(-1.5, 0.0)),
                  BoundaryCurve(kind="circle", params=(0.3,), center=(1.5, 0.5))]
        system = assemble_single_layer([discretize(c, 64) for c in curves], ctx)
        charges = solve_charges(system, self.SOURCES)
        # near the first circle only, then far from both
        pts = np.array([[-1.5, 0.25], [-1.2, 0.0], [0.0, 2.0], [3.0, -3.0]])
        assert (scattered_matrix(system, charges, pts).tobytes()
                == scattered_matrix_masked(system, charges, pts).tobytes())


class TestReceiverResponse:
    """scattered applies the kept response E(points) M^-1 to each new set of
    right-hand sides; a kept response gives the bytes of a new one."""

    SOURCES = np.array([[5.0, 0.0], [0.0, -4.0], [-3.0, 3.0]])
    OTHER_SOURCES = np.array([[4.0, 4.0], [-6.0, 1.0]])

    @staticmethod
    def ring(radius, count, phase=0.1):
        theta = phase + 2 * np.pi * np.arange(count) / count
        return radius * np.column_stack([np.cos(theta), np.sin(theta)])

    def point_sets(self, circle_system):
        # far only, and two rings near the circle (1 and 4 node spacings)
        spacing = circle_system.boundaries[0].max_spacing
        near = np.vstack([self.ring(0.25 + f * spacing, 7) for f in (1.0, 4.0)])
        return self.ring(6.0, 9), near

    def test_hit_equals_miss_bitwise(self, circle_system, ctx):
        far, near = self.point_sets(circle_system)
        system = replace(circle_system)   # a new system, with nothing kept
        first = {key: system.scattered(pts, self.SOURCES)
                 for key, pts in (("far", far), ("near", near))}
        # alternating point sets, a repeated call, and a fresh system
        for pts_key, pts in (("far", far), ("far", far), ("near", near), ("far", far)):
            assert system.scattered(pts, self.SOURCES).tobytes() == first[pts_key].tobytes()
            fresh = assemble_single_layer(circle_system.boundaries, ctx)
            assert fresh.scattered(pts, self.SOURCES).tobytes() == first[pts_key].tobytes()

    def test_other_sources_reuse_the_response(self, kite_system):
        pts = self.ring(6.0, 9)
        system = replace(kite_system)
        system.scattered(pts, self.SOURCES)
        hit = system.scattered(pts, self.OTHER_SOURCES)
        miss = replace(kite_system).scattered(pts, self.OTHER_SOURCES)
        assert hit.tobytes() == miss.tobytes()
        ref = scattered_matrix(kite_system, solve_charges(kite_system, self.OTHER_SOURCES), pts)
        assert np.abs(hit - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_a_hit_checks_only_the_sources(self, kite_system, monkeypatch):
        checked = []

        def counting(system, points, what="point", original=forward.require_exterior):
            checked.append(what)
            return original(system, points, what)

        monkeypatch.setattr(forward, "require_exterior", counting)
        system = replace(kite_system)
        pts = self.ring(6.0, 9)
        system.scattered(pts, self.SOURCES)
        assert checked == ["receiver", "source"]
        system.scattered(pts.copy(), self.OTHER_SOURCES)
        assert checked == ["receiver", "source", "source"]
        with pytest.raises(GeometryError, match="receiver lies inside"):
            system.scattered((2.0, 2.0), self.SOURCES)

    # of a, b, a, b, c, a only the first use of each set and the rebuild of
    # a, which c dropped, solve; in a, b, a, c the hit on a makes c drop b
    @pytest.mark.parametrize("uses, solves", [("ababca", "abca"), ("abaca", "abc")])
    def test_keeps_the_two_latest_point_sets(self, kite_system, monkeypatch, uses, solves):
        """Each new set drops the least recently used response before it
        solves, and every call gives the bytes of a fresh system."""
        refs, alive = [], []

        def response_spy(system, points, original=forward._response):
            alive.append(sum(ref() is not None for ref in refs))
            response = original(system, points)
            refs.append(weakref.ref(response))
            return response

        monkeypatch.setattr(forward, "_response", response_spy)
        sets = {"a": self.ring(6.0, 9), "b": self.ring(7.0, 11), "c": self.ring(8.0, 9)}
        fresh = {name: replace(kite_system).scattered(pts, self.SOURCES).tobytes()
                 for name, pts in sets.items()}
        refs.clear()
        alive.clear()
        system = replace(kite_system)
        solved = ""
        for name in uses:
            before = len(alive)
            assert system.scattered(sets[name], self.SOURCES).tobytes() == fresh[name]
            solved += name * (len(alive) - before)
        assert solved == solves
        assert alive == [0] + [1] * (len(solves) - 1)

    def test_retains_at_most_two_responses(self, kite_system):
        count = 200
        n = kite_system.size
        system = replace(kite_system)
        a, b, c = self.ring(6.0, count), self.ring(7.0, count), self.ring(8.0, count)
        replace(kite_system).scattered(a, self.SOURCES)   # first-call allocations
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for pts in (a, b, a, c):
                system.scattered(pts, self.SOURCES)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # two (P, n) complex responses; the slack (1 % of them) holds their
        # keys, the points' 2 x 3.2 KB of bytes, and a few small objects
        assert retained <= 2 * count * n * 16 + 16384

    @pytest.mark.parametrize("factor", [2, 4])
    @pytest.mark.parametrize("n", [32, 64, 256])
    def test_refine_transpose_is_the_adjoint(self, n, factor):
        rng = np.random.default_rng(n + factor)
        g = rng.standard_normal((n * factor, 3)) + 1j * rng.standard_normal((n * factor, 3))
        nu = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        lhs = g.T @ (trig_resample(nu, factor) / factor)
        rhs = forward._refine_transpose(g, factor).T @ nu
        scale = np.linalg.norm(g) * np.linalg.norm(nu)
        assert np.abs(lhs - rhs).max() <= 1e-13 * scale

    def test_near_points_match_mie(self, circle_system, ctx):
        _, near = self.point_sets(circle_system)
        with warnings.catch_warnings():
            warnings.simplefilter("error", forward.AccuracyWarning)
            us = replace(circle_system).scattered(near, self.SOURCES)
        ref = np.column_stack([mie_scattered_circle(ctx, 0.25, (0.0, 0.0), near, y)
                               for y in self.SOURCES])
        assert np.abs(us - ref).max() < 1e-6 * np.abs(ref).min()

    def test_warns_once_per_boundary_on_every_call(self, ctx):
        curves = [BoundaryCurve(kind="circle", params=(0.2,), center=(-1.5, 0.0)),
                  BoundaryCurve(kind="circle", params=(0.3,), center=(1.5, 0.5))]
        system = assemble_single_layer([discretize(c, 64) for c in curves], ctx)
        # half a node spacing from each circle, and one far point
        pts = np.vstack([
            c.center + (c.params[0] + 0.5 * b.max_spacing) * self.ring(1.0, 5)
            for c, b in zip(curves, system.boundaries)] + [np.array([[0.0, 4.0]])])
        for sources in (self.SOURCES, self.OTHER_SOURCES):   # a miss, then a hit
            with pytest.warns(forward.AccuracyWarning) as record:
                system.scattered(pts, sources)
            assert len(record) == 2


class TestMultipleScatterers:
    def test_two_circles_symmetric_and_reciprocal(self, ctx):
        curves = [
            BoundaryCurve(kind="circle", params=(0.2,), center=(-1.5, 0.0)),
            BoundaryCurve(kind="circle", params=(0.3,), center=(1.5, 0.5)),
        ]
        system = assemble_single_layer([discretize(c, 64) for c in curves], ctx)
        m = system_matrix(system)
        assert np.array_equal(m, m.T)
        a, b = np.array([0.0, 3.0]), np.array([3.0, -2.0])
        assert total_field_matrix(system, a, b)[0, 0] == pytest.approx(
            total_field_matrix(system, b, a)[0, 0], rel=1e-8
        )


class TestHelmholtzKirchhoff:
    def test_identity_for_green_function(self, ctx):
        x = np.array([1.2, -0.7])
        y = np.array([-2.3, 0.4])
        lhs = green2d(ctx, x, y)[0, 0]
        lhs = lhs - np.conj(lhs)
        errors = []
        for radius in (25.0, 50.0, 100.0):
            nq = 512
            th = 2 * np.pi * np.arange(nq) / nq
            z = radius * np.column_stack([np.cos(th), np.sin(th)])
            w = 2 * np.pi * radius / nq
            px, py = green2d(ctx, np.vstack([x, y]), z)
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


@pytest.fixture(scope="module", params=["kite", "three-circles"])
def model_case(request, ctx, kite_system):
    """A forward model and its bad receivers: inside it, and within the
    1e-3-wavelength clearance."""
    if request.param == "kite":
        bnd = kite_system.boundaries[0]
        normal = outward_unit_normals(bnd.curve, bnd.n)[0]
        return kite_system, {"inside": [(2.0, 2.0)],
                             "near": [bnd.nodes[0] + 5e-4 * ctx.wavelength * normal]}
    model = PointScatterers([[-2.0, -2.0], [2.0, 2.0], [2.0, -2.0]], [0.01] * 3, ctx)
    # half a radius inside, on a centre, and 5e-4 wavelengths beyond a rim
    return model, {"inside": [(2.005, 2.0), (2.0, 2.0)], "near": [(2.0105, 2.0)]}


class TestModelInterface:
    """Both forward models answer scattered alike, refusing bad points and sources."""

    A = 5.0 * np.column_stack([np.cos(0.1 + np.arange(5) * 1.3),
                               np.sin(0.1 + np.arange(5) * 1.3)])
    B = 7.0 * np.column_stack([np.cos(0.5 + np.arange(4) * 1.6),
                               np.sin(0.5 + np.arange(4) * 1.6)])

    def test_scattered_is_points_by_sources(self, model_case):
        model, _ = model_case
        mat = model.scattered(self.A, self.B)
        assert mat.shape == (len(self.A), len(self.B)) and mat.dtype == complex
        single = model.scattered(self.A[2], self.B[1])
        assert single.shape == (1, 1)
        assert single[0, 0] == pytest.approx(mat[2, 1], rel=1e-12)

    def test_reciprocity(self, model_case):
        model, _ = model_case
        ab = model.scattered(self.A, self.B)
        assert np.abs(ab - model.scattered(self.B, self.A).T).max() <= (
            1e-12 * np.abs(ab).max())

    @pytest.mark.parametrize("case, message", [
        ("inside", "inside"), ("near", "within 0.001 wavelengths"),
    ])
    def test_bad_point_is_refused(self, model_case, case, message):
        model, bad = model_case
        clean = circle_points(5.0, 8)
        for point in bad[case]:
            with pytest.raises(GeometryError, match=f"receiver lies .*{message}"):
                model.scattered(point, self.B)
            receivers = replace(clean, points=np.vstack([clean.points, point]))
            with pytest.raises(GeometryError, match=f"receiver lies .*{message}"):
                near_field_matrix(receivers, model)
            with pytest.raises(GeometryError, match=f"source lies .*{message}"):
                model.scattered(self.A, point)
