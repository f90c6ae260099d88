import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from passivelsm import geometry, pipeline
from passivelsm.geometry import (
    BoundaryCurve,
    boundary_distance,
    circle_points,
    circle_points_uniform,
    contains_points,
    discretize,
    place_scatterer,
)
from passivelsm.specfun import WaveContext

from oracles import (
    KITE_BOX_MIDDLE,
    canonical_kite,
    circle_layout_expression,
    contains_by_unit_normal,
    outward_unit_normals,
    placed_curve,
    polygon_contains_even_odd,
)

PRESET_SCENES = ["ellipse-N", "ellipse-C", "kite-C", "wavenumber(4pi,160)",
                 "setup2(200)", "limited-aperture(I)"]


def _sampled_curve(curve):
    return curve.point(2.0 * np.pi * np.arange(geometry.POLYGON_SAMPLES)
                       / geometry.POLYGON_SAMPLES)


def _random_curves(count, seed):
    """Kites, ellipses and circles of size 0.2-3 wavelengths, k in [pi, 8 pi],
    any rotation and a center in [-3, 3]^2."""
    rng = np.random.default_rng(seed)
    shapes = [BoundaryCurve(kind="kite"),
              BoundaryCurve(kind="ellipse", params=(1.5, 1.0)),
              BoundaryCurve(kind="circle", params=(1.0,))]
    for i in range(count):
        ctx = WaveContext(k=rng.uniform(np.pi, 8.0 * np.pi))
        shape = replace(shapes[i % 3], rotation=rng.uniform(0.0, 2.0 * np.pi))
        size = rng.uniform(0.2, 3.0) * ctx.wavelength
        yield place_scatterer(shape, ctx, rng.uniform(-3.0, 3.0, 2), size), rng


class TestCanonicalKite:
    """The kite's coefficient row against the explicit formula."""

    kite = BoundaryCurve(kind="kite")

    @pytest.mark.parametrize("t, expected", [
        (0.0, [1.0, 0.0]), (np.pi, [-1.0, 0.0]), (np.pi / 2, [-1.3, 1.5])])
    def test_reference_points(self, t, expected):
        np.testing.assert_allclose(canonical_kite(t)[0], expected, atol=1e-15)
        np.testing.assert_allclose(self.kite.point(t), expected - KITE_BOX_MIDDLE,
                                   atol=1e-15)

    def test_mirror_symmetry(self):
        t = np.linspace(0.1, np.pi - 0.1, 40)
        upper = self.kite.point(t)
        lower = self.kite.point(2 * np.pi - t)
        np.testing.assert_allclose(upper[:, 0], lower[:, 0], atol=1e-14)
        np.testing.assert_allclose(upper[:, 1], -lower[:, 1], atol=1e-14)

    def test_diameter_is_vertical_chord(self):
        t = 2 * np.pi * np.arange(1024) / 1024
        pts = self.kite.point(t)
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        assert d.max() == pytest.approx(self.kite.canonical_diameter(), abs=1e-9)

    def test_bounding_box_middle_is_origin(self):
        pts = self.kite.point(2 * np.pi * np.arange(2 ** 16) / 2 ** 16)
        for axis in (0, 1):
            assert pts[:, axis].min() + pts[:, axis].max() == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("kind, params", [
    ("kite", ()), ("ellipse", (1.5, 1.0)), ("ellipse", (0.4, 2.0)), ("circle", (0.7,))])
def test_point_and_derivative_match_explicit_formulas(kind, params):
    """Random t, center, scale and rotation, within 1e-14 of the diameter."""
    rng = np.random.default_rng(21)
    for _ in range(20):
        center = rng.uniform(-3.0, 3.0, 2)
        scale, rotation = rng.uniform(0.1, 2.0), rng.uniform(0.0, 2.0 * np.pi)
        curve = BoundaryCurve(kind=kind, params=params, center=tuple(center),
                              scale=scale, rotation=rotation)
        t = rng.uniform(0.0, 2.0 * np.pi, 64)
        point, deriv = placed_curve(kind, params, center, scale, rotation, t)
        tol = 1e-14 * curve.diameter
        np.testing.assert_allclose(curve.point(t), point, rtol=0, atol=tol)
        np.testing.assert_allclose(curve.derivative(t), deriv, rtol=0, atol=tol)
        # a scalar parameter gives one point
        np.testing.assert_allclose(curve.point(t[0]), point[0], rtol=0, atol=tol)


class TestPlacement:
    def test_ellipse_scale(self, ctx):
        curve = BoundaryCurve(kind="ellipse", params=(1.5, 1.0))
        placed = place_scatterer(curve, ctx, (-2.0, -2.0), 0.5)
        assert placed.scale == pytest.approx(0.5 / 3.0, abs=1e-15)
        assert placed.center == (-2.0, -2.0)
        assert placed.diameter == pytest.approx(0.5, abs=1e-15)

    def test_circle_scale(self, ctx):
        curve = BoundaryCurve(kind="circle", params=(1.0,))
        placed = place_scatterer(curve, ctx, (0.0, 0.0), 0.5)
        assert placed.scale == pytest.approx(0.25, abs=1e-15)

    def test_kite_size_and_center(self, ctx):
        curve = BoundaryCurve(kind="kite")
        placed = place_scatterer(curve, ctx, (2.0, 2.0), 0.5)
        t = 2 * np.pi * np.arange(2048) / 2048
        pts = placed.point(t)
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        assert d.max() == pytest.approx(0.5, abs=1e-6)
        # bounding box centered on the requested point
        mid_x = (pts[:, 0].min() + pts[:, 0].max()) / 2
        mid_y = (pts[:, 1].min() + pts[:, 1].max()) / 2
        assert mid_x == pytest.approx(2.0, abs=1e-6)
        assert mid_y == pytest.approx(2.0, abs=1e-6)

    def test_rotation_preserves_size(self, ctx):
        curve = BoundaryCurve(kind="ellipse", params=(1.5, 1.0), rotation=0.7)
        placed = place_scatterer(curve, ctx, (1.0, 0.0), 0.8)
        t = 2 * np.pi * np.arange(512) / 512
        pts = placed.point(t)
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        assert d.max() == pytest.approx(0.8, abs=1e-4)


@pytest.mark.parametrize("curve", [
    BoundaryCurve(kind="circle", params=(0.35,), center=(1.0, -0.5)),
    BoundaryCurve(kind="ellipse", params=(1.5, 1.0), center=(0.3, 0.2), scale=0.4),
    BoundaryCurve(kind="kite", center=(-1.0, 2.0), scale=0.25, rotation=0.4),
])
class TestDiscretization:
    def test_normals_unit_and_outward(self, curve):
        bnd = discretize(curve, 128)
        normals = outward_unit_normals(curve, 128)
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
        outward = ((bnd.nodes - np.asarray(curve.center)) * normals).sum(axis=1)
        assert np.all(outward > 0)

    def test_weights_positive_and_sum_to_perimeter(self, curve):
        bnd = discretize(curve, 256)
        assert np.all(bnd.weights > 0)
        ref = discretize(curve, 4096).perimeter
        assert bnd.perimeter == pytest.approx(ref, rel=1e-10)

    def test_perimeter_spectral_convergence(self, curve):
        ref = discretize(curve, 8192).perimeter
        errors = [abs(discretize(curve, n).perimeter - ref) for n in (16, 32, 64)]
        for coarse, fine in zip(errors, errors[1:]):
            if coarse < 1e-13 * ref:
                break
            assert coarse / max(fine, 1e-17) > 4.0


class TestDiscretizeValidation:
    def test_rejects_odd_or_tiny(self):
        curve = BoundaryCurve(kind="circle", params=(1.0,))
        with pytest.raises(ValueError):
            discretize(curve, 33)
        with pytest.raises(ValueError):
            discretize(curve, 2)


class TestCirclePoints:
    def test_equispaced(self):
        ps = circle_points(5.0, 4, beta=0.0)
        angles = np.arctan2(ps.points[:, 1], ps.points[:, 0]) % (2 * np.pi)
        np.testing.assert_allclose(
            np.sort(angles), [0.0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-12
        )

    def test_equispaced_matches_reference_layout(self):
        ps = circle_points(5.0, 80, beta=0.0)
        theta = 2 * np.pi * np.arange(80) / 80
        expected = 5.0 * np.column_stack([np.cos(theta), np.sin(theta)])
        np.testing.assert_allclose(ps.points, expected, atol=1e-12)

    def test_beta_zero_seed_independent(self):
        a = circle_points(5.0, 16, beta=0.0, seed=1)
        b = circle_points(5.0, 16, beta=0.0, seed=99)
        np.testing.assert_array_equal(a.points, b.points)

    def test_on_circle_radius(self):
        ps = circle_points(50.0, 80, beta=0.1, seed=3)
        np.testing.assert_allclose(
            np.sqrt((ps.points ** 2).sum(axis=1)), 50.0, atol=1e-10
        )

    def test_beta_bounds_and_seed_variation(self):
        count, beta = 40, 0.6
        a = circle_points(1.0, count, beta=beta, seed=1)
        b = circle_points(1.0, count, beta=beta, seed=2)
        assert not np.allclose(a.points, b.points)
        for ps in (a, b):
            angles = np.arctan2(ps.points[:, 1], ps.points[:, 0]) % (2 * np.pi)
            base = 2 * np.pi * np.arange(count) / count
            offset = (angles - base) % (2 * np.pi)
            assert np.all(offset <= 2 * np.pi * beta / count + 1e-12)

    def test_same_seed_reproduces(self):
        a = circle_points(1.0, 8, beta=0.4, seed=5)
        b = circle_points(1.0, 8, beta=0.4, seed=5)
        np.testing.assert_array_equal(a.points, b.points)

    def test_arc(self):
        ps = circle_points(2.0, 10, beta=0.0, arc=(np.pi / 2, 3 * np.pi / 2))
        angles = np.arctan2(ps.points[:, 1], ps.points[:, 0]) % (2 * np.pi)
        assert np.all(angles >= np.pi / 2 - 1e-12)
        assert np.all(angles <= 3 * np.pi / 2 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            circle_points(1.0, 0)
        with pytest.raises(ValueError):
            circle_points(1.0, 4, beta=1.0)
        with pytest.raises(ValueError):
            circle_points(1.0, 4, arc=(2.0, 1.0))


class TestUniformPoints:
    def test_deterministic_and_in_range(self):
        a = circle_points_uniform(3.0, 50, seed=11)
        b = circle_points_uniform(3.0, 50, seed=11)
        np.testing.assert_array_equal(a.points, b.points)
        assert not np.allclose(
            a.points, circle_points_uniform(3.0, 50, seed=12).points
        )
        np.testing.assert_allclose(
            np.sqrt((a.points ** 2).sum(axis=1)), 3.0, atol=1e-10
        )


class TestLayoutBuild:
    """The layouts are built in place, bitwise as the whole-array expression."""

    @pytest.mark.parametrize("kwargs", [
        dict(radius=5.0, count=80),
        dict(radius=50.0, count=1000, beta=0.3, seed=4),
        dict(radius=2.0, count=777, beta=0.9, seed=1, arc=(0.3, 2.9)),
        dict(radius=50.0, count=40000, beta=0.1, seed=9),
        dict(radius=3.0, count=50, seed=11, uniform=True),
        dict(radius=7.0, count=40001, seed=2, arc=(-1.0, 2.0), uniform=True),
    ], ids=["equispaced", "perturbed", "arc", "40000", "uniform", "uniform-arc"])
    def test_points_equal_the_whole_array_expression(self, kwargs):
        kwargs = dict(kwargs)
        layout = circle_points_uniform if kwargs.pop("uniform", False) else circle_points
        expected = circle_layout_expression(uniform=layout is circle_points_uniform, **kwargs)
        assert layout(**kwargs).points.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("layout", [
        lambda count: circle_points(50.0, count, beta=0.1, seed=1),
        lambda count: circle_points(50.0, count),
        lambda count: circle_points_uniform(50.0, count, seed=1),
    ], ids=["perturbed", "equispaced", "uniform"])
    def test_build_peaks_at_24_bytes_per_source(self, layout):
        # the angles (8 B) beside the points (16 B) or a draw (8 B)
        count = 200000
        layout(count)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            layout(count)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= pipeline.SOURCE_BYTES * count + 16384


@pytest.mark.parametrize("layout", [
    lambda **kw: circle_points(beta=0.1, seed=3, **kw),
    lambda **kw: circle_points_uniform(seed=3, **kw),
], ids=["perturbed", "uniform"])
class TestLayoutValidation:
    # (2 r)^2 overflows at r = 1e160
    @pytest.mark.parametrize("radius, reason", [
        (0.0, "positive"), (-1.0, "positive"), (np.nan, "finite"), (np.inf, "finite"),
        (1e160, "too large")])
    def test_rejects_bad_radius(self, layout, radius, reason):
        with pytest.raises(ValueError, match=f"radius .*{reason}"):
            layout(radius=radius, count=8)

    @pytest.mark.parametrize("arc", [(2.0, 1.0), (1.0, 1.0), (np.nan, 1.0),
                                     (0.0, np.nan), (-np.inf, 1.0), (0.0, np.inf)])
    def test_rejects_bad_arc(self, layout, arc):
        with pytest.raises(ValueError, match="arc"):
            layout(radius=2.0, count=8, arc=arc)

    def test_rejects_arc_wider_than_the_circle(self, layout):
        with pytest.raises(ValueError, match="more than the full circle"):
            layout(radius=2.0, count=8, arc=(0.0, 4.0 * np.pi))

    def test_accepts_a_full_circle_arc_at_any_rotation(self, layout):
        # 14 % of these spans exceed 2 pi in float64, by rounding alone; 640
        # is the largest source count of the source-sweep benchmark
        rotations = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, 10_000)
        spans = np.array([geometry._layout_span(2.0, 640, (r, r + 2.0 * np.pi))[1]
                          for r in rotations])
        wide = rotations[spans > 2.0 * np.pi]
        assert len(wide) > 1000
        points = layout(radius=2.0, count=640, arc=(wide[0], wide[0] + 2.0 * np.pi))
        assert points.span == spans[spans > 2.0 * np.pi][0]

    # |Sigma| as run configs computed it from the radius and the arc ends
    @pytest.mark.parametrize("arc, length", [(None, 2.0 * np.pi * 50.0),
                                             ((0.5, 2.0), 50.0 * (2.0 - 0.5))])
    def test_length_is_the_radius_times_the_span(self, layout, arc, length):
        assert layout(radius=50.0, count=8, arc=arc).length == length

    # at 1e17 float64 angles are 16 apart: 80 points 0.4 apart land on 3 angles
    @pytest.mark.parametrize("arc, count", [((1e17, 1.0000000000000003e17), 80),
                                            ((1e17, 1e17 + 16.0), 8)])
    def test_rejects_arc_float64_cannot_place(self, layout, arc, count):
        with pytest.raises(ValueError, match=r"float64 angles are 16 apart, too coarse"):
            layout(radius=2.0, count=count, arc=arc)

    def test_rejects_empty_layout(self, layout):
        with pytest.raises(ValueError, match="count"):
            layout(radius=2.0, count=0)


class TestInteriorQueries:
    @pytest.mark.parametrize("query", [contains_points, boundary_distance])
    def test_point_whose_squared_distance_overflows_is_refused(self, query):
        # the k-d tree answers such a point with distance inf and an index
        # one past the last vertex
        curve = BoundaryCurve(kind="kite")
        with pytest.raises(ValueError, match="too far from the curve"):
            query(curve, [[0.0, 0.0], [1e160, 0.0]])

    def test_contains_circle(self):
        curve = BoundaryCurve(kind="circle", params=(1.0,), center=(2.0, 0.0))
        pts = np.array([[2.0, 0.0], [2.9, 0.0], [3.2, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(
            contains_points(curve, pts), [True, True, False, False]
        )

    def test_contains_kite(self):
        curve = BoundaryCurve(kind="kite", center=(0.0, 0.0), scale=1.0)
        assert contains_points(curve, [[0.0, 0.0]])[0]
        assert not contains_points(curve, [[2.0, 0.0]])[0]

    def test_boundary_distance_circle(self):
        curve = BoundaryCurve(kind="circle", params=(1.0,))
        d = boundary_distance(curve, [[2.0, 0.0], [0.0, 0.0], [0.5, 0.0]])
        np.testing.assert_allclose(d, [1.0, 1.0, 0.5], atol=1e-4)

    def test_boundary_distance_kite_equals_brute_force(self):
        curve = BoundaryCurve(kind="kite", center=(0.3, -0.2), scale=0.8, rotation=0.4)
        rng = np.random.default_rng(5)
        t = rng.uniform(0.0, 2.0 * np.pi, 500)
        near = curve.point(t) + rng.uniform(-1e-3, 1e-3, (500, 2))
        pts = np.vstack([near, rng.uniform(-3.0, 3.0, (500, 2))])
        poly = curve.point(2.0 * np.pi * np.arange(2048) / 2048)
        brute = np.sqrt(((pts[:, None, :] - poly[None, :, :]) ** 2).sum(-1)).min(axis=1)
        assert np.array_equal(boundary_distance(curve, pts), brute)

    @pytest.mark.parametrize("name", PRESET_SCENES)
    def test_contains_matches_even_odd_on_preset_point_sets(self, name):
        cfg = pipeline.preset(name)
        curve = place_scatterer(pipeline._CURVE_BUILDERS[cfg.scatterer_kind](), cfg.ctx,
                                cfg.scatterer_center, cfg.scatterer_size)
        receivers = circle_points(cfg.receiver_radius, cfg.receiver_count,
                                  arc=cfg.receiver_arc)
        vertices = _sampled_curve(curve)
        for pts in (cfg.grid_spec().points(), receivers.points,
                    pipeline._build_sources(cfg).points):
            np.testing.assert_array_equal(
                contains_points(curve, pts), polygon_contains_even_odd(vertices, pts))

    @pytest.mark.parametrize("name", PRESET_SCENES)
    def test_contains_matches_unit_normal_formula_on_preset_point_sets(self, name):
        """The sign against the unnormalised normal at the nearest vertex
        is the sign against the unit normal of the full discretization."""
        cfg = pipeline.preset(name)
        curve = place_scatterer(pipeline._CURVE_BUILDERS[cfg.scatterer_kind](), cfg.ctx,
                                cfg.scatterer_center, cfg.scatterer_size)
        receivers = circle_points(cfg.receiver_radius, cfg.receiver_count,
                                  arc=cfg.receiver_arc)
        poly = discretize(curve, geometry.POLYGON_SAMPLES)
        normals = outward_unit_normals(curve, geometry.POLYGON_SAMPLES)
        for pts in (cfg.grid_spec().points(), receivers.points,
                    pipeline._build_sources(cfg).points):
            np.testing.assert_array_equal(
                contains_points(curve, pts),
                contains_by_unit_normal(poly.nodes, normals, pts))

    def test_contains_matches_unit_normal_formula_off_random_curves(self):
        """Also within 1e-2 vertex spacings of the curve, on both sides."""
        for curve, rng in _random_curves(12, seed=14):
            poly = discretize(curve, geometry.POLYGON_SAMPLES)
            normals = outward_unit_normals(curve, geometry.POLYGON_SAMPLES)
            t = rng.uniform(0.0, 2.0 * np.pi, 1000)
            offsets = rng.uniform(-1e-2, 1e-2, (1000, 1)) * poly.max_spacing
            c, d = np.asarray(curve.center), curve.diameter
            pts = np.vstack([curve.point(t) + offsets * rng.standard_normal((1000, 2)),
                             c + rng.uniform(-d, d, (1000, 2))])
            np.testing.assert_array_equal(
                contains_points(curve, pts),
                contains_by_unit_normal(poly.nodes, normals, pts))

    def test_contains_matches_even_odd_on_random_curves(self):
        for curve, rng in _random_curves(24, seed=12):
            c, d = np.asarray(curve.center), curve.diameter
            pts = np.vstack([c + rng.uniform(-d, d, (1200, 2)),
                             c + rng.uniform(-6.0 * d, 6.0 * d, (300, 2))])
            expected = polygon_contains_even_odd(_sampled_curve(curve), pts)
            np.testing.assert_array_equal(contains_points(curve, pts), expected)

    def test_repeated_queries_equal_first_and_brute_force(self):
        curve = BoundaryCurve(kind="kite", center=(0.3, -0.2), scale=0.8, rotation=0.4)
        rng = np.random.default_rng(6)
        pts = rng.uniform(-3.0, 3.0, (300, 2))
        poly = _sampled_curve(curve)
        sq = ((pts[:, None, :] - poly[None, :, :]) ** 2).sum(-1)
        brute = np.sqrt(sq.min(axis=1))
        off = pts - poly[sq.argmin(axis=1)]
        d = curve.derivative(2.0 * np.pi * sq.argmin(axis=1) / geometry.POLYGON_SAMPLES)
        brute_inside = off[:, 0] * d[:, 1] - off[:, 1] * d[:, 0] < 0
        first = boundary_distance(curve, pts), contains_points(curve, pts)
        second = boundary_distance(curve, pts), contains_points(curve, pts)
        for a, b, expected in zip(first, second, (brute, brute_inside)):
            assert np.array_equal(a, b)
            assert np.array_equal(a, expected)

    def test_moved_curve_answers_for_its_own_placement(self):
        curve = BoundaryCurve(kind="kite", center=(0.0, 0.0))
        assert contains_points(curve, [[0.0, 0.0]])[0]   # fills the cache
        moved = replace(curve, center=(10.0, 0.0))
        assert not contains_points(moved, [[0.0, 0.0]])[0]
        assert contains_points(moved, [[10.0, 0.0]])[0]
        pts = [[10.0, 0.0], [0.0, 0.0], [11.0, 1.0]]
        fresh = BoundaryCurve(kind="kite", center=(10.0, 0.0))
        assert np.array_equal(boundary_distance(moved, pts), boundary_distance(fresh, pts))
        assert moved._polygon[2] is not curve._polygon[2]

    def test_polygon_is_built_once_and_read_only(self, tree_builds):
        curve = BoundaryCurve(kind="ellipse", params=(1.0, 0.5))
        for _ in range(3):
            contains_points(curve, [[0.0, 0.0]])
            boundary_distance(curve, [[2.0, 0.0]])
        assert len(tree_builds) == 1
        t, vertices, _ = curve._polygon
        assert not t.flags.writeable and not vertices.flags.writeable
        with pytest.raises(ValueError):
            vertices[0, 0] = 1.0

    def test_normal_offsets_classified_by_sign(self):
        """Points 1e-2 node spacings off the curve along its exact normal."""
        for curve, rng in _random_curves(12, seed=13):
            t = rng.uniform(0.0, 2.0 * np.pi, 1000)
            deriv = curve.derivative(t)
            speed = np.hypot(deriv[:, 0], deriv[:, 1])
            normal = np.column_stack([deriv[:, 1], -deriv[:, 0]]) / speed[:, None]
            spacing = speed * 2.0 * np.pi / geometry.POLYGON_SAMPLES
            sign = np.where(np.arange(len(t)) % 2 == 0, 1.0, -1.0)
            pts = curve.point(t) + (sign * 1e-2 * spacing)[:, None] * normal
            np.testing.assert_array_equal(contains_points(curve, pts), sign < 0)
