"""Scatterer boundary curves, their discretization, and point arrays.

Supported curves are the circle, the axis-aligned ellipse, and the
standard kite (cos t + 0.65 cos 2t - 0.65, 1.5 sin t).  Each is a
trigonometric polynomial of degree <= 2, held as one table of real
Fourier coefficients: the (x, y) rows c0, c1, c2, s1, s2 of the basis
[1, cos t, cos 2t, sin t, sin 2t], with c0 putting the middle of the
canonical bounding box at the origin.  A curve's points and derivatives
are that basis, or its t-derivative, times the table scaled and rotated,
and the points are then translated to the requested center.  All
parametrizations are smooth, closed, counterclockwise, and
non-self-intersecting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
import scipy.spatial

from .seeding import substream
from .specfun import WaveContext

# Rows c0, c1, c2, s1, s2 of the canonical kite.  Its x spans [-97/65, 1]
# (min at cos t = -5/13), so c0 shifts it by 16/65; y spans [-3/2, 3/2],
# and its diameter 3 is the vertical chord t = pi/2 .. 3*pi/2.
_KITE_COEFFICIENTS = np.array(
    [[-0.65 + 16.0 / 65.0, 0.0], [1.0, 0.0], [0.65, 0.0], [0.0, 1.5], [0.0, 0.0]])

# Vertices of the polygon that stands in for a curve in interior and
# distance queries.
POLYGON_SAMPLES = 2048

# Largest coordinate magnitude, or radius, whose squared distances across
# (up to twice it) stay within double range.
MAX_COORDINATE = 0.5 * np.sqrt(np.finfo(float).max)


ROLE_RECEIVER = "receiver"
ROLE_RANDOM_SOURCE = "random-source"


def _fourier_basis(t, derivative: bool = False):
    """[1, cos t, cos 2t, sin t, sin 2t] at each t, or its t-derivative,
    on a last axis of length 5."""
    t = np.asarray(t, dtype=float)
    basis = np.empty((5,) + t.shape)
    basis[0] = 0.0 if derivative else 1.0
    for m in (1, 2):
        cos, sin = np.cos(m * t), np.sin(m * t)
        basis[m], basis[m + 2] = (-m * sin, m * cos) if derivative else (cos, sin)
    return np.moveaxis(basis, 0, -1)


@dataclass(frozen=True)
class BoundaryCurve:
    """A placed scatterer curve.

    kind is one of "circle", "ellipse", "kite"; params holds (radius,)
    for the circle and (a, b) for the ellipse.  The placed curve is
    center + scale * R(rotation) @ (canonical(t) - canonical box middle).
    """

    kind: str
    params: tuple = ()
    center: tuple = (0.0, 0.0)
    scale: float = 1.0
    rotation: float = 0.0

    def __post_init__(self):
        if self.kind not in ("circle", "ellipse", "kite"):
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.kind == "circle" and (len(self.params) != 1 or self.params[0] <= 0):
            raise ValueError("circle takes params=(radius,) with radius > 0")
        if self.kind == "ellipse" and (
            len(self.params) != 2 or min(self.params) <= 0
        ):
            raise ValueError("ellipse takes params=(a, b) with a, b > 0")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def canonical_diameter(self) -> float:
        """Maximal chord length of the canonical curve."""
        if self.kind == "kite":
            return 3.0
        return 2.0 * max(self.params)

    def _placed_coefficients(self):
        """The canonical coefficient rows, scaled and rotated."""
        if self.kind == "kite":
            rows = _KITE_COEFFICIENTS
        else:   # semi-axes a and b; a circle's one radius is both
            a, b = self.params[0], self.params[-1]
            rows = np.array([[0.0, 0.0], [a, 0.0], [0.0, 0.0], [0.0, b], [0.0, 0.0]])
        c, s = np.cos(self.rotation), np.sin(self.rotation)
        return (rows * self.scale) @ np.array([[c, s], [-s, c]])

    def point(self, t):
        return _fourier_basis(t) @ self._placed_coefficients() + np.asarray(self.center)

    def derivative(self, t):
        return _fourier_basis(t, derivative=True) @ self._placed_coefficients()

    @property
    def diameter(self) -> float:
        return self.scale * self.canonical_diameter()

    @cached_property
    def _polygon(self):
        """(t, vertices, k-d tree) of the POLYGON_SAMPLES-vertex polygon
        x(t_j), t_j = 2 pi j / POLYGON_SAMPLES, built on first use and
        shared by every interior and distance query on this curve.  The
        curve is frozen and `replace` makes a new instance with no cache,
        so the polygon never outlives the placement it was built for."""
        t = 2.0 * np.pi * np.arange(POLYGON_SAMPLES) / POLYGON_SAMPLES
        vertices = self.point(t)
        for arr in (t, vertices):
            arr.flags.writeable = False
        return t, vertices, scipy.spatial.cKDTree(vertices)


def place_scatterer(
    curve: BoundaryCurve, ctx: WaveContext, center, size: float
) -> BoundaryCurve:
    """Scale `curve` so its maximal diameter equals `size`, put it at `center`.

    "Size" is read as the maximal chord of the placed curve, which is
    unambiguous across shapes.
    """
    if not np.isfinite(center).all():
        raise ValueError(f"scatterer center must be finite, got {tuple(center)}")
    if not (np.isfinite(size) and size > 0):
        raise ValueError(f"scatterer size must be positive and finite, got {size}")
    del ctx  # lengths are absolute; the context only documents the wavelength
    scale = size / curve.canonical_diameter()
    return replace(curve, center=(float(center[0]), float(center[1])), scale=scale)


@dataclass(frozen=True)
class DiscretizedBoundary:
    """Equispaced-in-parameter quadrature of a closed curve.

    nodes x(t_j), parameter speeds |x'(t_j)| and trapezoid arc-length
    weights (2*pi/n)|x'(t_j)| for t_j = 2*pi*j/n.
    """

    curve: BoundaryCurve
    n: int
    nodes: np.ndarray
    speeds: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        return (2.0 * np.pi / self.n) * self.speeds

    @property
    def perimeter(self) -> float:
        return float(self.weights.sum())

    @property
    def max_spacing(self) -> float:
        return float(self.weights.max())


def discretize(curve: BoundaryCurve, n: int) -> DiscretizedBoundary:
    """Discretize `curve` with n (even) equispaced parameter nodes."""
    if n < 4 or n % 2:
        raise ValueError(f"node count must be even and >= 4, got {n}")
    t = 2.0 * np.pi * np.arange(n) / n
    nodes = curve.point(t)
    speeds = np.sqrt((curve.derivative(t) ** 2).sum(axis=1))
    if np.any(speeds <= 0):
        raise ValueError("degenerate parametrization: |x'(t)| must be positive")
    for arr in (nodes, speeds):
        arr.flags.writeable = False
    return DiscretizedBoundary(curve=curve, n=n, nodes=nodes, speeds=speeds)


# ---------------------------------------------------------------------------
# Interior / distance queries (used for validation and image metrics)
# ---------------------------------------------------------------------------
def _nearest_vertex(curve: BoundaryCurve, points):
    """Points, and for each its nearest of the POLYGON_SAMPLES vertices
    x(t_j), t_j = 2 pi j / POLYGON_SAMPLES: that vertex, its parameter t_j
    and the distance to it (one query of the curve's cached k-d tree)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    t, vertices, tree = curve._polygon
    dist, idx = tree.query(pts)
    if not np.isfinite(dist).all():  # its index would be the vertex count
        raise ValueError("a point lies too far from the curve: its squared distance overflows")
    return pts, vertices[idx], t[idx], dist


def contains_points(curve: BoundaryCurve, points):
    """True where a point lies behind the outward normal at its nearest vertex.

    The nearest point of a smooth closed curve lies along the normal, so
    the sign is exact away from the curve; it can err only within a small
    fraction of a vertex spacing of the boundary.  The derivative x'(t) is
    evaluated at the nearest vertices only, and the sign is taken against
    the unnormalised outward normal (x'_y, -x'_x) of the counterclockwise
    curve: dividing by the positive speed would not change it.
    """
    pts, vertex, t, _ = _nearest_vertex(curve, points)
    d = curve.derivative(t)
    off = pts - vertex
    return off[:, 0] * d[:, 1] - off[:, 1] * d[:, 0] < 0


def boundary_distance(curve: BoundaryCurve, points):
    """Distance from each point to the nearest vertex of the sampled curve."""
    return _nearest_vertex(curve, points)[3]


# ---------------------------------------------------------------------------
# Receiver / source layouts
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PointSet:
    """Points on a circle or arc of `radius` with the draw that placed them.

    span is the angle the layout covers, 2 pi for the full circle.  beta
    is the perturbation bound of a beta-perturbed layout and None for
    uniformly random angles; seed names the stream of either draw.
    """

    points: np.ndarray
    role: str
    radius: float
    span: float
    beta: Optional[float]
    seed: int

    @property
    def count(self) -> int:
        return len(self.points)

    @property
    def length(self) -> float:
        """|Sigma|, the length of the circle or arc: radius * span."""
        return self.radius * self.span


def _points_from_angles(radius, span, theta, role, beta, seed):
    """The PointSet at angles theta: 16 B per point, built beside theta's 8."""
    pts = np.empty((len(theta), 2))
    np.cos(theta, out=pts[:, 0])
    np.sin(theta, out=pts[:, 1])
    pts *= radius
    pts.flags.writeable = False
    return PointSet(points=pts, role=role, radius=float(radius), span=float(span),
                    beta=beta, seed=int(seed))


def _layout_span(radius, count, arc):
    """(theta_min, span) of a checked layout of `count` points on |x| = radius."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if radius > MAX_COORDINATE:
        raise ValueError(f"radius {radius:g} is too large: squared distances across it overflow")
    if arc is None:
        return 0.0, 2.0 * np.pi
    theta_min, theta_max = float(arc[0]), float(arc[1])
    if not (np.isfinite([theta_min, theta_max]).all() and theta_max > theta_min):
        raise ValueError("arc must satisfy theta_max > theta_min, both finite")
    span = theta_max - theta_min
    grain = float(np.spacing(max(abs(theta_min), abs(theta_max))))
    # (r, r + 2 pi) may span 2 pi plus a rounding of the larger endpoint
    if span > 2.0 * np.pi + 2.0 * grain:
        raise ValueError(f"arc ({theta_min:g}, {theta_max:g}) spans {span:g} radians, "
                         "more than the full circle")
    # adjacent angles stay distinct while float64 is finer than half their step
    if 2.0 * grain >= span / count:
        raise ValueError(f"arc ({theta_min:g}, {theta_max:g}) spans {span:g} radians "
                         f"where float64 angles are {grain:.3g} apart, too coarse to keep "
                         f"its {count} points ({span / count:.3g} apart) distinct")
    return theta_min, span


def circle_points(
    radius: float,
    count: int,
    beta: float = 0.0,
    seed: int = 0,
    arc: Optional[Sequence[float]] = None,
    role: str = ROLE_RECEIVER,
) -> PointSet:
    """Points theta_j = theta_min + dtheta*(j - 1 + beta_j) on |x| = radius.

    beta_j ~ U[0, beta] i.i.d. from the (seed, "circle-points") stream;
    beta = 0 gives exactly equispaced, seed-independent points.  With
    `arc` = (theta_min, theta_max) the layout covers that arc instead of
    the full circle.
    """
    theta_min, span = _layout_span(radius, count, arc)
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    # built in place: at most two count-long float arrays exist at once
    theta = np.arange(count, dtype=float)
    if beta > 0.0:
        theta += substream(seed, "circle-points").uniform(0.0, beta, count)
    theta *= span / count
    theta += theta_min
    return _points_from_angles(radius, span, theta, role, float(beta), seed)


def circle_points_uniform(
    radius: float,
    count: int,
    seed: int,
    arc: Optional[Sequence[float]] = None,
    role: str = ROLE_RANDOM_SOURCE,
) -> PointSet:
    """count i.i.d. uniformly random angles on the circle or arc.

    Unlike the beta-perturbed layout this is unstratified, so quadrature
    built on it converges at the Monte Carlo rate 1/sqrt(count).
    """
    theta_min, span = _layout_span(radius, count, arc)
    theta = substream(seed, "circle-points-uniform").uniform(0.0, 1.0, count)
    theta *= span
    theta += theta_min
    return _points_from_angles(radius, span, theta, role, None, seed)
