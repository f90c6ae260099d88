"""Scatterer boundary curves, their discretization, and point arrays.

Supported curves are the circle, the axis-aligned ellipse, and the
standard kite (cos t + 0.65 cos 2t - 0.65, 1.5 sin t).  A curve is
placed by scaling its canonical parametrization, rotating, and
translating so that the midpoint of its canonical bounding box lands on
the requested center.  All parametrizations are smooth, closed,
counterclockwise, and non-self-intersecting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
import scipy.spatial

from .seeding import substream
from .specfun import WaveContext

# Canonical kite extremes: x in [-97/65, 1] (min at cos t = -5/13), y in
# [-3/2, 3/2]; its diameter 3 is the vertical chord t = pi/2 .. 3*pi/2.
_KITE_XMIN = -97.0 / 65.0
_KITE_XMAX = 1.0
_KITE_YMAX = 1.5

# Vertices of the polygon that stands in for a curve in interior and
# distance queries.
POLYGON_SAMPLES = 2048


ROLE_RECEIVER = "receiver"
ROLE_DETERMINISTIC_SOURCE = "deterministic-source"
ROLE_RANDOM_SOURCE = "random-source"


def canonical_kite(t):
    """Canonical kite point(s) at parameter t in [0, 2*pi)."""
    t = np.asarray(t, dtype=float)
    x = np.cos(t) + 0.65 * np.cos(2.0 * t) - 0.65
    y = 1.5 * np.sin(t)
    return np.stack([x, y], axis=-1)


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

    # -- canonical shape -------------------------------------------------
    def _canonical(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "circle":
            r = self.params[0]
            return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)
        if self.kind == "ellipse":
            a, b = self.params
            return np.stack([a * np.cos(t), b * np.sin(t)], axis=-1)
        return canonical_kite(t)

    def _canonical_derivative(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "circle":
            r = self.params[0]
            return np.stack([-r * np.sin(t), r * np.cos(t)], axis=-1)
        if self.kind == "ellipse":
            a, b = self.params
            return np.stack([-a * np.sin(t), b * np.cos(t)], axis=-1)
        dx = -np.sin(t) - 1.3 * np.sin(2.0 * t)
        dy = 1.5 * np.cos(t)
        return np.stack([dx, dy], axis=-1)

    def _canonical_box_middle(self):
        if self.kind == "kite":
            return np.array([(_KITE_XMIN + _KITE_XMAX) / 2.0, 0.0])
        return np.zeros(2)

    def canonical_diameter(self) -> float:
        """Maximal chord length of the canonical curve."""
        if self.kind == "circle":
            return 2.0 * self.params[0]
        if self.kind == "ellipse":
            return 2.0 * max(self.params)
        return 2.0 * _KITE_YMAX

    # -- placed curve ----------------------------------------------------
    def _rotation_matrix(self):
        c, s = np.cos(self.rotation), np.sin(self.rotation)
        return np.array([[c, -s], [s, c]])

    def point(self, t):
        p = (self._canonical(t) - self._canonical_box_middle()) * self.scale
        return p @ self._rotation_matrix().T + np.asarray(self.center)

    def derivative(self, t):
        return (self._canonical_derivative(t) * self.scale) @ self._rotation_matrix().T

    @property
    def diameter(self) -> float:
        return self.scale * self.canonical_diameter()


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

    nodes x(t_j), outward unit normals, parameter speeds |x'(t_j)| and
    trapezoid arc-length weights (2*pi/n)|x'(t_j)| for t_j = 2*pi*j/n.
    """

    curve: BoundaryCurve
    n: int
    t: np.ndarray
    nodes: np.ndarray
    normals: np.ndarray
    speeds: np.ndarray
    weights: np.ndarray

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
    deriv = curve.derivative(t)
    speeds = np.sqrt((deriv ** 2).sum(axis=1))
    if np.any(speeds <= 0):
        raise ValueError("degenerate parametrization: |x'(t)| must be positive")
    # outward normal of a counterclockwise curve
    normals = np.column_stack([deriv[:, 1], -deriv[:, 0]]) / speeds[:, None]
    weights = (2.0 * np.pi / n) * speeds
    for arr in (t, nodes, normals, speeds, weights):
        arr.flags.writeable = False
    return DiscretizedBoundary(
        curve=curve, n=n, t=t, nodes=nodes, normals=normals, speeds=speeds,
        weights=weights,
    )


# ---------------------------------------------------------------------------
# Interior / distance queries (used for validation and image metrics)
# ---------------------------------------------------------------------------
def _nearest_vertex(curve: BoundaryCurve, points):
    """Points, the POLYGON_SAMPLES-node sampling of the curve, and each
    point's distance to and index of its nearest node (one k-d tree query)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    poly = discretize(curve, POLYGON_SAMPLES)
    dist, idx = scipy.spatial.cKDTree(poly.nodes).query(pts)
    return pts, poly, dist, idx


def contains_points(curve: BoundaryCurve, points):
    """True where a point lies behind the outward normal at its nearest node.

    The nearest point of a smooth closed curve lies along the normal, so
    the sign is exact away from the curve; it can err only within a small
    fraction of a node spacing of the boundary.
    """
    pts, poly, _, idx = _nearest_vertex(curve, points)
    return ((pts - poly.nodes[idx]) * poly.normals[idx]).sum(axis=1) < 0


def boundary_distance(curve: BoundaryCurve, points):
    """Distance from each point to the nearest node of the sampled curve."""
    return _nearest_vertex(curve, points)[2]


# ---------------------------------------------------------------------------
# Receiver / source layouts
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PointSet:
    """Points on a circle or arc of `radius` with the draw that placed them.

    beta is the perturbation bound of a beta-perturbed layout and None for
    uniformly random angles; seed names the stream of either draw.
    """

    points: np.ndarray
    role: str
    radius: float
    beta: Optional[float]
    seed: int

    @property
    def count(self) -> int:
        return len(self.points)


def _points_from_angles(radius, theta, role, beta, seed):
    pts = radius * np.column_stack([np.cos(theta), np.sin(theta)])
    pts.flags.writeable = False
    return PointSet(points=pts, role=role, radius=float(radius), beta=beta, seed=int(seed))


def _layout_span(radius, count, arc):
    """(theta_min, span) of a checked layout of `count` points on |x| = radius."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if arc is None:
        return 0.0, 2.0 * np.pi
    theta_min, theta_max = float(arc[0]), float(arc[1])
    if not (np.isfinite([theta_min, theta_max]).all() and theta_max > theta_min):
        raise ValueError("arc must satisfy theta_max > theta_min, both finite")
    return theta_min, theta_max - theta_min


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
    offsets = np.zeros(count)
    if beta > 0.0:
        offsets = substream(seed, "circle-points").uniform(0.0, beta, count)
    theta = theta_min + (span / count) * (np.arange(count) + offsets)
    return _points_from_angles(radius, theta, role, float(beta), seed)


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
    theta = theta_min + span * substream(seed, "circle-points-uniform").uniform(
        0.0, 1.0, count
    )
    return _points_from_angles(radius, theta, role, None, seed)
