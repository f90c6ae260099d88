"""Exterior sound-soft scattering by a single-layer Nystrom method.

The scattered field of a point source y is represented as a single-layer
potential on the obstacle boundary,

    u_s(x) = int_dD phi(x, q) psi(q) ds(q),      S psi = -phi(., y) on dD,

discretized with the Kussmaul-Martensen (Kress) splitting of the
logarithmic kernel singularity on the periodic parametrization, which is
spectrally accurate for smooth curves.  The linear system acts on node
"charges" nu_j = w_j psi_j (quadrature weight times density), which makes
the matrix exactly symmetric and field evaluation a plain weighted sum.

Both pipeline forward models, this system and the small-obstacle
(Born-type, no multiple scattering) point-scatterer model, answer
`scattered(points, sources)`, the (P, S) matrix of u_s, which raises
GeometryError for a point or source that is not clear of the scatterers.
The system solves on the receiver side: with E the map from charges to
u_s at the points, u_s = E M^-1 (-phi(nodes, sources)), and M symmetric
makes the response E M^-1 one solve with the P columns E^T.  The system
keeps the responses of its KEPT_RESPONSES most recently used point sets,
so a new source layout on either costs only its right-hand sides and one
product.  The Mie series for a circle is an independent reference for
validation.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np
import scipy.linalg
import scipy.spatial.distance

from .geometry import DiscretizedBoundary, boundary_distance, contains_points
from .specfun import SingularityError, WaveContext, green2d, green_kr, hankel1_orders

logger = logging.getLogger(__name__)

RESONANCE_CONDITION_LIMIT = 1e10
MIE_TAIL_TOLERANCE = 1e-12
NEAR_BOUNDARY_SPACINGS = 3.0
UPSAMPLE_FACTOR = 4
NEAR_EVAL_TOLERANCE = 1e-6
MIN_SOURCE_CLEARANCE = 1e-3  # wavelengths
# Largest single-layer system, as inversion.MAX_SVD_SIZE bounds the matrix.
MAX_BOUNDARY_NODES = 2048
# Point sets whose receiver responses a system keeps: a pipeline run uses
# one, and the source-sweep workload alternates two on one system (its
# C receivers and its denser covariance receivers).
KEPT_RESPONSES = 2


class GeometryError(ValueError):
    """A point lies inside or too close to a scatterer boundary."""


class ResonanceWarning(UserWarning):
    """k^2 is (numerically) an interior Dirichlet eigenvalue of the obstacle."""


class TruncationWarning(UserWarning):
    """A series was truncated before reaching its tail tolerance."""


class AccuracyWarning(UserWarning):
    """A near-boundary evaluation may not meet the requested accuracy."""


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------
def _kress_column(n: int) -> np.ndarray:
    """c_d = (n / 2 pi) R_d - ln(4 sin^2(pi d / n)) for d = 0..n-1, the
    log term left out at d = 0.

    The log factor ln(4 sin^2((t_i - t_j)/2)) and its Kress weights R_d
    depend only on d = (i - j) mod n; the rule integrates trigonometric
    polynomials of degree < n/2 times the log factor exactly.  Taken at
    min(d, n - d), so c_d = c_{n-d} exactly and the log factor is within
    1 ulp.
    """
    d = np.minimum(np.arange(n), n - np.arange(n))
    # (n / 2 pi) R_d = -2 sum_{m=1}^{n/2-1} cos(2 pi m d / n) / m - (2 / n) (-1)^d
    c = -n * np.fft.irfft(np.r_[0.0, 1.0 / np.arange(1, n // 2), 2.0 / n], n)[d]
    c[1:] -= np.log(4.0 * np.sin(np.pi * d[1:] / n) ** 2)
    return c


def _self_block(bnd: DiscretizedBoundary, ctx: WaveContext) -> np.ndarray:
    """Kress-quadrature Nystrom block of one boundary, acting on charges.

    phi = phi_1 ln(4 sin^2((t_i - t_j)/2)) + phi_2 with smooth phi_1, phi_2:
    the log factor and its weights enter as the symmetric circulant matrix
    of one column, C[i, j] = c_{(i - j) mod n}.  phi is evaluated once
    per unordered node pair and mirrored.
    """
    k = ctx.k
    block = scipy.spatial.distance.squareform(
        green_kr(k * scipy.spatial.distance.pdist(bnd.nodes)))
    np.fill_diagonal(
        block, 0.25j - (np.euler_gamma + np.log(0.5 * k * bnd.speeds)) / (2.0 * np.pi)
    )
    # phi_1 = -j0/(4 pi) is -1/pi times Im phi, which is 1/4 = j0(0)/4 on the diagonal
    log_term = block.imag * (-1.0 / np.pi)
    log_term *= scipy.linalg.circulant(_kress_column(bnd.n))
    block += log_term
    return block


@dataclass(frozen=True)
class SingleLayerSystem:
    """The single-layer boundary system, held as the LU factors of its matrix.

    The matrix acts on node charges; it is symmetric because the kernel
    phi(x, y) is.  An empty boundary list yields the trivial system of a
    free medium, with lu None; `nodes` holds every boundary's nodes in one
    read-only array.  The system also keeps the receiver responses of the
    KEPT_RESPONSES point sets `scattered` used last.
    """

    boundaries: tuple
    ctx: WaveContext
    lu: object
    condition_estimate: float
    nodes: np.ndarray
    # (shape, bytes) of a point set -> its _response, least recently used first
    _responses: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.nodes)

    def scattered(self, points, sources) -> np.ndarray:
        """u_s at every point for every source, shape (P, S); a bad point
        is reported before a bad source.

        u_s = E(points) M^-1 (-phi(nodes, sources)): the receiver response
        E(points) M^-1 is solved once per point set and kept for the
        KEPT_RESPONSES sets used last, so a new source layout costs only
        its right-hand sides and one product.  Those exact points were
        checked when it was made.  A new set drops the least recently used
        response before it solves its own.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        key = (pts.shape, pts.tobytes())
        response = self._responses.pop(key, None)
        if response is None:
            if len(self._responses) == KEPT_RESPONSES:
                del self._responses[next(iter(self._responses))]
            response = _response(self, pts)
        self._responses[key] = response
        return response.apply(_rhs(self, sources))


def _system_matrix(boundaries: tuple, ctx: WaveContext) -> np.ndarray:
    """The unfactored single-layer matrix, bitwise symmetric.

    Diagonal blocks use the Kress log-singularity quadrature; blocks
    coupling distinct boundaries are smooth and get the plain trapezoid
    rule, filled once and mirrored.
    """
    offs = np.cumsum([0] + [b.n for b in boundaries])
    matrix = np.zeros((offs[-1], offs[-1]), dtype=complex)
    for a, ba in enumerate(boundaries):
        sa = slice(offs[a], offs[a + 1])
        matrix[sa, sa] = _self_block(ba, ctx)
        for b in range(a + 1, len(boundaries)):
            sb = slice(offs[b], offs[b + 1])
            block = green2d(ctx, ba.nodes, boundaries[b].nodes)
            matrix[sa, sb] = block
            matrix[sb, sa] = block.T
    return matrix


def assemble_single_layer(
    boundaries: Union[DiscretizedBoundary, Sequence[DiscretizedBoundary]],
    ctx: WaveContext,
) -> SingleLayerSystem:
    """Assemble and factorize the single-layer system for the scatterers.

    Only the LU factors are kept: the matrix is bitwise symmetric, so its
    Fortran-ordered transpose is the matrix itself and LAPACK factorizes
    it in place.  Emits ResonanceWarning when the 1-norm condition
    estimate (LAPACK gecon on the LU factors) exceeds 1e10, the numerical
    footprint of k^2 hitting an interior Dirichlet eigenvalue.  Raises
    ValueError, before allocating, for more than MAX_BOUNDARY_NODES nodes.
    """
    if isinstance(boundaries, DiscretizedBoundary):
        boundaries = (boundaries,)
    boundaries = tuple(boundaries)
    for b in boundaries:
        if b.n < 32 or b.n % 2:
            raise ValueError(f"boundary node count must be even and >= 32, got {b.n}")
    ntot = sum(b.n for b in boundaries)
    if ntot > MAX_BOUNDARY_NODES:
        raise ValueError(f"the boundary needs {ntot} nodes, more than the "
                         f"{MAX_BOUNDARY_NODES} a single-layer system may have")
    if ntot:
        matrix = _system_matrix(boundaries, ctx)
        norm = np.linalg.norm(matrix, 1)
        lu = scipy.linalg.lu_factor(matrix.T, overwrite_a=True)
        rcond, _ = scipy.linalg.lapack.zgecon(lu[0], norm, norm="1")
        cond = float(1.0 / rcond) if rcond > 0 else np.inf
    else:
        cond, lu = 1.0, None
    logger.debug("assembled single-layer system: n=%d cond=%.3e", ntot, cond)
    nodes = np.concatenate([b.nodes for b in boundaries]) if boundaries else np.empty((0, 2))
    nodes.flags.writeable = False
    system = SingleLayerSystem(boundaries, ctx, lu, cond, nodes)
    warn_if_resonant(system)
    return system


def warn_if_resonant(system: SingleLayerSystem) -> None:
    """Emit ResonanceWarning, for the caller of the function that calls
    this, when the system's condition estimate exceeds 1e10."""
    cond = system.condition_estimate
    if cond > RESONANCE_CONDITION_LIMIT:
        warnings.warn(
            f"single-layer system condition {cond:.2e} exceeds "
            f"{RESONANCE_CONDITION_LIMIT:.0e}; k^2 is close to an interior "
            "Dirichlet eigenvalue of a scatterer",
            ResonanceWarning,
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# Solving and field evaluation
# ---------------------------------------------------------------------------
def require_exterior(system: SingleLayerSystem, points, what="point") -> list:
    """Raise GeometryError unless every point is clearly outside all
    scatterers; return each boundary's nearest-vertex distances."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    clearance = MIN_SOURCE_CLEARANCE * system.ctx.wavelength
    dists = []
    for b in system.boundaries:
        if contains_points(b.curve, pts).any():
            raise GeometryError(f"{what} lies inside a scatterer")
        dists.append(boundary_distance(b.curve, pts))
        if (dists[-1] < clearance).any():
            raise GeometryError(
                f"{what} lies within {MIN_SOURCE_CLEARANCE:g} wavelengths of a boundary"
            )
    return dists


def _rhs(system: SingleLayerSystem, sources) -> np.ndarray:
    """-phi(nodes, y) for every source y (columns), built column-major (the
    transpose of phi(y, nodes)) and negated in place."""
    src = np.atleast_2d(np.asarray(sources, dtype=float))
    require_exterior(system, src, what="source")
    rhs = green2d(system.ctx, src, system.nodes).T
    np.negative(rhs, out=rhs)
    return rhs


def solve_charges(system: SingleLayerSystem, sources) -> np.ndarray:
    """Charge vectors for one or more point sources (columns).

    Solves M nu = -phi(nodes, y) for every source y; returns an array of
    shape (n_nodes, n_sources).  The right-hand sides are solved in place.
    """
    rhs = _rhs(system, sources)
    if system.size == 0:
        return rhs
    return scipy.linalg.lu_solve(system.lu, rhs, overwrite_b=True)


def _refine_transpose(values: np.ndarray, factor: int) -> np.ndarray:
    """The transpose of refining n charges to n * factor, along axis 0.

    Refining is trigonometric interpolation of the n equispaced periodic
    samples to n * factor, divided by factor: ifft of the zero-padded
    spectrum, with the Nyquist term split between +n/2 and -n/2.  Both DFT
    matrices are symmetric, so the transpose is the fft of the folded
    spectrum of the ifft; it maps (n * factor, ...) to (n, ...).
    """
    m = len(values)
    h = m // factor // 2
    spec = np.fft.ifft(values, axis=0)
    folded = np.concatenate([spec[:h + 1], spec[m - h + 1:]])
    folded[h] = 0.5 * (spec[h] + spec[m - h])
    return np.fft.fft(folded, axis=0)


def _near_rows(ctx: WaveContext, bnd: DiscretizedBoundary, pts) -> tuple:
    """Rows (P, n) taking `bnd`'s charges to u_s at `pts` through the
    charges refined UPSAMPLE_FACTOR times, then half as many times:
    phi(pts, refined nodes) @ refine.  The nodes of the half refinement are
    the even-indexed ones of the full, so one Green block serves both."""
    m = bnd.n * UPSAMPLE_FACTOR
    nodes = bnd.curve.point(2.0 * np.pi * np.arange(m) / m)
    # nu_j = (2 pi / n) mu(t_j) with mu = psi |x'| smooth and periodic,
    # so the refined charges are the charges on the refined nodes.
    phi = green2d(ctx, nodes, pts)
    return (_refine_transpose(phi, UPSAMPLE_FACTOR).T,
            _refine_transpose(phi[::2], UPSAMPLE_FACTOR // 2).T)


@dataclass(frozen=True)
class _Evaluation:
    """A linear map from node vectors to u_s at `points` points.

    The first `points` rows of `matrix` give u_s; each boundary with
    points within NEAR_BOUNDARY_SPACINGS of it adds, per entry of
    `checks` (first row, count, closest distance), the rows of those
    points from its charges refined 4x and then 2x alone.
    """

    matrix: np.ndarray
    points: int
    checks: tuple

    def apply(self, x: np.ndarray) -> np.ndarray:
        """u_s for the columns of x, shape (points, S); one AccuracyWarning
        per near boundary reports entries whose 2x and 4x values differ by
        more than 1e-6 relative (a bound on the 2x error; the 4x value is
        returned)."""
        out = self.matrix @ x
        for start, count, closest in self.checks:
            fine = out[start:start + count]
            coarse = out[start + count:start + 2 * count]
            miss = np.abs(fine - coarse) > NEAR_EVAL_TOLERANCE * np.abs(fine)
            if miss.any():
                warnings.warn(
                    f"near-boundary evaluation: 2x and 4x upsampled values of "
                    f"{int(miss.sum())} entries (closest point at distance "
                    f"{closest:.3e}) differ by more than "
                    f"{NEAR_EVAL_TOLERANCE:g} relative; the 4x value is returned",
                    AccuracyWarning,
                    stacklevel=3,
                )
        return out[:self.points]


def _evaluation(system: SingleLayerSystem, points) -> _Evaluation:
    """The map from charges to u_s at the points, refusing, as receivers,
    points that are not clear (require_exterior).

    u_s(x) = sum_q phi(x, node_q) nu_q: the Green's-function rows over all
    nodes, with a boundary's columns replaced, for points within three of
    its node spacings, by the rows of its charges refined 4x, checked
    against 2x.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dists = require_exterior(system, pts, "receiver")
    rows = green2d(system.ctx, pts, system.nodes)
    blocks, checks = [rows], []
    offset = 0
    for bnd, dist in zip(system.boundaries, dists):
        cols = slice(offset, offset + bnd.n)
        offset += bnd.n
        near = dist < NEAR_BOUNDARY_SPACINGS * bnd.max_spacing
        if near.any():
            fine, coarse = np.zeros((2, near.sum(), system.size), dtype=complex)
            fine[:, cols], coarse[:, cols] = _near_rows(system.ctx, bnd, pts[near])
            rows[near, cols] = fine[:, cols]
            checks.append((sum(map(len, blocks)), len(fine), float(dist[near].min())))
            blocks += [fine, coarse]
    matrix = np.concatenate(blocks) if checks else rows
    return _Evaluation(matrix, len(pts), tuple(checks))


def _response(system: SingleLayerSystem, points) -> _Evaluation:
    """The map from right-hand sides to u_s at the points: E(points) M^-1,
    from one solve with the columns E^T since M is symmetric."""
    ev = _evaluation(system, points)
    if system.size == 0:
        return ev
    solved = scipy.linalg.lu_solve(system.lu, ev.matrix.T, overwrite_b=True)
    return _Evaluation(solved.T, ev.points, ev.checks)


def scattered_matrix(
    system: SingleLayerSystem, charges: np.ndarray, points
) -> np.ndarray:
    """u_s at many points for many charge columns: shape (P, S).

    require_exterior refuses points, as receivers, that are not clear.
    Points within three node spacings of a boundary take its charges
    trigonometrically refined 4x, with a 2x/4x AccuracyWarning check.
    """
    return _evaluation(system, points).apply(charges)


def total_field_matrix(model, receivers, sources) -> np.ndarray:
    """u(x_j, z_l) for all receiver/source pairs of either model, shape (J, L).

    Raises GeometryError if a source coincides with a receiver.
    """
    try:
        phi = green2d(model.ctx, receivers, sources)
    except SingularityError as exc:
        raise GeometryError("a source coincides with a receiver") from exc
    u = model.scattered(receivers, sources)
    u += phi
    return u


# ---------------------------------------------------------------------------
# Analytic references
# ---------------------------------------------------------------------------
def mie_scattered_circle(
    ctx: WaveContext, radius: float, center, x, y, truncation: int | None = None,
):
    """Scattered field of a sound-soft circle by the Mie (separation) series.

        u_s(x, y) = -(i/4) sum_n [J_n(ka)/H_n(ka)] H_n(k r_x) H_n(k r_y)
                    e^{i n (theta_x - theta_y)},

    polar coordinates about the circle center.  Truncation defaults to
    ceil(ka) + 20; a TruncationWarning is emitted if the last term is not
    below 1e-12 of the running sum.  One value per point of `x`, shape
    (P,); a single point is a batch of one.
    """
    center = np.asarray(center, dtype=float).reshape(2)
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).reshape(2)
    rel_x = xs - center
    rel_y = y - center
    r_x = np.sqrt((rel_x ** 2).sum(-1))
    r_y = float(np.hypot(*rel_y))
    # boundary evaluation (r == radius) is allowed; the series converges there
    limit = radius * (1.0 - 1e-12)
    if r_y < limit or np.any(r_x < limit):
        raise GeometryError("Mie evaluation requires points outside the circle")
    ka = ctx.k * radius
    nmax = int(math.ceil(ka)) + 20 if truncation is None else truncation
    if not isinstance(nmax, (int, np.integer)) or nmax < 0:
        raise ValueError(f"Mie truncation must be a non-negative integer, got {nmax!r}")
    ha = hankel1_orders(nmax, ka)
    ratio = ha.real / ha
    hx = hankel1_orders(nmax, ctx.k * r_x)
    hy = hankel1_orders(nmax, ctx.k * r_y)
    theta_x = np.arctan2(rel_x[:, 1], rel_x[:, 0])
    theta_y = math.atan2(rel_y[1], rel_y[0])
    n = np.arange(nmax + 1)[:, None]
    # order 0 has weight 1 and cos(0) = 1, so both factors are exact there
    terms = (np.where(n == 0, 1.0, 2.0) * ratio[:, None] * hx * hy[:, None]
             * np.cos(n * (theta_x - theta_y)))
    partial = np.cumsum(terms, axis=0)
    running_max = float(np.abs(partial).max())
    last = float(np.abs(terms[-1]).max())
    if last > MIE_TAIL_TOLERANCE * max(running_max, 1e-300):
        warnings.warn(
            f"Mie tail term {last:.2e} above {MIE_TAIL_TOLERANCE:g} of the sum; "
            "increase the truncation",
            TruncationWarning,
            stacklevel=2,
        )
    return -0.25j * partial[-1]


@dataclass(frozen=True)
class PointScatterers:
    """Small sound-soft circles in the Born-type model (no multiple
    scattering): u_s(x, y) ~ sum_l lambda_l phi(c_l, y) phi(x, c_l)."""

    centers: np.ndarray
    radii: np.ndarray
    ctx: WaveContext

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.centers, dtype=float))
        r = np.atleast_1d(np.asarray(self.radii, dtype=float))
        if not c.size:
            raise ValueError("point scatterers need at least one center")
        if len(c) != len(r):
            raise ValueError("centers and radii must have equal length")
        if not (np.isfinite(c).all() and np.isfinite(r).all()):
            raise ValueError("point-scatterer centers and radii must be finite")
        if np.any(r <= 0):
            raise ValueError("radii must be positive")
        apart = scipy.spatial.distance.cdist(c, c)
        overlap = np.triu(apart <= r[:, None] + r, 1)
        if overlap.any():
            l, m = np.argwhere(overlap)[0]
            raise GeometryError(
                f"point scatterers {l + 1} and {m + 1} overlap: their centres are "
                f"{apart[l, m]:g} apart, within the sum {r[l] + r[m]:g} of their radii")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", r)

    def reflection_coefficients(self) -> np.ndarray:
        """lambda_l = 4i / H_0^(1)(k r_l) = -1 / phi at distance r_l, from (k, r_l)."""
        return -1.0 / green_kr(self.ctx.k * self.radii)

    def scattered(self, points, sources) -> np.ndarray:
        """u_s at every point for every source, shape (P, S); GeometryError
        for a point, then a source, not clear of every circle."""
        c = self.centers
        clear = self.radii + MIN_SOURCE_CLEARANCE * self.ctx.wavelength
        for what, pts in (("receiver", points), ("source", sources)):
            if (scipy.spatial.distance.cdist(np.atleast_2d(pts), c) < clear).any():
                raise GeometryError(
                    f"a {what} lies inside or within "
                    f"{MIN_SOURCE_CLEARANCE:g} wavelengths of a point scatterer")
        phi_xc = green2d(self.ctx, points, c)   # (P, L)
        phi_cy = green2d(self.ctx, c, sources)  # (L, S)
        return (phi_xc * self.reflection_coefficients()) @ phi_cy
