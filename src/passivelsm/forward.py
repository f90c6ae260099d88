"""Exterior sound-soft scattering by a single-layer Nystrom method.

The scattered field of a point source y is represented as a single-layer
potential on the obstacle boundary,

    u_s(x) = int_dD phi(x, q) psi(q) ds(q),      S psi = -phi(., y) on dD,

discretized with the Kussmaul-Martensen (Kress) splitting of the
logarithmic kernel singularity on the periodic parametrization, which is
spectrally accurate for smooth curves.  The linear system acts on node
"charges" nu_j = w_j psi_j (quadrature weight times density), which makes
the matrix exactly symmetric and field evaluation a plain weighted sum.

Two independent references are provided for validation: the Mie series
for a circle and the small-obstacle (Born-type) point-scatterer model.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
import scipy.linalg
import scipy.spatial.distance
import scipy.special

from .geometry import DiscretizedBoundary, boundary_distance, contains_points
from .specfun import WaveContext, green2d, hankel1_orders

logger = logging.getLogger(__name__)

RESONANCE_CONDITION_LIMIT = 1e10
MIE_TAIL_TOLERANCE = 1e-12
NEAR_BOUNDARY_SPACINGS = 3.0
UPSAMPLE_FACTOR = 4
NEAR_EVAL_TOLERANCE = 1e-6
MIN_SOURCE_CLEARANCE = 1e-3  # wavelengths
# Largest single-layer system, as inversion.MAX_SVD_SIZE bounds the matrix.
MAX_BOUNDARY_NODES = 2048


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
    of one column, C[i, j] = c_{(i - j) mod n}.
    """
    k = ctx.k
    kr = k * scipy.spatial.distance.cdist(bnd.nodes, bnd.nodes)
    j0 = scipy.special.j0(kr)
    with np.errstate(divide="ignore", invalid="ignore"):   # y0(0) = -inf
        block = 0.25j * (j0 + 1j * scipy.special.y0(kr))
    np.fill_diagonal(
        block, 0.25j - (np.euler_gamma + np.log(0.5 * k * bnd.speeds)) / (2.0 * np.pi)
    )
    block += (-(1.0 / (4.0 * np.pi)) * j0) * scipy.linalg.circulant(_kress_column(bnd.n))
    return block


@dataclass(frozen=True)
class SingleLayerSystem:
    """Assembled (and factorized) single-layer boundary system.

    The matrix acts on node charges; it is symmetric because the kernel
    phi(x, y) is.  An empty boundary list yields the trivial system of a
    free medium.
    """

    boundaries: tuple
    ctx: WaveContext
    matrix: np.ndarray
    lu: object
    condition_estimate: float

    @property
    def nodes(self) -> np.ndarray:
        if not self.boundaries:
            return np.zeros((0, 2))
        return np.concatenate([b.nodes for b in self.boundaries])

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def assemble_single_layer(
    boundaries: Union[DiscretizedBoundary, Sequence[DiscretizedBoundary]],
    ctx: WaveContext,
) -> SingleLayerSystem:
    """Assemble and factorize the single-layer system for the scatterers.

    Diagonal blocks use the Kress log-singularity quadrature; blocks
    coupling distinct boundaries are smooth and get the plain trapezoid
    rule.  Emits ResonanceWarning when the 1-norm condition estimate
    (LAPACK gecon on the LU factors) exceeds 1e10, the numerical
    footprint of k^2 hitting an interior Dirichlet eigenvalue.  Raises
    ValueError, before allocating, for more than MAX_BOUNDARY_NODES nodes.
    """
    if isinstance(boundaries, DiscretizedBoundary):
        boundaries = (boundaries,)
    boundaries = tuple(boundaries)
    for b in boundaries:
        if b.n < 32 or b.n % 2:
            raise ValueError(f"boundary node count must be even and >= 32, got {b.n}")
    sizes = [b.n for b in boundaries]
    ntot = int(sum(sizes))
    if ntot > MAX_BOUNDARY_NODES:
        raise ValueError(f"the boundary needs {ntot} nodes, more than the "
                         f"{MAX_BOUNDARY_NODES} a single-layer system may have")
    matrix = np.zeros((ntot, ntot), dtype=complex)
    offs = np.cumsum([0] + sizes)
    for a, ba in enumerate(boundaries):
        sa = slice(offs[a], offs[a + 1])
        matrix[sa, sa] = _self_block(ba, ctx)
        for b in range(a + 1, len(boundaries)):
            sb = slice(offs[b], offs[b + 1])
            block = green2d(ctx, ba.nodes[:, None, :], boundaries[b].nodes[None, :, :])
            matrix[sa, sb] = block
            matrix[sb, sa] = block.T
    if ntot:
        lu = scipy.linalg.lu_factor(matrix)
        rcond, _ = scipy.linalg.lapack.zgecon(lu[0], np.linalg.norm(matrix, 1), norm="1")
        cond = float(1.0 / rcond) if rcond > 0 else np.inf
    else:
        cond, lu = 1.0, None
    if cond > RESONANCE_CONDITION_LIMIT:
        warnings.warn(
            f"single-layer system condition {cond:.2e} exceeds "
            f"{RESONANCE_CONDITION_LIMIT:.0e}; k^2 is close to an interior "
            "Dirichlet eigenvalue of a scatterer",
            ResonanceWarning,
            stacklevel=2,
        )
    logger.debug("assembled single-layer system: n=%d cond=%.3e", ntot, cond)
    return SingleLayerSystem(
        boundaries=boundaries, ctx=ctx, matrix=matrix, lu=lu,
        condition_estimate=cond,
    )


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------
def require_exterior(system: SingleLayerSystem, points, what="point"):
    """Raise GeometryError unless every point is clearly outside all scatterers."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    clearance = MIN_SOURCE_CLEARANCE * system.ctx.wavelength
    for b in system.boundaries:
        if contains_points(b.curve, pts).any():
            raise GeometryError(f"{what} lies inside a scatterer")
        if (boundary_distance(b.curve, pts) < clearance).any():
            raise GeometryError(
                f"{what} lies within {MIN_SOURCE_CLEARANCE:g} wavelengths of a boundary"
            )


def solve_charges(system: SingleLayerSystem, sources) -> np.ndarray:
    """Charge vectors for one or more point sources (columns).

    Solves M nu = -phi(nodes, y) for every source y; returns an array of
    shape (n_nodes, n_sources).
    """
    src = np.atleast_2d(np.asarray(sources, dtype=float))
    require_exterior(system, src, what="source")
    if system.size == 0:
        return np.zeros((0, len(src)), dtype=complex)
    rhs = -green2d(system.ctx, system.nodes[:, None, :], src[None, :, :])
    return scipy.linalg.lu_solve(system.lu, rhs)


# ---------------------------------------------------------------------------
# Field evaluation
# ---------------------------------------------------------------------------
def _trig_resample(values: np.ndarray, factor: int) -> np.ndarray:
    """Trigonometric interpolation of equispaced periodic samples along axis 0."""
    n = len(values)
    m = n * factor
    spec = np.fft.fft(values, axis=0)
    out = np.zeros((m,) + values.shape[1:], dtype=complex)
    h = n // 2
    out[:h] = spec[:h]
    if h > 1:
        out[-(h - 1):] = spec[-(h - 1):]
    out[h] = 0.5 * spec[h]
    out[m - h] += 0.5 * spec[h]
    return np.fft.ifft(out, axis=0) * factor


def scattered_matrix(
    system: SingleLayerSystem, charges: np.ndarray, points
) -> np.ndarray:
    """u_s at many points for many charge columns: shape (P, S).

    u_s(x) = sum_q phi(x, node_q) nu_q, one Green's-function product per
    boundary for all points beyond three node spacings of it.  Nearer
    points use the charges trigonometrically upsampled 2x and 4x (one
    product each) and keep the 4x value; one AccuracyWarning per boundary
    reports entries whose 2x and 4x upsampled values differ by more than
    1e-6 relative (a bound on the 2x error; the 4x value is returned).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x = pts[:, None, :]
    out = np.zeros((len(pts), charges.shape[1]), dtype=complex)
    offset = 0
    for bnd in system.boundaries:
        nu = charges[offset : offset + bnd.n]
        offset += bnd.n
        dist = boundary_distance(bnd.curve, pts)
        near = dist < NEAR_BOUNDARY_SPACINGS * bnd.max_spacing
        far = ~near
        out[far] += green2d(system.ctx, x[far], bnd.nodes[None, :, :]) @ nu
        if not near.any():
            continue
        fields = []
        for factor in (UPSAMPLE_FACTOR // 2, UPSAMPLE_FACTOR):
            m = bnd.n * factor
            nodes = bnd.curve.point(2.0 * np.pi * np.arange(m) / m)
            # nu_j = (2 pi / n) mu(t_j) with mu = psi |x'| smooth and periodic,
            # so the resampled charges over `factor` are the refined charges.
            g = green2d(system.ctx, x[near], nodes[None, :, :])
            fields.append(g @ (_trig_resample(nu, factor) / factor))
        coarse, fine = fields
        miss = np.abs(fine - coarse) > NEAR_EVAL_TOLERANCE * np.abs(fine)
        if miss.any():
            warnings.warn(
                f"near-boundary evaluation: 2x and 4x upsampled values of "
                f"{int(miss.sum())} entries (closest point at distance "
                f"{dist[near].min():.3e}) differ by more than "
                f"{NEAR_EVAL_TOLERANCE:g} relative; the 4x value is returned",
                AccuracyWarning,
                stacklevel=2,
            )
        out[near] += fine
    return out


def total_field_matrix(system: SingleLayerSystem, receivers, sources) -> np.ndarray:
    """u(x_j, z_l) for all receiver/source pairs, shape (J, L)."""
    recv = np.atleast_2d(np.asarray(receivers, dtype=float))
    src = np.atleast_2d(np.asarray(sources, dtype=float))
    phi = green2d(system.ctx, recv[:, None, :], src[None, :, :])
    charges = solve_charges(system, src)
    return scattered_matrix(system, charges, recv) + phi


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
class PointScattererConfig:
    """Collection of small sound-soft circles for the asymptotic model."""

    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.centers, dtype=float))
        r = np.atleast_1d(np.asarray(self.radii, dtype=float))
        if len(c) != len(r):
            raise ValueError("centers and radii must have equal length")
        if np.any(r <= 0):
            raise ValueError("radii must be positive")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", r)

    def reflection_coefficients(self, ctx: WaveContext) -> np.ndarray:
        """lambda_l = 4i / H_0^(1)(k r_l) = -1 / phi at distance r_l, from (k, r_l)."""
        rim = np.stack([self.radii, np.zeros_like(self.radii)], axis=-1)
        return -1.0 / green2d(ctx, rim, np.zeros(2))


def point_scatterer_scattered(
    config: PointScattererConfig, ctx: WaveContext, x, y
):
    """Born-type scattered field of small circles (no multiple scattering).

        u_s(x, y) ~ sum_l lambda_l phi(c_l, y) phi(x, c_l),

    for every point of `x` and source `y`, shape (P, S); a single point is
    a batch of one.
    """
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    ys = np.atleast_2d(np.asarray(y, dtype=float))
    c = config.centers
    phi_xc = green2d(ctx, xs[:, None, :], c[None, :, :])   # (P, L)
    phi_cy = green2d(ctx, c[:, None, :], ys[None, :, :])   # (L, S)
    return (phi_xc * config.reflection_coefficients(ctx)) @ phi_cy
