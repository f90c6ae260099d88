"""Linear sampling inversion: SVD, Tikhonov filtering, Morozov parameter
selection, and indicator maps on a probe grid.

For a probe point z with right-hand side (phi_z)_j = phi(x_j, z), the
regularized solution of the measurement system A g = phi_z is computed
in the SVD basis A = U S V*:

    (V* g)_j = sigma_j / (alpha + sigma_j^2) * (U* phi_z)_j,

with alpha chosen per point by Morozov's discrepancy principle

    ||A g - phi_z||^2 = delta^2 ||g||^2,

i.e. the unique positive root of

    F(alpha) = sum_j (alpha^2 - delta^2 sigma_j^2)
               / (alpha + sigma_j^2)^2 * |(U* phi_z)_j|^2 = 0,

which is strictly increasing on (0, inf).  The obstacle is where
||g_z|| stays small, so the visual indicator is the min-max normalized
reciprocal 1/||g_z||; the raw field is kept alongside it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.spatial

from .acquisition import FieldMatrix, _write_csv
from .geometry import PointSet
from .specfun import SINGULARITY_FACTOR, WaveContext, green2d

logger = logging.getLogger(__name__)

MAX_SVD_SIZE = 2048
LOG_ALPHA_TOL = 1e-12           # Newton stops at this step in log(alpha)
MOROZOV_BRACKET_POINTS = 64
MOROZOV_MAX_PASSES = 64
MOROZOV_BLOCK = 512             # probe columns per block of indicator_map
ALPHA_FLOOR = 1e-30


class MorozovNoRootError(RuntimeError):
    """The discrepancy equation has no positive root: noise exceeds signal."""


@dataclass(frozen=True)
class SvdFactors:
    """Full SVD A = U diag(sigma) V* of a square complex matrix."""

    u: np.ndarray
    sigma: np.ndarray
    vh: np.ndarray

    @property
    def v(self) -> np.ndarray:
        return self.vh.conj().T


def svd(matrix) -> SvdFactors:
    """Full SVD of a FieldMatrix or square complex array."""
    a = matrix.entries if isinstance(matrix, FieldMatrix) else np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("svd expects a square matrix")
    if a.shape[0] > MAX_SVD_SIZE:
        raise ValueError(f"matrix size {a.shape[0]} exceeds {MAX_SVD_SIZE}")
    u, s, vh = np.linalg.svd(a)
    return SvdFactors(u=u, sigma=s, vh=vh)


def rhs_vectors(receivers: PointSet, zs, ctx: WaveContext) -> np.ndarray:
    """Right-hand sides for many probe points, shape (J, P)."""
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    return green2d(ctx, receivers.points[:, None, :], zs[None, :, :])


def _discrepancy_slope(alpha, cols, sigma2, delta2, b2):
    """F and dF/dlog(alpha) at alpha[i] for column cols[i] of b2.

    With r = 1/(alpha + sigma^2) and q = r^2 b2, F = alpha^2 sum(q) -
    delta^2 sigma^2.q and dF/dalpha = 2 (alpha + delta^2) sigma^2.(q r).
    b2 is one block of probe columns, so a pass holds two J x block
    temporaries.
    """
    r = np.add.outer(alpha, sigma2)
    np.reciprocal(r, out=r)
    q = b2[:, cols].T     # the gather is column-major: q is block x J in C order
    q *= r
    q *= r
    f = alpha * alpha * q.sum(axis=1) - delta2 * (q @ sigma2)
    q *= r
    return f, 2.0 * alpha * (alpha + delta2) * (q @ sigma2)


def _morozov_many(sigma: np.ndarray, b2: np.ndarray, delta: float):
    """Morozov's alpha for every column of squared coefficients b2 = |U* phi_z|^2.

    Returns (alpha, passes).  alpha is inf where F(ALPHA_FLOOR) >= 0: no
    root exists, and the alpha -> inf limit gives ||g|| = 0.  Every term
    of F is <= 0 at delta sigma_min and >= 0 at delta sigma_max, so one
    (K x J)(J x block) product of F on K log-spaced alpha in between brackets
    each root.  Newton steps in log(alpha) from the secant of the bracket
    then refine it, each pass over the columns still active.  b2 is one
    block of probe columns, so each step holds one J x block temporary.
    """
    sigma2 = sigma ** 2
    delta2 = delta ** 2
    every = np.arange(b2.shape[1])
    alpha = np.full(b2.shape[1], np.inf)
    f_floor, _ = _discrepancy_slope(np.full(b2.shape[1], ALPHA_FLOOR), every, sigma2, delta2, b2)
    active = every[f_floor < 0]
    if not active.size:
        return alpha, 0
    grid = np.linspace(np.log(max(delta * float(sigma.min()), ALPHA_FLOOR)),
                       np.log(delta * float(sigma.max())), MOROZOV_BRACKET_POINTS)
    a = np.exp(grid)[:, None]
    f_grid = (a * a - delta2 * sigma2) / (a + sigma2) ** 2 @ b2
    above = f_grid >= 0
    top = np.where(above.any(axis=0), above.argmax(axis=0), len(grid) - 1)[active]
    bottom = np.maximum(top - 1, 0)
    lo, hi = grid[bottom], grid[top]
    f_lo, f_hi = f_grid[bottom, active], f_grid[top, active]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    t = np.where((lo <= t) & (t <= hi), t, 0.5 * (lo + hi))
    passes = 0
    while active.size and passes < MOROZOV_MAX_PASSES:
        passes += 1
        f, slope = _discrepancy_slope(np.exp(t), active, sigma2, delta2, b2)
        hi = np.where(f > 0, t, hi)
        lo = np.where(f < 0, t, lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = t - f / slope
        # a step that leaves the bracket (or is not finite) bisects it
        t_next = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        done = np.abs(t_next - t) <= LOG_ALPHA_TOL
        alpha[active[done]] = np.exp(t_next[done])
        active, t, lo, hi = active[~done], t_next[~done], lo[~done], hi[~done]
    alpha[active] = np.exp(t)
    return alpha, passes


def morozov_alpha(factors: SvdFactors, b: np.ndarray, delta: float) -> float:
    """Positive root of the discrepancy equation for coefficients b = U* phi_z.

    Raises MorozovNoRootError when no root exists (the noise level
    exceeds what the data can resolve); callers then take the
    alpha -> infinity limit, where ||g|| -> 0.
    """
    if delta <= 0:
        raise ValueError("morozov_alpha requires delta > 0")
    b = np.asarray(b)
    if not np.any(np.abs(b) > 0):
        raise MorozovNoRootError("zero right-hand side")
    alpha, _ = _morozov_many(factors.sigma, (np.abs(b) ** 2)[:, None], delta)
    if not np.isfinite(alpha[0]):
        raise MorozovNoRootError("noise exceeds signal: no discrepancy root")
    return float(alpha[0])


def _tikhonov_norms(sigma: np.ndarray, b2: np.ndarray, alpha: np.ndarray):
    """||g|| per column of b2 = |U* phi|^2, column c at alpha[c].

    In the SVD basis the filter sigma/(alpha + sigma^2) gives the
    coefficients of g.  b2 is one block of probe columns, and one J x block
    temporary holds the filter, in place.
    """
    w = np.add.outer(sigma ** 2, alpha)
    np.divide(sigma[:, None], w, out=w)
    w **= 2
    w *= b2
    return np.sqrt(w.sum(axis=0))


def tikhonov_solve(factors: SvdFactors, phi_z: np.ndarray, alpha: float) -> np.ndarray:
    """The Tikhonov-filtered solution vector g itself."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    b = factors.u.conj().T @ np.asarray(phi_z)
    s = factors.sigma
    return factors.v @ (s / (alpha + s ** 2) * b)


# ---------------------------------------------------------------------------
# Indicator maps
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class GridSpec:
    """Rectangular probe grid with inclusive endpoints."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def axes(self):
        return (
            np.linspace(self.x_min, self.x_max, self.nx),
            np.linspace(self.y_min, self.y_max, self.ny),
        )

    def points(self):
        xs, ys = self.axes()
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])

    @property
    def cell(self) -> float:
        dx = (self.x_max - self.x_min) / max(self.nx - 1, 1)
        dy = (self.y_max - self.y_min) / max(self.ny - 1, 1)
        return max(dx, dy)


@dataclass(frozen=True)
class MorozovStats:
    """How the per-probe Morozov solves went; alpha over the solvable probes.

    The alpha fields are None when no probe is solvable.  The probes are
    solved in blocks of MOROZOV_BLOCK, and newton_passes is the largest
    pass count of any block.
    """

    probed: int
    unsolvable: int
    alpha_min: Optional[float]
    alpha_median: Optional[float]
    alpha_max: Optional[float]
    newton_passes: int


@dataclass(frozen=True)
class IndicatorMap:
    """Raw ||g_z|| values and the normalized reciprocal visual indicator.

    mask marks cells that were probed successfully inside the mask
    radius; masked-out cells carry value 0 in both fields.
    """

    grid: GridSpec
    values: np.ndarray
    reciprocal: np.ndarray
    mask: np.ndarray
    norm_min: float
    norm_max: float
    morozov: MorozovStats


def indicator_map(
    matrix: FieldMatrix,
    grid: GridSpec,
    ctx: WaveContext,
    mask_radius: Optional[float] = None,
) -> IndicatorMap:
    """Probe the medium on `grid` with per-point Morozov regularization.

    The receivers and the noise level delta are the matrix's own.  One
    SVD is computed per matrix; all probe points share it.  Points
    outside the mask radius (default: the receiver circle radius) are
    skipped; points whose discrepancy equation has no root are recorded
    as failures in the mask.
    """
    receivers = matrix.receivers
    delta = matrix.delta
    if delta <= 0:
        raise ValueError("indicator_map requires a positive noise level delta")
    if mask_radius is None:
        mask_radius = receivers.radius
    factors = svd(matrix)
    pts = grid.points()
    inside = (pts ** 2).sum(axis=1) <= mask_radius ** 2
    # exclude probe points that collide with a receiver
    dmin = np.full(len(pts), np.inf)
    dmin[inside] = scipy.spatial.cKDTree(receivers.points).query(pts[inside])[0]
    probe = inside & (dmin > SINGULARITY_FACTOR * ctx.wavelength)
    zs = pts[probe]
    alpha, gnorm = np.empty(len(zs)), np.empty(len(zs))
    passes = 0
    uh = factors.u.conj().T
    # one block of probes at a time, so no J x P array exists; the
    # right-hand sides and U* phi are freed at once, b2 is squared in place
    for start in range(0, len(zs), MOROZOV_BLOCK):
        part = slice(start, start + MOROZOV_BLOCK)
        b2 = np.abs(uh @ rhs_vectors(receivers, zs[part], ctx))
        b2 *= b2
        alpha[part], block_passes = _morozov_many(factors.sigma, b2, delta)
        # an unsolvable probe has alpha = inf and so ||g|| = 0
        gnorm[part] = _tikhonov_norms(factors.sigma, b2, alpha[part])
        passes = max(passes, block_passes)
    values = np.zeros(len(pts))
    values[probe] = gnorm
    solved = alpha[np.isfinite(alpha)]
    stats = MorozovStats(
        probed=len(zs),
        unsolvable=int(alpha.size - solved.size),
        alpha_min=float(solved.min()) if solved.size else None,
        alpha_median=float(np.median(solved)) if solved.size else None,
        alpha_max=float(solved.max()) if solved.size else None,
        newton_passes=passes,
    )
    reciprocal = np.zeros(len(pts))
    valid = values > 0
    if valid.any():
        rec = 1.0 / values[valid]
        lo, hi = float(rec.min()), float(rec.max())
        reciprocal[valid] = (rec - lo) / (hi - lo) if hi > lo else 0.0
    else:
        lo = hi = 0.0
    shape = (grid.nx, grid.ny)
    n_ok = int(valid.sum())
    logger.debug("indicator map: %d/%d grid points probed", n_ok, len(pts))
    return IndicatorMap(
        grid=grid,
        values=values.reshape(shape),
        reciprocal=reciprocal.reshape(shape),
        mask=valid.reshape(shape),
        norm_min=lo,
        norm_max=hi,
        morozov=stats,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------
def _grid_lines(grid: GridSpec, fmt: str, *fields):
    """CSV text of the grid one line (fixed y, ascending x) at a time.

    Each row is x, y, then the (nx, ny) fields at that point in `fmt`.
    Every axis value is formatted once, and only one line's values are
    converted to Python numbers at a time.
    """
    xs, ys = (["%.17g" % v for v in axis.tolist()] for axis in grid.axes())
    heads = [x + "," for x in xs]
    for iy, y in enumerate(ys):
        tail = f"{y},{fmt}\n"
        cells = np.column_stack([f[:, iy] for f in fields])
        yield (tail.join(heads) + tail) % tuple(cells.ravel().tolist())


def write_indicator_csv(imap: IndicatorMap, path) -> None:
    """Full per-point table: x, y, raw ||g||, normalized reciprocal, mask."""
    _write_csv(path, "x,y,raw,reciprocal,mask", _grid_lines(
        imap.grid, "%.17g,%.17g,%d", imap.values, imap.reciprocal, imap.mask))


def write_indicator_raw_csv(imap: IndicatorMap, path) -> None:
    """Raw ||g|| field only: x, y, value, mask."""
    _write_csv(path, "x,y,value,mask",
               _grid_lines(imap.grid, "%.17g,%d", imap.values, imap.mask))


def write_indicator_pgm(imap: IndicatorMap, path) -> None:
    """8-bit binary PGM of the reciprocal indicator, rows top to bottom."""
    img = np.round(255.0 * np.clip(imap.reciprocal, 0.0, 1.0)).astype(np.uint8)
    img[~imap.mask] = 0
    # values[ix, iy] -> image row = top-to-bottom in y, column = x
    raster = img.T[::-1, :]
    header = f"P5\n{imap.grid.nx} {imap.grid.ny}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(raster.tobytes())
