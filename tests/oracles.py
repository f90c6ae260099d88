"""Independent reference computations for tests.

These deliberately avoid the package's own evaluation paths: plain
Python ascending series for the cylinder functions, power iteration
with deflation for singular values, an even-odd crossing count for
points in a polygon, the nearest node's unit normal for the same
question, one outer product per covariance realization, the
cosine sum for the Kress log weights, np.savetxt for the CSV text, the
explicit formulas of the scatterer curves, the elementwise
broadcast formula of the Green's function, the Kress self block as it
was assembled from separate j0 and y0 arrays, the scattered field summed
into one zero array by masked read-modify-write, the point-scatterer
coefficients from green2d at a rim point, and the indicator mask and
reciprocal as indicator_map built them from the flat values.
Expected values frozen in the tests were produced by these routines.
"""

import math

import numpy as np
import scipy.linalg
import scipy.spatial
import scipy.spatial.distance
import scipy.special

from passivelsm.forward import NEAR_BOUNDARY_SPACINGS, _kress_column, _near_rows
from passivelsm.geometry import boundary_distance
from passivelsm.seeding import substream
from passivelsm.specfun import green2d

EULER_GAMMA = 0.5772156649015329


def j0_series(x: float, terms: int = 200) -> float:
    z = 0.25 * x * x
    term, total = 1.0, 1.0
    for m in range(1, terms):
        term *= -z / (m * m)
        total += term
        if abs(term) < 1e-25 * max(1.0, abs(total)):
            break
    return total


def y0_series(x: float, terms: int = 200) -> float:
    z = 0.25 * x * x
    term, s, h = 1.0, 0.0, 0.0
    for m in range(1, terms):
        term *= -z / (m * m)
        h += 1.0 / m
        s -= h * term
        if abs(term) < 1e-25:
            break
    return (2.0 / math.pi) * ((math.log(0.5 * x) + EULER_GAMMA) * j0_series(x) + s)


def jn_series(n: int, x: float, terms: int = 200) -> float:
    """General-order ascending series; accurate for moderate x."""
    z = 0.25 * x * x
    t = 0.5 * x
    lead = 1.0
    for m in range(1, n + 1):
        lead *= t / m
    term, total = lead, lead
    for m in range(1, terms):
        term *= -z / (m * (n + m))
        total += term
        if abs(term) < 1e-30:
            break
    return total


def green2d_series(k: float, x, y) -> complex:
    r = math.hypot(x[0] - y[0], x[1] - y[1])
    return 0.25j * (j0_series(k * r) + 1j * y0_series(k * r))


def green2d_broadcast(k: float, x, y) -> np.ndarray:
    """(i/4) H_0^(1)(k |x - y|) elementwise over broadcast point arrays
    with a trailing axis of length 2: the formula green2d used before
    it took point sets."""
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    kr = k * np.sqrt(np.sum(diff * diff, axis=-1))
    return 0.25j * (scipy.special.j0(kr) + 1j * scipy.special.y0(kr))


def self_block_separate_j0_y0(bnd, k: float) -> np.ndarray:
    """The Kress self block of forward._self_block as it was assembled
    from its own j0 and y0 arrays: phi = (i/4)(j0 + i y0) with complex
    temporaries, the diagonal overwritten, and phi_1 = -j0/(4 pi) times
    the circulant of forward._kress_column."""
    kr = k * scipy.spatial.distance.cdist(bnd.nodes, bnd.nodes)
    j0 = scipy.special.j0(kr)
    with np.errstate(divide="ignore", invalid="ignore"):   # y0(0) = -inf
        block = 0.25j * (j0 + 1j * scipy.special.y0(kr))
    np.fill_diagonal(
        block, 0.25j - (np.euler_gamma + np.log(0.5 * k * bnd.speeds)) / (2.0 * np.pi))
    block += (-(1.0 / (4.0 * np.pi)) * j0) * scipy.linalg.circulant(_kress_column(bnd.n))
    return block


def scattered_matrix_masked(system, charges, points) -> np.ndarray:
    """u_s as one product of the (P, n) evaluation rows, summed as a masked
    read-modify-write of one zero array: rows[far, cols] += the Green rows
    and rows[near, cols] += the 4x near rows, per boundary."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rows = np.zeros((len(pts), system.size), dtype=complex)
    offset = 0
    for bnd in system.boundaries:
        cols = slice(offset, offset + bnd.n)
        offset += bnd.n
        near = boundary_distance(bnd.curve, pts) < NEAR_BOUNDARY_SPACINGS * bnd.max_spacing
        far = ~near
        rows[far, cols] += green2d(system.ctx, pts[far], bnd.nodes)
        if near.any():
            rows[near, cols] += _near_rows(system.ctx, bnd, pts[near])[0]
    return rows @ charges


def trig_resample(values: np.ndarray, factor: int) -> np.ndarray:
    """Trigonometric interpolation of n equispaced periodic samples to
    n * factor along axis 0, times factor: the ifft of the zero-padded
    spectrum with the Nyquist term split between +n/2 and -n/2."""
    n = len(values)
    m = n * factor
    spec = np.fft.fft(values, axis=0)
    out = np.zeros((m,) + values.shape[1:], dtype=complex)
    h = n // 2
    out[:h] = spec[:h]
    out[-(h - 1):] = spec[-(h - 1):]
    out[h] = 0.5 * spec[h]
    out[m - h] += 0.5 * spec[h]
    return np.fft.ifft(out, axis=0) * factor


def reflection_coefficients_at_rim(ctx, radii) -> np.ndarray:
    """-1 / phi(r_l, 0) from green2d between the rim point (r_l, 0) and
    the origin, for each radius r_l."""
    rim = np.stack([radii, np.zeros_like(radii)], axis=-1)
    return -1.0 / green2d(ctx, rim, np.zeros(2))[:, 0]


def singular_values_power_iteration(
    a: np.ndarray, iters: int = 5000, seed: int = 0
) -> np.ndarray:
    """All singular values of a small matrix by power iteration on A^H A
    with Hotelling deflation.  Independent of any library SVD."""
    a = np.asarray(a, dtype=complex)
    m = a.conj().T @ a
    rng = np.random.default_rng(seed)
    n = m.shape[0]
    values = []
    work = m.copy()
    for _ in range(n):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(iters):
            w = work @ v
            norm = np.linalg.norm(w)
            if norm == 0.0:
                break
            v = w / norm
            lam = float(np.real(np.vdot(v, work @ v)))
        values.append(max(lam, 0.0))
        work = work - lam * np.outer(v, v.conj())
    return np.sqrt(np.sort(np.array(values))[::-1])


def polygon_contains_even_odd(vertices, points, block: int = 512) -> np.ndarray:
    """Even-odd rule: a point is inside when a ray towards +x crosses the
    closed polygon an odd number of times.  Vectorised over blocks of
    points against all edges."""
    p = np.asarray(vertices, dtype=float)
    q = np.roll(p, 1, axis=0)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    inside = np.zeros(len(pts), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, len(pts), block):
            x = pts[start:start + block, 0:1]
            y = pts[start:start + block, 1:2]
            crosses = (p[:, 1] > y) != (q[:, 1] > y)
            xint = (q[:, 0] - p[:, 0]) * (y - p[:, 1]) / (q[:, 1] - p[:, 1]) + p[:, 0]
            inside[start:start + block] = (crosses & (x < xint)).sum(axis=1) % 2 == 1
    return inside


def covariance_outer_loop(u, k: float, sigma_length: float, realizations: int,
                          seed: int) -> np.ndarray:
    """(2ik/M) sum_r U_r conj(U_r)^T for the (J, L) total field u, one
    np.outer per realization r, whose amplitudes are the next 2L normals of
    the one (seed, "covariance-noise") stream, re and im alternating; the
    bracket is not subtracted."""
    count = u.shape[1]
    std = np.sqrt(sigma_length / (2.0 * count))
    rng = substream(seed, "covariance-noise")
    acc = np.zeros((u.shape[0], u.shape[0]), dtype=complex)
    for _ in range(realizations):
        g = rng.standard_normal(2 * count)
        field = u @ (std * (g[0::2] + 1j * g[1::2]))
        acc += np.outer(field, np.conj(field))
    return (2j * k / realizations) * acc


def savetxt_csv(path, columns, header: str, fmt="%.17g") -> None:
    """CSV of the flattened (row-major) columns side by side under header,
    written by np.savetxt."""
    with open(path, "w", newline="\n") as fh:
        np.savetxt(fh, np.column_stack([np.ravel(c) for c in columns]), fmt=fmt,
                   delimiter=",", header=header, comments="")


def mask_and_reciprocal_flat(values: np.ndarray):
    """(values > 0, min-max normalized 1/values on that mask and 0 off
    it), computed on the flattened values and reshaped."""
    flat = values.ravel()
    reciprocal = np.zeros(len(flat))
    valid = flat > 0
    if valid.any():
        rec = 1.0 / flat[valid]
        lo, hi = float(rec.min()), float(rec.max())
        reciprocal[valid] = (rec - lo) / (hi - lo) if hi > lo else 0.0
    return valid.reshape(values.shape), reciprocal.reshape(values.shape)


def kress_weights_cosine_sum(n: int) -> np.ndarray:
    """(n / 2 pi) R_d for d = 0..n-1 by the explicit cosine sum

        R_d = -(4 pi / n) sum_{m=1}^{n/2-1} cos(2 pi m d / n) / m
              - (4 pi / n^2) (-1)^d,

    the Kress weights of the ln(4 sin^2((t - t_j)/2)) factor."""
    d = np.arange(n)
    m = np.arange(1, n // 2)
    r = -(4.0 * np.pi / n) * (np.cos(2.0 * np.pi * np.outer(d, m) / n) / m).sum(axis=1)
    r -= (4.0 * np.pi / n ** 2) * np.where(d % 2 == 0, 1.0, -1.0)
    return (n / (2.0 * np.pi)) * r


def outward_unit_normals(curve, n: int) -> np.ndarray:
    """Outward unit normals (x'_y, -x'_x) / |x'| of the counterclockwise
    curve at t_j = 2 pi j / n, from curve.derivative."""
    t = 2.0 * np.pi * np.arange(n) / n
    d = curve.derivative(t)
    return np.column_stack([d[:, 1], -d[:, 0]]) / np.sqrt((d ** 2).sum(axis=1))[:, None]


def contains_by_unit_normal(nodes, normals, points) -> np.ndarray:
    """Inside where a point lies behind the outward unit normal at its
    nearest node: the formula contains_points used when it read the
    normals of a full discretization."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    idx = scipy.spatial.cKDTree(nodes).query(pts)[1]
    return ((pts - nodes[idx]) * normals[idx]).sum(axis=1) < 0


# Middle of the canonical kite's bounding box: x spans [-97/65, 1]
# (min at cos t = -5/13) and y spans [-3/2, 3/2].
KITE_BOX_MIDDLE = np.array([(-97.0 / 65.0 + 1.0) / 2.0, 0.0])


def canonical_kite(t):
    """(cos t + 0.65 cos 2t - 0.65, 1.5 sin t) and its t-derivative."""
    t = np.asarray(t, dtype=float)
    point = np.stack([np.cos(t) + 0.65 * np.cos(2.0 * t) - 0.65, 1.5 * np.sin(t)], axis=-1)
    deriv = np.stack([-np.sin(t) - 1.3 * np.sin(2.0 * t), 1.5 * np.cos(t)], axis=-1)
    return point, deriv


def canonical_ellipse(a: float, b: float, t):
    """(a cos t, b sin t) and its t-derivative; a circle has a = b."""
    t = np.asarray(t, dtype=float)
    point = np.stack([a * np.cos(t), b * np.sin(t)], axis=-1)
    deriv = np.stack([-a * np.sin(t), b * np.cos(t)], axis=-1)
    return point, deriv


def placed_curve(kind: str, params, center, scale: float, rotation: float, t):
    """Point and derivative of center + scale * R(rotation) @ (canonical(t)
    - box middle), one explicit formula per kind."""
    if kind == "kite":
        point, deriv = canonical_kite(t)
        point = point - KITE_BOX_MIDDLE
    else:
        point, deriv = canonical_ellipse(params[0], params[-1], t)
    c, s = math.cos(rotation), math.sin(rotation)
    rot = np.array([[c, -s], [s, c]])
    return (scale * point @ rot.T + np.asarray(center, dtype=float),
            scale * deriv @ rot.T)
