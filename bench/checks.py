"""Output checks computed apart from the program.

Nothing here imports passivelsm: every reference is rebuilt from the scene
description with numpy and scipy.special, so a fault in the program's
kernels, solver or inversion cannot hide itself.  Each check returns a list
of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.optimize
import scipy.special

# Morozov root and ||g_z|| recomputed with brentq agree with the program's
# bisection to ~1e-13; the bound leaves room for the written 17 digits.
GNORM_RTOL = 1e-8
# ||W - N_ref||_2 against the recorded noise level delta: Mie and Born agree
# to 2e-14 relative on the mixed-scenes circles and point scatterers.
DELTA_RTOL = 1e-10
HERMITIAN_RTOL = 1e-10
PSD_RTOL = 1e-10
BRIDGE_LIMIT = 0.05
CONTRAST_MIN = 2.0          # criterion-9 thresholds
CENTROID_MAX_WAVELENGTHS = 0.25
RATE_SLOPE = -0.5
RATE_SLOPE_TOL = 0.1

_KITE_BOX_MIDDLE = ((-97.0 / 65.0 + 1.0) / 2.0, 0.0)


def green(k, x, z):
    """(i/4) H_0^(1)(k |x - z|) for broadcastable point arrays."""
    r = np.sqrt(((np.asarray(x) - np.asarray(z)) ** 2).sum(-1))
    return 0.25j * scipy.special.hankel1(0, k * r)


def bracket(k, receivers):
    """phi - conj(phi) at receiver pairs: (i/2) J_0(k r)."""
    d = receivers[:, None, :] - receivers[None, :, :]
    return 0.5j * scipy.special.j0(k * np.sqrt((d ** 2).sum(-1)))


def circle_layout(radius, count, arc=None):
    """Equispaced points theta_min + span * j / count on a circle or arc."""
    lo, span = (0.0, 2.0 * math.pi) if arc is None else (arc[0], arc[1] - arc[0])
    theta = lo + (span / count) * np.arange(count)
    return radius * np.column_stack([np.cos(theta), np.sin(theta)])


def curve_polygon(kind, center, size, samples=1024):
    """Dense polygon of a placed kite, ellipse or circle (size = diameter)."""
    t = 2.0 * math.pi * np.arange(samples) / samples
    if kind == "kite":
        x = np.cos(t) + 0.65 * np.cos(2.0 * t) - 0.65 - _KITE_BOX_MIDDLE[0]
        y = 1.5 * np.sin(t)
        diameter = 3.0
    elif kind == "ellipse":
        x, y, diameter = 1.5 * np.cos(t), np.sin(t), 3.0
    elif kind == "circle":
        x, y, diameter = np.cos(t), np.sin(t), 2.0
    else:
        raise ValueError(f"no polygon for scatterer kind {kind!r}")
    scale = size / diameter
    return np.column_stack([center[0] + scale * x, center[1] + scale * y])


def inside_polygon(poly, pts):
    """Even-odd crossing test of pts (P, 2) against a closed polygon."""
    px, py = poly[:, 0][None, :], poly[:, 1][None, :]
    qx, qy = np.roll(poly[:, 0], 1)[None, :], np.roll(poly[:, 1], 1)[None, :]
    x, y = pts[:, 0][:, None], pts[:, 1][:, None]
    crosses = (py > y) != (qy > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = (qx - px) * (y - py) / (qy - py) + px
    return ((crosses & (x < xint)).sum(axis=1) % 2) == 1


def polygon_distance(poly, pts, block=1000):
    """Distance from each point to the nearest polygon vertex."""
    out = np.empty(len(pts))
    for s in range(0, len(pts), block):
        d = pts[s:s + block, None, :] - poly[None, :, :]
        out[s:s + block] = np.sqrt((d ** 2).sum(-1)).min(axis=1)
    return out


# ---------------------------------------------------------------------------
# Readers for the written files
# ---------------------------------------------------------------------------
def read_matrix(path):
    """(entries, header fields) of a written matrix.csv."""
    with open(path) as fh:
        head = fh.readline()
        data = np.loadtxt(fh, delimiter=",")
    fields = dict(item.partition("=")[::2] for item in head[2:].strip().split(","))
    j = int(fields["J"])
    return (data[:, 0] + 1j * data[:, 1]).reshape(j, j), fields


def read_table(path):
    """Columns of a written indicator CSV as a float array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------
def mie_near_field(k, radius, center, receivers, terms=None):
    """N_jm = u_s(x_j, x_m) of a sound-soft circle by the separation series."""
    rel = receivers - np.asarray(center)
    r = np.hypot(rel[:, 0], rel[:, 1])
    theta = np.arctan2(rel[:, 1], rel[:, 0])
    ka = k * radius
    n = np.arange((int(math.ceil(ka)) + 30) if terms is None else terms)
    ratio = scipy.special.jv(n, ka) / scipy.special.hankel1(n, ka)
    h = scipy.special.hankel1(n[:, None], k * r[None, :])          # (n, J)
    hc, hs = h * np.cos(n[:, None] * theta), h * np.sin(n[:, None] * theta)
    weight = np.where(n == 0, 1.0, 2.0) * ratio
    series = np.einsum("n,nj,nm->jm", weight, hc, hc) + np.einsum(
        "n,nj,nm->jm", weight, hs, hs)
    return -0.25j * series


def born_near_field(k, centers, radius, receivers):
    """Point-scatterer model N_jm = sum_l lambda_l phi(x_j, c_l) phi(c_l, x_m)."""
    centers = np.asarray(centers, dtype=float)
    lam = 4j / scipy.special.hankel1(0, k * radius * np.ones(len(centers)))
    p = green(k, receivers[:, None, :], centers[None, :, :])          # (J, L)
    return (p * lam[None, :]) @ p.T


def morozov_alpha(sigma, b2, delta):
    """Root of the discrepancy function, found by brentq in log(alpha).

    F(alpha) = sum (alpha^2 - delta^2 sigma^2)/(alpha + sigma^2)^2 |b|^2 is
    increasing; returns None when F has no positive root.
    """
    s2 = sigma ** 2

    def f(t):
        a = math.exp(t)
        return float((((a * a - delta ** 2 * s2) / (a + s2) ** 2) * b2).sum())

    lo, hi = math.log(1e-30), math.log(max(delta * sigma.max(), 2e-30))
    while f(hi) < 0:
        hi += math.log(2.0)
    if f(lo) >= 0:
        return None
    return math.exp(scipy.optimize.brentq(f, lo, hi, xtol=1e-14,
                                          rtol=4 * np.finfo(float).eps, maxiter=500))


def tikhonov_norm(sigma, b2, alpha):
    """||g|| of the Tikhonov solution with filter sigma / (alpha + sigma^2)."""
    return float(np.sqrt((((sigma / (alpha + sigma ** 2)) ** 2) * b2).sum()))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------
def check_delta(written, reference, delta, what):
    """The written noisy matrix sits exactly delta (spectral norm) off the reference."""
    dist = float(np.linalg.norm(written - reference, 2))
    if not abs(dist - delta) <= DELTA_RTOL * delta:
        return [f"{what}: ||W - ref||_2 = {dist:.12e} but delta = {delta:.12e}"]
    return []


def check_morozov(written, delta, k, receivers, probes, values):
    """Recompute ||g_z|| at the given probe points and compare with `values`."""
    u, sigma, _ = np.linalg.svd(written)
    phi = green(k, receivers[:, None, :], probes[None, :, :])       # (J, P)
    b2 = np.abs(u.conj().T @ phi) ** 2
    errors = []
    for i, (z, v) in enumerate(zip(probes, values)):
        alpha = morozov_alpha(sigma, b2[:, i], delta)
        g = None if alpha is None else tikhonov_norm(sigma, b2[:, i], alpha)
        if g is None or not abs(g - v) <= GNORM_RTOL * g:
            errors.append(f"morozov: ||g|| at {tuple(z)} is {v!r}, recomputed {g!r}")
    return errors


def contrast_centroid(pts, reciprocal, valid, poly, center, wavelength):
    """(contrast, centroid distance) as criterion 9 defines them."""
    # Points farther than reach from the centre are outside and more than
    # a quarter wavelength from the curve; only the rest need the tests.
    reach = np.hypot(*(poly - center).T).max() + wavelength / 4.0
    near = np.flatnonzero(np.hypot(*(pts - center).T) <= reach)
    inside = np.zeros(len(pts), dtype=bool)
    inside[near] = inside_polygon(poly, pts[near])
    banded = np.zeros(len(pts), dtype=bool)
    banded[near] = polygon_distance(poly, pts[near]) <= wavelength / 4.0
    sel_in = valid & inside
    sel_out = valid & ~inside & ~banded
    mean_in = reciprocal[sel_in].mean() if sel_in.any() else 0.0
    mean_out = reciprocal[sel_out].mean() if sel_out.any() else np.inf
    half = valid & (reciprocal >= 0.5)
    if not half.any():
        return mean_in / mean_out, np.inf
    c = pts[half].mean(axis=0)
    return mean_in / mean_out, float(np.hypot(c[0] - center[0], c[1] - center[1]))


def check_contrast(pts, reciprocal, valid, poly, center, wavelength):
    contrast, dist = contrast_centroid(pts, reciprocal, valid, poly, center, wavelength)
    errors = []
    if not contrast >= CONTRAST_MIN:
        errors.append(f"contrast {contrast:.3f} < {CONTRAST_MIN}")
    if not dist <= CENTROID_MAX_WAVELENGTHS * wavelength:
        errors.append(f"half-max centroid {dist:.4f} from the centre")
    return errors


def check_hermitian_psd(entries, k, receivers, what):
    """(M + bracket)/(2ik) is a Gram matrix: Hermitian positive semidefinite."""
    h = (entries + bracket(k, receivers)) / (2j * k)
    scale = np.linalg.norm(h)
    asym = float(np.linalg.norm(h - h.conj().T) / scale)
    eig = np.linalg.eigvalsh(0.5 * (h + h.conj().T))
    errors = []
    if not asym <= HERMITIAN_RTOL:
        errors.append(f"{what}: not Hermitian (rel {asym:.2e})")
    if not eig[0] >= -PSD_RTOL * eig[-1]:
        errors.append(f"{what}: eigenvalue {eig[0]:.3e} below 0 (max {eig[-1]:.3e})")
    return errors


def bridge_error(c_entries, i_entries):
    return float(np.linalg.norm(c_entries - i_entries) / np.linalg.norm(i_entries))


def check_bridge(c_entries, i_entries):
    err = bridge_error(c_entries, i_entries)
    return [] if err < BRIDGE_LIMIT else [f"bridge error {err:.4f} >= {BRIDGE_LIMIT}"]


def rate_slope(errors_by_count):
    """Log-log slope of the mean bridge error against the source count."""
    counts = sorted(errors_by_count)
    means = [float(np.mean(errors_by_count[c])) for c in counts]
    return float(np.polyfit(np.log(counts), np.log(means), 1)[0])


def check_rate(errors_by_count):
    slope = rate_slope(errors_by_count)
    if not abs(slope - RATE_SLOPE) <= RATE_SLOPE_TOL:
        return [f"uniform-source bridge error slope {slope:.3f}, expected "
                f"{RATE_SLOPE} +/- {RATE_SLOPE_TOL}"]
    return []
