"""Independent reference computations for tests.

These deliberately avoid the package's own evaluation paths: plain
Python ascending series for the cylinder functions, power iteration
with deflation for singular values, an even-odd crossing count for
points in a polygon, one outer product per covariance realization, the
cosine sum for the Kress log weights, and np.savetxt for the CSV text.
Expected values frozen in the tests were produced by these routines.
"""

import math

import numpy as np

from passivelsm.seeding import substream

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
    np.outer per realization r with amplitudes drawn from the
    (seed, "covariance-noise", r) stream; the bracket is not subtracted."""
    count = u.shape[1]
    std = np.sqrt(sigma_length / (2.0 * count))
    acc = np.zeros((u.shape[0], u.shape[0]), dtype=complex)
    for r in range(realizations):
        g = substream(seed, "covariance-noise", r).standard_normal((2, count))
        field = u @ (std * (g[0] + 1j * g[1]))
        acc += np.outer(field, np.conj(field))
    return (2j * k / realizations) * acc


def savetxt_csv(path, columns, header: str, fmt="%.17g") -> None:
    """CSV of the flattened (row-major) columns side by side under header,
    written by np.savetxt."""
    with open(path, "w", newline="\n") as fh:
        np.savetxt(fh, np.column_stack([np.ravel(c) for c in columns]), fmt=fmt,
                   delimiter=",", header=header, comments="")


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
