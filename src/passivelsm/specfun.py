"""Bessel and Hankel functions plus the 2D Helmholtz Green's function.

Everything downstream (boundary integral kernels, the Mie series, the
probing right-hand sides) reduces to cylinder functions of integer order
on the supported domain: orders 0..60, arguments in (0, 1e4].

J_0/Y_0 come from scipy.special.j0/y0 and higher orders from jv/yv;
scipy.special.hankel1 (AMOS) is not used because it is slower than j0 + y0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special

MAX_ORDER = 60
MAX_ARGUMENT = 1.0e4

# Relative distance below which two points count as coincident.
SINGULARITY_FACTOR = 1e-14


class DomainError(ValueError):
    """Argument outside the supported (order, argument) domain."""


class SingularityError(ValueError):
    """Evaluation requested at (or numerically at) a source point."""


@dataclass(frozen=True)
class WaveContext:
    """Wavenumber k > 0 with derived wavelength 2*pi/k."""

    k: float

    def __post_init__(self):
        if not (np.isfinite(self.k) and self.k > 0.0):
            raise ValueError(f"wavenumber must be positive and finite, got {self.k}")

    @property
    def wavelength(self) -> float:
        return 2.0 * np.pi / self.k


def _j(n: int, x):
    return scipy.special.j0(x) if n == 0 else scipy.special.jv(n, x)


def _y(n: int, x):
    return scipy.special.y0(x) if n == 0 else scipy.special.yv(n, x)


def _h(j, y):
    """J + iY, built componentwise so an overflowed Y = -inf keeps Re = J."""
    out = np.empty(np.shape(j), dtype=complex)
    out.real = j
    out.imag = y
    return out


def _all_orders(kernel, nmax: int, x) -> np.ndarray:
    return np.array([kernel(n, x) for n in range(nmax + 1)])


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------
def _validate(n: int, x) -> np.ndarray:
    if not isinstance(n, (int, np.integer)):
        raise DomainError(f"order must be an integer, got {n!r}")
    if n < 0 or n > MAX_ORDER:
        raise DomainError(f"order must be in [0, {MAX_ORDER}], got {n}")
    arr = np.asarray(x, dtype=float)
    if arr.size and (np.any(arr <= 0.0) or np.any(arr > MAX_ARGUMENT)):
        raise DomainError(f"argument must lie in (0, {MAX_ARGUMENT:g}]")
    return arr


def bessel_j(n: int, x):
    """Bessel function of the first kind J_n(x).

    Supports integer orders 0..60 and real x in (0, 1e4], scalar or
    array; absolute accuracy 1e-10 or better on that domain.
    """
    arr = _validate(n, x)
    vals = _j(n, arr)
    return float(vals) if arr.ndim == 0 else vals


def bessel_y(n: int, x):
    """Bessel function of the second kind Y_n(x); domain as bessel_j.

    Values beyond double range, such as Y_60(1e-4), are -inf.
    """
    arr = _validate(n, x)
    vals = _y(n, arr)
    return float(vals) if arr.ndim == 0 else vals


def hankel1(n: int, x):
    """Hankel function of the first kind, H_n^(1) = J_n + i Y_n."""
    arr = _validate(n, x)
    vals = _h(_j(n, arr), _y(n, arr))
    return complex(vals) if arr.ndim == 0 else vals


def bessel_jn(nmax: int, x) -> np.ndarray:
    """J_0(x)..J_nmax(x) stacked along the first axis (x flattened)."""
    arr = _validate(nmax, x)
    return _all_orders(_j, nmax, arr.ravel())


def bessel_yn(nmax: int, x) -> np.ndarray:
    """Y_0(x)..Y_nmax(x) stacked along the first axis (x flattened)."""
    arr = _validate(nmax, x)
    return _all_orders(_y, nmax, arr.ravel())


def hankel1_all(nmax: int, x) -> np.ndarray:
    """H_0^(1)(x)..H_nmax^(1)(x) stacked along the first axis."""
    arr = _validate(nmax, x)
    flat = arr.ravel()
    return _h(_all_orders(_j, nmax, flat), _all_orders(_y, nmax, flat))


def green2d(ctx: WaveContext, x, y):
    """Free-space Green's function (i/4) H_0^(1)(k |x - y|).

    `x` and `y` are points or broadcast-compatible arrays of points with
    a trailing axis of length 2.  Symmetric in its two arguments.

    Raises
    ------
    SingularityError
        If any pair is closer than 1e-14 wavelengths.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    diff = x - y
    r = np.sqrt(np.sum(diff * diff, axis=-1))
    if np.any(r < SINGULARITY_FACTOR * ctx.wavelength):
        raise SingularityError("green2d evaluated at a source point")
    kr = ctx.k * r
    vals = 0.25j * (scipy.special.j0(kr) + 1j * scipy.special.y0(kr))
    return complex(vals) if np.ndim(r) == 0 else vals
