"""Cylinder functions and the 2D Helmholtz Green's function.

Two kernels, both thin layers over scipy.special:

- hankel1_orders: H_0^(1)..H_nmax^(1) of real arguments stacked by
  order (jv/yv), for the Mie series and its checks;
- green2d: (i/4) H_0^(1)(k |x - y|) from j0/y0, the one kernel path of
  the forward solver and the probing right-hand sides.

scipy.special.hankel1 (AMOS) is not used: it is slower than j0 + y0 and
returns nan where Y_n overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special

# Relative distance below which two points count as coincident.
SINGULARITY_FACTOR = 1e-14


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


def hankel1_orders(nmax: int, x) -> np.ndarray:
    """H_0^(1)(x)..H_nmax^(1)(x) = J_n + i Y_n stacked on a new first axis.

    One jv and one yv call over the broadcast order axis.  The result is
    built componentwise, so a Y_n beyond double range (Y_60(1e-4)) is
    -inf with Re = J_n, where scipy.special.hankel1 gives nan.
    """
    x = np.asarray(x, dtype=float)
    n = np.arange(nmax + 1).reshape((-1,) + (1,) * x.ndim)
    out = np.empty((nmax + 1,) + x.shape, dtype=complex)
    out.real = scipy.special.jv(n, x)
    out.imag = scipy.special.yv(n, x)
    return out


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
    return 0.25j * (scipy.special.j0(kr) + 1j * scipy.special.y0(kr))
