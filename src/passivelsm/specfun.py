"""Cylinder functions and the 2D Helmholtz Green's function.

Two kernels, both thin layers over scipy.special:

- hankel1_orders: H_0^(1)..H_nmax^(1) of real arguments stacked by
  order (jv/yv), for the Mie series and its checks;
- green_kr: (i/4) H_0^(1)(kr) elementwise, y0 and j0 written straight
  into the real and imaginary parts of one complex array, so no complex
  temporary exists.  It is the only code that turns k r into phi:
  green2d calls it on the (P, Q) distance matrix of P points and Q
  sources scaled by k in place (for the solver's right-hand sides,
  fields and coupling blocks and the probing right-hand sides), and so
  do the Kress self block and the point-scatterer coefficients.

Only the imaginary bracket (acquisition.imaginary_bracket) evaluates
j0 alone: it needs just Im phi, which is finite on the diagonal.

scipy.special.hankel1 (AMOS) is not used: it is slower than j0 + y0 and
returns nan where Y_n overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.spatial.distance
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
    """Free-space Green's function (i/4) H_0^(1)(k |x - y|) for every pair.

    `x` is (P, 2) and `y` is (Q, 2); the result is (P, Q) with entry
    [p, q] = phi(x_p, y_q), so green2d(ctx, y, x) is its transpose.  A
    single point is a batch of one.

    Raises
    ------
    SingularityError
        If any pair is closer than 1e-14 wavelengths.
    """
    r = scipy.spatial.distance.cdist(np.atleast_2d(x), np.atleast_2d(y))
    if np.any(r < SINGULARITY_FACTOR * ctx.wavelength):
        raise SingularityError("green2d evaluated at a source point")
    r *= ctx.k      # k r, in place
    return green_kr(r)


def green_kr(kr):
    """(i/4) H_0^(1)(kr) elementwise, unchecked: kr = 0 gives inf + 0.25i."""
    # (i/4)(j0 + i y0) = -y0/4 + i j0/4, written into one complex array
    out = np.empty(np.shape(kr), dtype=complex)
    scipy.special.y0(kr, out=out.real)
    scipy.special.j0(kr, out=out.imag)
    out.real *= -0.25
    out.imag *= 0.25
    return out
