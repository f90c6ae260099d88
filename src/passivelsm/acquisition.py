"""Measurement matrices: near-field, imaginary near-field, cross-correlation
from deterministic random-position sources, and covariance from random
noise amplitudes, plus white-noise contamination.

Conventions, with receivers x_j, sources z_l on a curve Sigma of length
|Sigma| (the 2D "area"), u the total field and phi the Green's function:

    N_jm = u_s(x_j, x_m)
    I_jm = N_jm - conj(N_jm)
    C_jm = (2ik|Sigma|/L) sum_l conj(u(x_j, z_l)) u(x_m, z_l)
           - [phi(x_j, x_m) - conj(phi(x_j, x_m))]
    C_jm = 2ik <U(x_j) conj(U(x_m))> - [same bracket]   (covariance setup)

The bracket is 2i Im phi = (i/2) J_0(k |x_j - x_m|) entrywise, which is
finite on the diagonal (J_0(0) = 1 gives i/2), matching the limit value
of the self-correlation term.  Both correlation kinds are one Gram sum
H = sum conj(f) f^T over (J, b) receiver-field blocks f, minus the bracket.
The fields come SOURCE_BLOCK = 256 sources at a time: the cross-correlation
feeds them to the Gram sum, and the covariance keeps them as its (J, L)
field and feeds the fields of at most REALIZATION_BLOCK = 128 realizations
at a time, whose amplitudes come in realization order from one (seed,
"covariance-noise") stream.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.spatial.distance
import scipy.special
from scipy.linalg.blas import zherk

from .forward import total_field_matrix
from .geometry import PointSet
from .seeding import substream
from .specfun import WaveContext

logger = logging.getLogger(__name__)

NEAR_FIELD = "near-field"
IMAGINARY_NEAR_FIELD = "imaginary-near-field"
CROSS_CORRELATION = "cross-correlation"
COVARIANCE = "covariance"

MATRIX_KINDS = (NEAR_FIELD, IMAGINARY_NEAR_FIELD, CROSS_CORRELATION, COVARIANCE)

# Covariance realizations whose fields enter one matrix product.
REALIZATION_BLOCK = 128
# Sources whose fields are held at once; every preset (L <= 200) is one block.
SOURCE_BLOCK = 256


@dataclass(frozen=True)
class FieldMatrix:
    """J x J complex measurement matrix with what produced it.

    The correlation kinds keep their source layout (L, beta, seed) and the
    covariance its realization count M.  add_noise sets the noise amplitude
    and seed and the spectral-norm noise level delta (0 when noise-free).
    """

    entries: np.ndarray
    kind: str
    receivers: PointSet
    k: float
    sources: Optional[PointSet] = None
    realizations: Optional[int] = None
    noise_amplitude: float = 0.0
    noise_seed: Optional[int] = None
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in MATRIX_KINDS:
            raise ValueError(f"unknown matrix kind {self.kind!r}")
        e = np.asarray(self.entries)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("entries must be a square matrix")

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def imaginary_bracket(ctx: WaveContext, receivers: PointSet) -> np.ndarray:
    """phi - conj(phi) at receiver pairs: (i/2) J_0(k r), i/2 on the diagonal.

    Only Im phi is needed, so j0 alone is evaluated, not specfun.green_kr.
    Each distinct pair is evaluated once, from pdist, and mirrored.
    """
    pairs = scipy.spatial.distance.pdist(receivers.points)
    pairs *= ctx.k
    pairs = 0.5j * scipy.special.j0(pairs, out=pairs)
    bracket = scipy.spatial.distance.squareform(pairs)
    np.fill_diagonal(bracket, 0.5j)
    return bracket


def near_field_matrix(receivers: PointSet, model) -> FieldMatrix:
    """N_jm = u_s(x_j, x_m) with co-located sources and receivers.

    `model` is either forward model.  One boundary factorization serves
    all J source columns; the result is symmetric by reciprocity (exactly
    so in the single-layer discretization).
    """
    pts = receivers.points
    return FieldMatrix(model.scattered(pts, pts), NEAR_FIELD, receivers, model.ctx.k)


def imaginary_near_field_matrix(matrix: FieldMatrix) -> FieldMatrix:
    """I = N - conj(N), entrywise (2i times the imaginary part)."""
    if matrix.kind != NEAR_FIELD:
        raise ValueError(
            f"imaginary near-field requires a {NEAR_FIELD} input, got {matrix.kind}"
        )
    return FieldMatrix(matrix.entries - np.conj(matrix.entries), IMAGINARY_NEAR_FIELD,
                       matrix.receivers, matrix.k)


def _field_blocks(model, receivers: PointSet, sources: PointSet):
    """The (J, b) total field at the receivers of each SOURCE_BLOCK sources
    in turn; each block's sources are checked as it comes."""
    for start in range(0, sources.count, SOURCE_BLOCK):
        yield total_field_matrix(model, receivers.points,
                                 sources.points[start:start + SOURCE_BLOCK])


def _gram(size, fields):
    """H = sum conj(f) f^T over the (size, b) blocks f, each dropped before
    the next is made: zherk(A = f^T, trans=2) adds A^H A = conj(f) f^T to
    the upper triangle of a Fortran-order sum in place, mirrored once."""
    acc = np.zeros((size, size), dtype=complex, order="F")
    for f in fields:
        zherk(1.0, f.T, beta=1.0, c=acc, trans=2, overwrite_c=1)
        del f
    gram = np.tril(acc.T, -1)
    np.conjugate(gram, out=gram)
    gram += acc
    return gram


def _correlation_matrix(kind, entries, receivers: PointSet, sources: PointSet,
                        model, prefactor, realizations=None):
    """prefactor * entries - bracket, scaled and shifted in place."""
    entries *= prefactor
    entries -= imaginary_bracket(model.ctx, receivers)
    return FieldMatrix(entries, kind, receivers, model.ctx.k, sources=sources,
                       realizations=realizations)


def cross_correlation_matrix(
    receivers: PointSet,
    random_sources: PointSet,
    sigma_length: float,
    model,
) -> FieldMatrix:
    """Cross-correlation matrix of total fields from sources on Sigma.

    sigma_length is the length |Sigma| of the source curve; the sources
    should surround both receivers and scatterers for the underlying
    identity to hold (a limited-aperture arc degrades it by design).
    The sum over sources is the Gram sum of the source blocks' fields.
    """
    entries = _gram(receivers.count, _field_blocks(model, receivers, random_sources))
    prefactor = 2j * model.ctx.k * sigma_length / random_sources.count
    return _correlation_matrix(CROSS_CORRELATION, entries, receivers, random_sources,
                               model, prefactor)


def covariance_matrix(
    receivers: PointSet,
    sources: PointSet,
    sigma_length: float,
    realizations: int,
    seed: int,
    model,
) -> FieldMatrix:
    """Empirical covariance matrix from M realizations of surface noise.

    Each realization excites the deterministic source points z_l with
    complex amplitudes n_l = u_l + i v_l, u_l, v_l ~ N(0, |Sigma|/(2L)).
    That per-component variance makes E[n_l conj(n_m)] = (|Sigma|/L)
    delta_lm, so the M -> infinity limit reproduces the quadrature
    cross-correlation built on the same sources.  The amplitudes come from
    one (seed, "covariance-noise") stream in realization order: realization
    r is its normals 2Lr to 2L(r + 1), re and im interleaved per source, so
    the draws depend on (seed, r) alone, not on the block size, and the
    first M realizations of a larger M are the same.  The (J, L) field u
    is kept as its source blocks u_b.  The fields F = sum_b u_b A_b^T of up
    to REALIZATION_BLOCK realizations at a time (fewer above SOURCE_BLOCK
    sources, so the amplitude block A stays within REALIZATION_BLOCK *
    SOURCE_BLOCK entries) enter the Gram sum H, and sum F F^H = conj(H).
    """
    if realizations < 1:
        raise ValueError("realizations must be at least 1")
    count = sources.count
    std = np.sqrt(sigma_length / (2.0 * count))
    per_block = max(1, min(REALIZATION_BLOCK, REALIZATION_BLOCK * SOURCE_BLOCK // count))

    def realization_fields(blocks):
        rng = substream(seed, "covariance-noise")
        for start in range(0, realizations, per_block):
            a = np.empty((min(per_block, realizations - start), count), dtype=complex)
            rng.standard_normal(out=a.view(float))
            a *= std
            fields = blocks[0] @ a[:, :SOURCE_BLOCK].T  # U(x_j), a column per realization
            for first in range(SOURCE_BLOCK, count, SOURCE_BLOCK):
                fields += blocks[first // SOURCE_BLOCK] @ a[:, first:first + SOURCE_BLOCK].T
            yield fields

    # the field goes with the generator, before the bracket is built
    entries = _gram(receivers.count,
                    realization_fields(list(_field_blocks(model, receivers, sources))))
    np.conjugate(entries, out=entries)
    return _correlation_matrix(COVARIANCE, entries, receivers, sources, model,
                               2j * model.ctx.k / realizations, int(realizations))


def add_noise(matrix: FieldMatrix, amplitude: float, seed: int) -> FieldMatrix:
    """Contaminate with complex white noise scaled by the largest entry.

    E_jm = amplitude * max|entries| * (g1 + i g2)/sqrt(2) with g standard
    normal from the (seed, "measurement-noise") stream, and the recorded
    noise level delta is the exact spectral norm of the drawn E.  E is
    built, scaled and added in one J x J array.  Raises ValueError when
    the amplitude is so large that E or delta is not finite.
    """
    if not (np.isfinite(amplitude) and amplitude >= 0):
        raise ValueError(f"noise amplitude must be finite and >= 0, got {amplitude}")
    j = matrix.size
    scale = amplitude * float(np.abs(matrix.entries).max())
    rng = substream(seed, "measurement-noise")
    noise = np.empty((j, j), dtype=complex)
    # one (2, J, J) draw: all real parts, then all imaginary parts
    noise.real = rng.standard_normal((j, j))
    noise.imag = rng.standard_normal((j, j))
    # scale, then times 1/sqrt(2) as numpy's complex division by sqrt(2) does
    parts = noise.view(float)
    with np.errstate(over="ignore", invalid="ignore"):
        parts *= scale
        parts *= 1.0 / np.sqrt(2.0)
    delta = float(np.linalg.norm(noise, 2)) if np.isfinite(parts).all() else np.inf
    if not np.isfinite(delta):
        raise ValueError(f"noise amplitude {amplitude:g} overflows: the drawn noise "
                         "or its spectral norm is beyond double range")
    logger.debug("added noise: amplitude=%g delta=%.6e", amplitude, delta)
    noise += matrix.entries
    return replace(matrix, entries=noise, noise_amplitude=float(amplitude),
                   noise_seed=int(seed), delta=delta)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------
def _write_csv(path, header: str, lines) -> None:
    """The header line, then each text block of `lines` as it comes."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def write_matrix_csv(matrix: FieldMatrix, path) -> None:
    """Row-major CSV, one `re,im` line per entry, under a header of what made it.

    seed, L and beta are those of the sources (the noise seed and blanks
    for a matrix without sources); M is blank except for the covariance.
    """
    src = matrix.sources
    seed, count, beta = ((matrix.noise_seed, "", "") if src is None
                         else (src.seed, src.count, src.beta))
    m = "" if matrix.realizations is None else matrix.realizations
    header = (
        f"# kind={matrix.kind},J={matrix.size},k={matrix.k:.17g},seed={seed},"
        f"delta={matrix.delta:.17g},noise_amplitude={matrix.noise_amplitude:.17g},"
        f"L={count},beta={beta},M={m}"
    )
    # a row's re, im pairs lie side by side as floats; one row at a time
    # keeps the formatted text, not the whole table, in memory
    template = "%.17g,%.17g\n" * matrix.size
    _write_csv(path, header, (
        template % tuple(np.ascontiguousarray(row, dtype=complex).view(float).tolist())
        for row in matrix.entries))


def read_matrix_csv(path) -> tuple[np.ndarray, dict]:
    """Read a matrix written by write_matrix_csv; returns (entries, header)."""
    with open(path) as fh:
        header_line = fh.readline().strip()
        data = np.loadtxt(fh, delimiter=",")
    if not header_line.startswith("# "):
        raise ValueError("missing matrix CSV header")
    fields = {}
    for item in header_line[2:].split(","):
        key, _, value = item.partition("=")
        fields[key] = value
    j = int(fields["J"])
    entries = (data[:, 0] + 1j * data[:, 1]).reshape(j, j)
    return entries, fields
