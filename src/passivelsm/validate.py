"""Verification suites: every acceptance property of the toolkit as a
machine-checkable criterion with measured values and fixed thresholds.

Each criterion is declared once, by `@_criterion`, with its suite name,
threshold text and runtime budget; it runs standalone and returns a
CheckResult.  `run_suite` runs the criteria of one suite by the names
the CLI uses.  A missed threshold or budget is a report entry with
passed=False; an exception raised inside a criterion propagates.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache, wraps
from pathlib import Path

import numpy as np

from . import acquisition, forward, geometry, inversion, pipeline
from .seeding import substream
from .specfun import WaveContext, green2d, hankel1_orders

# Frozen from the ascending-series oracles (see tests/oracles.py).
J0_AT_1 = 0.7651976865579666
Y0_AT_1 = 0.08825696421567697


@dataclass
class CheckResult:
    cid: int
    name: str
    passed: bool
    threshold: str
    measured: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} criterion {self.cid:2d} [{self.name}] ({self.seconds:.1f}s)"


# ---------------------------------------------------------------------------
# Shared fixtures (cached; everything is deterministic)
# ---------------------------------------------------------------------------
_CTX = WaveContext(k=2.0 * math.pi)
_LAM = _CTX.wavelength


@lru_cache(maxsize=None)
def _kite_system():
    curve = geometry.place_scatterer(
        geometry.BoundaryCurve(kind="kite"), _CTX, (2.0 * _LAM, 2.0 * _LAM), 0.5 * _LAM
    )
    return forward.assemble_single_layer(geometry.discretize(curve, 256), _CTX)


@lru_cache(maxsize=None)
def _kite_receivers():
    return geometry.circle_points(5.0 * _LAM, 80, role=geometry.ROLE_RECEIVER)


@lru_cache(maxsize=None)
def _kite_imaginary():
    n = acquisition.near_field_matrix(_kite_receivers(), _kite_system())
    return acquisition.imaginary_near_field_matrix(n)


def _cross_corr(sources: geometry.PointSet) -> acquisition.FieldMatrix:
    return acquisition.cross_correlation_matrix(
        _kite_receivers(), sources, 2.0 * math.pi * 50.0 * _LAM, _kite_system()
    )


def _bridge_error(sources: geometry.PointSet) -> float:
    i_entries = _kite_imaginary().entries
    c_entries = _cross_corr(sources).entries
    return float(np.linalg.norm(c_entries - i_entries) / np.linalg.norm(i_entries))


# ---------------------------------------------------------------------------
# Reconstruction metrics
# ---------------------------------------------------------------------------
def reconstruction_metrics(
    imap: inversion.IndicatorMap,
    curve: geometry.BoundaryCurve,
    center,
    wavelength: float,
) -> dict:
    """Inside/outside contrast of the reciprocal indicator and the
    distance from the half-max level-set centroid to the true center.

    The lambda/4 exclusion band around the boundary applies to the
    outside set only (the inside of a size-lambda/2 scatterer would not
    survive it)."""
    pts = imap.grid.points()
    valid = imap.mask.ravel()
    rec = imap.reciprocal.ravel()
    inside = geometry.contains_points(curve, pts)
    dist = geometry.boundary_distance(curve, pts)
    sel_in = valid & inside
    sel_out = valid & ~inside & (dist > wavelength / 4.0)
    mean_in = float(rec[sel_in].mean()) if sel_in.any() else 0.0
    mean_out = float(rec[sel_out].mean()) if sel_out.any() else np.inf
    half = valid & (rec >= 0.5)
    if half.any():
        centroid = pts[half].mean(axis=0)
        centroid_dist = float(np.hypot(centroid[0] - center[0], centroid[1] - center[1]))
    else:
        centroid = np.array([np.nan, np.nan])
        centroid_dist = np.inf
    return {
        "mean_inside": mean_in,
        "mean_outside": mean_out,
        "contrast": mean_in / mean_out if mean_out > 0 else np.inf,
        "centroid": tuple(np.round(centroid, 4)),
        "centroid_distance": centroid_dist,
    }


def has_local_max_near(imap: inversion.IndicatorMap, point, cells: float = 1.0) -> bool:
    """True if the reciprocal field has an 8-neighbor local maximum within
    `cells` grid cells of `point`."""
    xs, ys = imap.grid.axes()
    rec = imap.reciprocal
    ix = int(np.argmin(np.abs(xs - point[0])))
    iy = int(np.argmin(np.abs(ys - point[1])))
    reach = int(math.ceil(cells))
    for di in range(-reach, reach + 1):
        for dj in range(-reach, reach + 1):
            i, j = ix + di, iy + dj
            if not (1 <= i < imap.grid.nx - 1 and 1 <= j < imap.grid.ny - 1):
                continue
            if np.hypot(xs[i] - point[0], ys[j] - point[1]) > cells * imap.grid.cell + 1e-12:
                continue
            patch = rec[i - 1 : i + 2, j - 1 : j + 2]
            if rec[i, j] > 0 and rec[i, j] >= patch.max() - 1e-15:
                return True
    return False


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------
CRITERIA: dict = {}
SUITES: dict = {}


def _criterion(cid: int, suite: str, name: str, threshold: str, budget: float = math.inf):
    """Register `body() -> (passed, measured)` as criterion `cid`, alone in
    suite `suite`.  The registered check times the body and passes only if
    the body does and it took less than `budget` seconds."""

    def register(body):
        @wraps(body)
        def check() -> CheckResult:
            t0 = time.perf_counter()
            passed, measured = body()
            seconds = time.perf_counter() - t0
            return CheckResult(cid, name, bool(passed) and seconds < budget,
                               threshold, measured, seconds)

        CRITERIA[cid] = check
        SUITES[suite] = (cid,)
        return check

    return register


@_criterion(1, "wronskian", "special functions",
            "wronskian < 1e-10; J0(1), Y0(1) to 1e-12; < 1 s", budget=1.0)
def criterion_1_special_functions():
    """Wronskian residual and series-oracle values for J0, Y0."""
    # Im(conj(H_{n+1}) H_n) = J_{n+1} Y_n - J_n Y_{n+1} = 2/(pi x)
    x = np.array([0.1, 1.0, 10.0, 100.0])
    h = hankel1_orders(41, x)
    resid = (np.conj(h[1:]) * h[:-1]).imag - 2.0 / (math.pi * x)
    h01 = h[0, 1]   # H_0(1)
    worst = float(np.abs(resid).max())
    ej = float(abs(h01.real - J0_AT_1))
    ey = float(abs(h01.imag - Y0_AT_1))
    return (worst < 1e-10 and ej <= 1e-12 and ey <= 1e-12,
            {"wronskian": worst, "err_J0_1": ej, "err_Y0_1": ey})


@_criterion(2, "mie", "forward solver vs Mie",
            "rel err < 1e-6 at n=256; ratio(64->128) > 10 or both < 1e-10 floor; < 5 s",
            budget=5.0)
def criterion_2_mie():
    """Nystrom solver against the Mie series on the quarter-wavelength circle.

    The solver is spectrally convergent, so both n = 64 and n = 128 sit
    on the rounding floor for this configuration; the convergence-ratio
    clause therefore passes either by ratio > 10 or by both errors
    already being below the 1e-10 floor."""
    curve = geometry.BoundaryCurve(kind="circle", params=(0.25 * _LAM,))
    y = np.array([5.0 * _LAM, 0.0])
    theta = 2.0 * math.pi * np.arange(64) / 64 + 0.03
    obs = 5.0 * _LAM * np.column_stack([np.cos(theta), np.sin(theta)])
    ref = forward.mie_scattered_circle(_CTX, 0.25 * _LAM, (0.0, 0.0), obs, y)
    scale = float(np.abs(ref).max())
    errs = {}
    for n in (64, 128, 256):
        system = forward.assemble_single_layer(geometry.discretize(curve, n), _CTX)
        us = system.scattered(obs, y)[:, 0]
        errs[n] = float(np.abs(us - ref).max() / scale)
    ratio = errs[64] / max(errs[128], 1e-300)
    floor = max(errs[64], errs[128]) < 1e-10
    return (errs[256] < 1e-6 and (ratio > 10.0 or floor),
            {"errors": errs, "ratio_64_128": ratio, "at_floor": floor})


@_criterion(3, "hk", "Helmholtz-Kirchhoff identity",
            "rel err < 1e-2 at 100 wavelengths; strictly decreasing over {25,50,100}; < 30 s",
            budget=30.0)
def criterion_3_helmholtz_kirchhoff():
    """HK identity for the Green's function and for total fields."""
    system = _kite_system()
    x = np.array([1.2 * _LAM, -0.7 * _LAM])
    y = np.array([-2.3 * _LAM, 0.4 * _LAM])
    u_ref = forward.total_field_matrix(system, x, y)[0, 0]
    lhs_phi = green2d(_CTX, x, y)[0, 0]
    lhs_phi = lhs_phi - np.conj(lhs_phi)
    lhs_tot = u_ref - np.conj(u_ref)
    e_phi, e_tot = [], []
    for radius in (25.0, 50.0, 100.0):
        nq = 512
        th = 2.0 * math.pi * np.arange(nq) / nq
        z = radius * _LAM * np.column_stack([np.cos(th), np.sin(th)])
        w = 2.0 * math.pi * radius * _LAM / nq
        px, py = green2d(_CTX, np.vstack([x, y]), z)
        quad = 2j * _CTX.k * w * np.sum(np.conj(px) * py)
        e_phi.append(float(abs(lhs_phi - quad) / abs(lhs_phi)))
        u = forward.total_field_matrix(system, np.vstack([x, y]), z)
        quad_t = 2j * _CTX.k * w * np.sum(np.conj(u[0]) * u[1])
        e_tot.append(float(abs(lhs_tot - quad_t) / abs(lhs_tot)))
    decreasing = all(a > b for a, b in zip(e_phi, e_phi[1:])) and all(
        a > b for a, b in zip(e_tot, e_tot[1:])
    )
    return (e_phi[-1] < 1e-2 and e_tot[-1] < 1e-2 and decreasing,
            {"phi_errors": e_phi, "total_errors": e_tot})


@_criterion(4, "bridge", "bridge C ~ I",
            "rel Frobenius error < 0.05 (beta=0, L=80); < 60 s", budget=60.0)
def criterion_4_bridge():
    """Cross-correlation matrix approximates the imaginary near-field one."""
    err = _bridge_error(geometry.circle_points(
        50.0 * _LAM, 80, beta=0.0, role=geometry.ROLE_RANDOM_SOURCE
    ))
    return err < 0.05, {"relative_error": err}


@_criterion(5, "quadrature", "quadrature rate O(1/sqrt(L))",
            "log-log slope over L in {40,160,640} = -0.5 +/- 0.15 (10 seeds)")
def criterion_5_quadrature_rate():
    """Monte Carlo rate 1/sqrt(L) for uniformly random source angles."""
    counts = (40, 160, 640)
    means = []
    for L in counts:
        errs = [
            _bridge_error(geometry.circle_points_uniform(50.0 * _LAM, L, seed=s))
            for s in range(10)
        ]
        means.append(float(np.mean(errs)))
    slope = float(np.polyfit(np.log(counts), np.log(means), 1)[0])
    return -0.65 <= slope <= -0.35, {"mean_errors": means, "slope": slope}


def _perturbed_bridge_error(count: int, beta: float) -> float:
    """Mean bridge error over 10 seeds of `count` perturbed sources."""
    return float(np.mean([
        _bridge_error(geometry.circle_points(
            50.0 * _LAM, count, beta=beta, seed=s, role=geometry.ROLE_RANDOM_SOURCE,
        ))
        for s in range(10)
    ]))


@_criterion(6, "beta", "beta degradation",
            "mean error strictly increasing over beta {0.3,0.6,0.9} at L=80; "
            "L=200 at beta=0.9 beats L=80 at beta=0.3 (10 seeds)")
def criterion_6_beta_degradation():
    """Perturbation beta degrades the bridge; more sources recover it."""
    means = {beta: _perturbed_bridge_error(80, beta) for beta in (0.3, 0.6, 0.9)}
    big_l = _perturbed_bridge_error(200, 0.9)
    increasing = means[0.3] < means[0.6] < means[0.9]
    return (increasing and big_l < means[0.3],
            {"means": {str(k): v for k, v in means.items()}, "L200_beta09": big_l})


@_criterion(7, "morozov", "Morozov discrepancy",
            "identity residual < 1e-6 on 100 instances; J=1 alpha = delta*sigma to 1e-12")
def criterion_7_morozov():
    """Morozov identity recomputed without the SVD shortcut; J=1 closed form."""
    rng = substream(20240, "morozov-instances")
    worst = 0.0
    for _ in range(100):
        j = int(rng.integers(2, 25))
        a = rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j))
        factors = inversion.svd(a)
        phi = rng.standard_normal(j) + 1j * rng.standard_normal(j)
        delta = float(rng.uniform(0.01, 0.5) * factors.sigma.max())
        b2 = np.abs(factors.u.conj().T @ phi) ** 2
        alpha = float(inversion.morozov_alphas(factors.sigma, b2[:, None], delta)[0][0])
        g = inversion.tikhonov_solve(factors, phi, alpha)
        residual_sq = float(np.linalg.norm(a @ g - phi) ** 2)
        target_sq = float(delta ** 2 * np.linalg.norm(g) ** 2)
        worst = max(worst, abs(residual_sq - target_sq) / target_sq)
    # J = 1 closed form alpha = delta * sigma
    closed_worst = 0.0
    for _ in range(20):
        s = float(rng.uniform(0.1, 10.0))
        b1 = rng.standard_normal() + 1j * rng.standard_normal()
        delta = float(rng.uniform(0.01, 1.0))
        b2 = np.abs(np.array([[b1]])) ** 2
        alpha = float(inversion.morozov_alphas(np.array([s]), b2, delta)[0][0])
        closed_worst = max(closed_worst, abs(alpha - delta * s) / (delta * s))
    return (worst < 1e-6 and closed_worst < 1e-12,
            {"identity_worst": worst, "closed_form_worst": closed_worst})


@_criterion(8, "svd", "SVD residuals",
            "reconstruction and orthonormality residuals < 1e-10 on 100 matrices (to 128x128)")
def criterion_8_svd():
    """Reconstruction and orthonormality of the SVD on random matrices."""
    rng = substream(20240, "svd-instances")
    worst = 0.0
    for _ in range(100):
        j = int(rng.integers(2, 129))
        a = rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j))
        f = inversion.svd(a)
        eye = np.eye(j)
        rec = np.linalg.norm(f.u * f.sigma @ f.vh - a) / np.linalg.norm(a)
        ortho_u = np.linalg.norm(f.u.conj().T @ f.u - eye)
        ortho_v = np.linalg.norm(f.vh @ f.vh.conj().T - eye)
        worst = max(worst, float(rec), float(ortho_u), float(ortho_v))
        if not np.all(np.diff(f.sigma) <= 0):
            worst = max(worst, 1.0)
    return worst < 1e-10, {"worst_residual": worst}


def _contrast_case(preset_name: str) -> dict:
    """Reconstruction metrics of one preset with its verdict: contrast
    >= 2, half-max centroid within lambda/4, and < 60 s."""
    cfg = pipeline.preset(preset_name)
    t0 = time.perf_counter()
    art = pipeline.execute(cfg)
    sec = time.perf_counter() - t0
    lam = cfg.ctx.wavelength
    metrics = reconstruction_metrics(
        art.indicator, art.curve, cfg.scatterer_center, lam
    )
    metrics["preset"] = preset_name
    metrics["seconds"] = sec
    metrics["passed"] = (
        metrics["contrast"] >= 2.0
        and metrics["centroid_distance"] <= lam / 4.0
        and sec < 60.0
    )
    return metrics


@_criterion(9, "contrast", "reconstruction contrast",
            "reciprocal indicator inside >= 2x outside; half-max centroid within "
            "lambda/4; < 60 s per preset")
def criterion_9_reconstruction_contrast():
    """All six shape/matrix presets localize the scatterer."""
    cases = [_contrast_case(name) for name in (
        "ellipse-N", "ellipse-I", "ellipse-C", "kite-N", "kite-I", "kite-C")]
    return all(c["passed"] for c in cases), {"cases": cases}


@_criterion(10, "point-scatterers", "point-scatterer model",
            "local maximum within one grid cell of each center; Born vs BEM < 5%")
def criterion_10_point_scatterers():
    """Asymptotic model: indicator peaks at the centers; Born matches BEM."""
    cfg = pipeline.preset("point-scatterers")
    art = pipeline.execute(cfg)
    peaks = [has_local_max_near(art.indicator, c) for c in cfg.point_centers]
    # single small circle: Born field against the Nystrom solution
    radius = _LAM / 100.0
    curve = geometry.BoundaryCurve(kind="circle", params=(radius,))
    system = forward.assemble_single_layer(geometry.discretize(curve, 64), _CTX)
    y = 5.0 * _LAM * np.array([math.cos(1.0), math.sin(1.0)])
    theta = 2.0 * math.pi * np.arange(16) / 16 + 0.05
    obs = 5.0 * _LAM * np.column_stack([np.cos(theta), np.sin(theta)])
    bem = system.scattered(obs, y)[:, 0]
    born = forward.PointScatterers(np.zeros((1, 2)), [radius], _CTX).scattered(obs, y)[:, 0]
    rel = float(np.abs(born - bem).max() / np.abs(bem).max())
    return all(peaks) and rel < 0.05, {"peaks_found": peaks, "born_vs_bem": rel}


@_criterion(11, "setup2", "second setup 1/sqrt(M)",
            "mean error decreases from M=200 to M=800; ratio within factor 2 of sqrt(4)=2")
def criterion_11_second_setup():
    """Covariance estimate converges to the quadrature limit like 1/sqrt(M)."""
    receivers = geometry.circle_points(5.0 * _LAM, 200)
    sources = geometry.circle_points(50.0 * _LAM, 200, beta=0.0,
                                     role=geometry.ROLE_RANDOM_SOURCE)
    system = _kite_system()
    sigma_len = 2.0 * math.pi * 50.0 * _LAM
    limit = acquisition.cross_correlation_matrix(
        receivers, sources, sigma_len, system
    ).entries
    norm = np.linalg.norm(limit)
    means = {}
    for m in (200, 800):
        errs = []
        for seed in range(10):
            cov = acquisition.covariance_matrix(
                receivers, sources, sigma_len, m, seed, system
            ).entries
            errs.append(float(np.linalg.norm(cov - limit) / norm))
        means[m] = float(np.mean(errs))
    ratio = means[200] / means[800]
    return (means[800] < means[200] and 1.0 <= ratio <= 4.0,
            {"mean_errors": {str(k): v for k, v in means.items()}, "ratio": ratio})


@_criterion(12, "wavenumber", "wavenumber scaling",
            "k=4pi with J=L=160 meets the criterion-9 thresholds")
def criterion_12_wavenumber():
    """Doubled wavenumber with doubled arrays still reconstructs."""
    metrics = _contrast_case("wavenumber(4pi,160)")
    return metrics["passed"], metrics


@_criterion(13, "determinism", "determinism",
            "byte-identical CSV/PGM outputs for repeated runs with one seed")
def criterion_13_determinism():
    """Two runs with one seed produce byte-identical outputs."""
    results = {}
    for name in ("kite-C", "point-scatterers"):
        cfg = pipeline.preset(name)
        cfg.seed = 7
        blobs = []
        for _ in range(2):
            with tempfile.TemporaryDirectory() as tmp:
                pipeline.run(cfg, tmp)
                blobs.append({
                    f: (Path(tmp) / f).read_bytes()
                    for f in pipeline.OUTPUT_FILES
                })
        results[name] = all(blobs[0][f] == blobs[1][f] for f in blobs[0])
    return all(results.values()), {"identical": results}


SUITES["all"] = tuple(CRITERIA)


def run_suite(selector: str = "all") -> dict:
    """Run a named suite; returns a JSON-ready report."""
    try:
        ids = SUITES[selector]
    except KeyError:
        raise ValueError(
            f"unknown suite {selector!r}; choose from {sorted(SUITES)}"
        ) from None
    results = [CRITERIA[i]() for i in ids]
    return {
        "suite": selector,
        "passed": all(r.passed for r in results),
        "results": [asdict(r) for r in results],
    }
