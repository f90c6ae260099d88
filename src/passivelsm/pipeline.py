"""Experiment configuration, presets, orchestration, and file output.

A run is a pure function of (config, seed): geometry and sources are
built, the measurement matrix is assembled and contaminated with noise,
the indicator map is computed, and everything is written to the output
directory as

    matrix.csv         noisy measurement matrix (row-major re,im pairs)
    indicator.csv      x, y, raw ||g||, normalized reciprocal, mask
    indicator_raw.csv  x, y, raw ||g||, mask
    indicator.pgm      8-bit graymap of the reciprocal indicator
    manifest.json      config echo, version, timings, delta, checksums,
                       assembly and Morozov health, environment

CSV numbers are printed with 17 significant digits so re-runs with one
BLAS library and thread count are byte-identical.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import json
import logging
import math
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from . import BLAS_THREAD_VARIABLES, acquisition, forward, geometry, inversion
from .specfun import WaveContext

logger = logging.getLogger(__name__)

VERSION = "0.1.0"

# Node-density floor calibrated against the Mie cross-validation: the
# Kress rule is far below 1e-8 boundary residual at 48 nodes per
# wavelength of perimeter for the smooth shapes supported here.
MIN_NODES_PER_WAVELENGTH = 48

OUTPUT_FILES = ("matrix.csv", "indicator.csv", "indicator_raw.csv", "indicator.pgm")

_KIND_LETTER = {
    "N": acquisition.NEAR_FIELD,
    "I": acquisition.IMAGINARY_NEAR_FIELD,
    "C": acquisition.CROSS_CORRELATION,
}


class PipelineError(RuntimeError):
    """A stage failed; .stage carries which one."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def _ini(section: str, *keys: str, default):
    """A config field stored under `keys` of INI `section`; two keys hold a pair."""
    return field(default=default, metadata={"ini": (section, keys)})


def _write(default, value) -> str:
    """Format one INI value by the type of the field default."""
    if isinstance(default, tuple):        # point centers "x1,y1; x2,y2"
        return "; ".join(f"{float(x)!r},{float(y)!r}" for x, y in value)
    return repr(float(value)) if isinstance(default, float) else str(value)


def _read(default, section: str, key: str, text: str):
    """Parse one INI value by the type of the field default it replaces."""
    try:
        if isinstance(default, tuple):    # point centers "x1,y1; x2,y2"
            return tuple((float(x), float(y)) for x, y in
                         (c.split(",") for c in text.split(";") if c.strip()))
        return type(default)(text)
    except ValueError as exc:
        raise PipelineError("config", f"{section}.{key} = {text!r}: {exc}") from exc


@dataclass
class ExperimentConfig:
    """Complete description of one experiment (all lengths absolute).

    Each field names its INI section and key(s), the one schema of the INI.
    The defaults are the kite-C preset, at k = 2pi where lambda = 1.
    """

    k: float = _ini("wave", "k", default=2.0 * math.pi)
    # kite | ellipse | circle | point-scatterers | none
    scatterer_kind: str = _ini("scatterer", "kind", default="kite")
    scatterer_center: tuple = _ini("scatterer", "center_x", "center_y", default=(2.0, 2.0))
    scatterer_size: float = _ini("scatterer", "size", default=0.5)
    point_centers: tuple = _ini("scatterer", "centers", default=())
    point_radius: float = _ini("scatterer", "radius", default=0.01)
    boundary_nodes: int = _ini("discretization", "nodes", default=256)
    receiver_radius: float = _ini("receivers", "radius", default=5.0)
    receiver_count: int = _ini("receivers", "count", default=80)
    receiver_arc: Optional[tuple] = _ini("receivers", "arc_min", "arc_max", default=None)
    source_mode: str = _ini("sources", "mode", default="perturbed")  # perturbed | uniform
    source_radius: float = _ini("sources", "radius", default=50.0)
    source_count: int = _ini("sources", "count", default=80)
    source_beta: float = _ini("sources", "beta", default=0.1)
    source_arc: Optional[tuple] = _ini("sources", "arc_min", "arc_max", default=None)
    matrix_kind: str = _ini("matrix", "kind", default=acquisition.CROSS_CORRELATION)
    realizations: int = _ini("matrix", "realizations", default=200)
    noise_amplitude: float = _ini("noise", "amplitude", default=5e-2)
    grid_x: tuple = _ini("grid", "x_min", "x_max", default=(-6.0, 6.0))
    grid_y: tuple = _ini("grid", "y_min", "y_max", default=(-6.0, 6.0))
    grid_nx: int = _ini("grid", "nx", default=100)
    grid_ny: int = _ini("grid", "ny", default=100)
    mask_radius: float = _ini("grid", "mask_radius", default=5.0)
    seed: int = _ini("run", "seed", default=0)

    @property
    def ctx(self) -> WaveContext:
        return WaveContext(k=self.k)

    def grid_spec(self) -> inversion.GridSpec:
        return inversion.GridSpec(
            x_min=self.grid_x[0], x_max=self.grid_x[1],
            y_min=self.grid_y[0], y_max=self.grid_y[1],
            nx=self.grid_nx, ny=self.grid_ny,
        )

    # -- INI round trip ---------------------------------------------------
    def to_ini(self) -> str:
        """Every key of every field; an arc that is None is left out."""
        sections: dict = {}
        for f in fields(self):
            section, keys = f.metadata["ini"]
            value = getattr(self, f.name)
            entries = sections.setdefault(section, {})
            if len(keys) == 1:
                entries[keys[0]] = _write(f.default, value)
            elif value is not None:
                entries.update((key, _write(0.0, part)) for key, part in zip(keys, value))
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_dict(sections)
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    @classmethod
    def from_ini(cls, text: str, overrides=()) -> "ExperimentConfig":
        """Read INI text with `(section.key, value)` overrides merged in.

        Keys left out keep their defaults.  An unknown section or key, an
        unparsable value or a lone arc end raises PipelineError("config").
        """
        cp = configparser.ConfigParser(interpolation=None)
        try:
            cp.read_string(text)
            for dotted_key, value in overrides:
                section, _, key = dotted_key.partition(".")
                cp.read_dict({section: {key: value}})
        except configparser.Error as exc:
            raise PipelineError("config", str(exc)) from exc
        known = {(f.metadata["ini"][0], key)
                 for f in fields(cls) for key in f.metadata["ini"][1]}
        if cp.defaults():
            raise PipelineError("config", f"unknown section [{cp.default_section}]")
        for section in cp.sections():
            if section not in {s for s, _ in known}:
                raise PipelineError("config", f"unknown section [{section}]")
            for key in cp[section]:
                if (section, key) not in known:
                    raise PipelineError("config", f"unknown key {section}.{key}")
        values = {}
        for f in fields(cls):
            section, keys = f.metadata["ini"]
            raw = [cp.get(section, key, fallback=None) for key in keys]
            if all(r is None for r in raw):
                continue
            if len(keys) == 1:
                values[f.name] = _read(f.default, section, keys[0], raw[0])
            elif f.default is None and None in raw:
                raise PipelineError(
                    "config", f"{section}.{'/'.join(keys)} must be given together")
            else:   # a missing part of a pair keeps its default
                values[f.name] = tuple(
                    d if r is None else _read(0.0, section, key, r)
                    for key, r, d in zip(keys, raw, f.default or raw))
        return cls(**values)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------
def _parse_number(text: str) -> float:
    text = text.strip().lower()
    if text.endswith("pi"):
        head = text[:-2].strip()
        return (float(head) if head else 1.0) * math.pi
    return float(text)


def _count(text: str) -> int:
    return int(_parse_number(text))


# Fields measured in wavelengths: the defaults are at k = 2pi, lambda = 1.
_LENGTH_FIELDS = ("scatterer_center", "scatterer_size", "receiver_radius",
                  "source_radius", "grid_x", "grid_y", "mask_radius")
_ELLIPSE = {"scatterer_kind": "ellipse", "scatterer_center": (-2.0, -2.0)}


def _wavenumber(k: str = "4pi", count: str = "160") -> dict:
    k, count = _parse_number(k), _count(count)
    lam, base = 2.0 * math.pi / k, ExperimentConfig()
    changes = {"k": k, "receiver_count": count, "source_count": count}
    for name in _LENGTH_FIELDS:
        value = getattr(base, name)
        changes[name] = tuple(v * lam for v in value) if isinstance(value, tuple) else value * lam
    return changes


def _limited_aperture(letter: str = "C") -> dict:
    if letter not in _KIND_LETTER:
        raise ValueError(f"limited-aperture kind must be N, I or C, got {letter!r}")
    # half circle facing the scatterer; the aperture extent is a choice
    half = (math.pi / 2.0, 3.0 * math.pi / 2.0)
    return dict(_ELLIPSE, matrix_kind=_KIND_LETTER[letter], receiver_arc=half, source_arc=half)


# Each preset is the fields it changes from ExperimentConfig() (kite-C);
# a preset that takes arguments is a function of their text.
_PRESETS = {
    **{f"{shape}-{letter}": dict(changes, matrix_kind=kind)
       for shape, changes in (("kite", {}), ("ellipse", _ELLIPSE))
       for letter, kind in _KIND_LETTER.items()},
    "kite-beta": lambda beta="0.3", count="80": {
        "source_beta": _parse_number(beta), "source_count": _count(count)},
    "wavenumber": _wavenumber,
    "setup2": lambda m="200": {
        "receiver_count": 200, "source_count": 200, "matrix_kind": acquisition.COVARIANCE,
        "source_beta": 0.0, "realizations": _count(m)},
    "limited-aperture": _limited_aperture,
    "point-scatterers": {
        "scatterer_kind": "point-scatterers",
        "point_centers": ((-2.0, -2.0), (2.0, 2.0), (2.0, -2.0)),
        "matrix_kind": acquisition.IMAGINARY_NEAR_FIELD},
}


def preset(name: str) -> ExperimentConfig:
    """Named experiment configurations mirroring the reference setups.

    Supported names: ellipse-N/I/C, kite-N/I/C, kite-beta(beta, L),
    wavenumber(k, J), setup2(M), limited-aperture(N|I|C),
    point-scatterers.  Parameters accept "4pi"-style numbers; trailing
    ones may be left out.  Raises ValueError for a malformed or unknown
    name, an unparsable argument or more arguments than the preset takes,
    and ArithmeticError for an unusable one such as wavenumber(0).
    """
    name = name.strip()
    args: list[str] = []
    if "(" in name:
        if not name.endswith(")"):
            raise ValueError(f"malformed preset name {name!r}")
        name, _, rest = name.partition("(")
        args = [a.strip() for a in rest[:-1].split(",") if a.strip()]
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    entry = _PRESETS[name]
    takes = entry.__code__.co_argcount if callable(entry) else 0
    if len(args) > takes:
        raise ValueError(f"preset {name!r} takes at most {takes} arguments, got {len(args)}")
    return ExperimentConfig(**(entry(*args) if callable(entry) else entry))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------
_CURVE_BUILDERS = {
    "kite": lambda: geometry.BoundaryCurve(kind="kite"),
    "ellipse": lambda: geometry.BoundaryCurve(kind="ellipse", params=(1.5, 1.0)),
    "circle": lambda: geometry.BoundaryCurve(kind="circle", params=(1.0,)),
}


@dataclass
class RunArtifacts:
    """In-memory results of one experiment, before any file output."""

    curve: Optional[geometry.BoundaryCurve]
    system: Optional[forward.SingleLayerSystem]
    matrix: acquisition.FieldMatrix
    indicator: inversion.IndicatorMap
    timings: dict


def _required_nodes(curve: geometry.BoundaryCurve, ctx: WaveContext) -> int:
    perimeter = geometry.discretize(curve, 256).perimeter
    needed = MIN_NODES_PER_WAVELENGTH * perimeter / ctx.wavelength
    n = 32
    while n < needed:
        n *= 2
    return n


def _build_sources(cfg: ExperimentConfig) -> geometry.PointSet:
    if cfg.source_mode == "uniform":
        return geometry.circle_points_uniform(
            cfg.source_radius, cfg.source_count, seed=cfg.seed, arc=cfg.source_arc,
        )
    if cfg.source_mode != "perturbed":
        raise ValueError(f"unknown source mode {cfg.source_mode!r} (perturbed | uniform)")
    beta = 0.0 if cfg.matrix_kind == acquisition.COVARIANCE else cfg.source_beta
    return geometry.circle_points(
        cfg.source_radius, cfg.source_count, beta=beta, seed=cfg.seed,
        arc=cfg.source_arc, role=geometry.ROLE_RANDOM_SOURCE,
    )


def _sigma_length(cfg: ExperimentConfig) -> float:
    if cfg.source_arc is None:
        return 2.0 * math.pi * cfg.source_radius
    return cfg.source_radius * (cfg.source_arc[1] - cfg.source_arc[0])


@contextmanager
def _stage(name: str, timings: dict):
    """Time one stage into `timings[name]` and tag what it raises.

    A PipelineError passes through unchanged; a forward.GeometryError is
    tagged "geometry" (the acquisition builders make the run's only
    exterior check) and any other exception `name`.
    """
    t0 = time.perf_counter()
    try:
        yield
    except PipelineError:
        raise
    except forward.GeometryError as exc:
        raise PipelineError("geometry", str(exc)) from exc
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc
    timings[name] = time.perf_counter() - t0


def execute(config: ExperimentConfig) -> RunArtifacts:
    """Run geometry -> acquisition -> noise -> inversion in memory."""
    cfg = config
    timings: dict = {}
    needs_sources = cfg.matrix_kind in (
        acquisition.CROSS_CORRELATION, acquisition.COVARIANCE
    )

    with _stage("geometry", timings):
        ctx = cfg.ctx
        receivers = geometry.circle_points(
            cfg.receiver_radius, cfg.receiver_count, beta=0.0,
            arc=cfg.receiver_arc, role=geometry.ROLE_RECEIVER,
        )
        sources = _build_sources(cfg) if needs_sources else None
        curve = None
        point_config = None
        if cfg.scatterer_kind == "point-scatterers":
            if not cfg.point_centers:
                raise ValueError("point-scatterers preset needs at least one center")
            point_config = forward.PointScattererConfig(
                centers=np.array(cfg.point_centers),
                radii=np.full(len(cfg.point_centers), cfg.point_radius),
            )
        elif cfg.scatterer_kind != "none":
            try:
                builder = _CURVE_BUILDERS[cfg.scatterer_kind]
            except KeyError:
                raise ValueError(f"unknown scatterer kind {cfg.scatterer_kind!r}")
            curve = geometry.place_scatterer(
                builder(), ctx, cfg.scatterer_center, cfg.scatterer_size
            )

    with _stage("assemble", timings):
        system = None
        if curve is not None:
            n = max(cfg.boundary_nodes, _required_nodes(curve, ctx))
            if n != cfg.boundary_nodes:
                logger.info("boundary nodes raised from %d to %d", cfg.boundary_nodes, n)
            system = forward.assemble_single_layer(geometry.discretize(curve, n), ctx)
        elif cfg.scatterer_kind == "none":
            system = forward.assemble_single_layer((), ctx)

    with _stage("acquire", timings):
        if cfg.matrix_kind in (acquisition.NEAR_FIELD, acquisition.IMAGINARY_NEAR_FIELD):
            if point_config is not None:
                matrix = acquisition.point_scatterer_near_field(receivers, point_config, ctx)
            else:
                matrix = acquisition.near_field_matrix(receivers, system)
            if cfg.matrix_kind == acquisition.IMAGINARY_NEAR_FIELD:
                matrix = acquisition.imaginary_near_field_matrix(matrix)
        elif point_config is not None:
            raise ValueError(
                "point-scatterer runs support near-field and imaginary "
                f"near-field matrices, not {cfg.matrix_kind}"
            )
        elif cfg.matrix_kind == acquisition.CROSS_CORRELATION:
            matrix = acquisition.cross_correlation_matrix(
                receivers, sources, _sigma_length(cfg), system
            )
        elif cfg.matrix_kind == acquisition.COVARIANCE:
            matrix = acquisition.covariance_matrix(
                receivers, sources, _sigma_length(cfg), cfg.realizations,
                cfg.seed, system,
            )
        else:
            raise ValueError(f"unknown matrix kind {cfg.matrix_kind!r}")

    with _stage("noise", timings):
        matrix = acquisition.add_noise(matrix, cfg.noise_amplitude, cfg.seed)
        if not matrix.entries.any():
            raise ValueError("the matrix is zero: nothing to image")
        if matrix.delta == 0.0:
            raise ValueError("delta = 0: Morozov's discrepancy principle "
                             "needs noise.amplitude > 0")

    with _stage("invert", timings):
        indicator = inversion.indicator_map(
            matrix, cfg.grid_spec(), ctx, mask_radius=cfg.mask_radius)
        if not indicator.mask.any():
            raise PipelineError("invert", (
                f"no grid point was probed: the {cfg.grid_nx}x{cfg.grid_ny} grid has no "
                f"point within mask_radius={cfg.mask_radius:g} whose probe succeeded"))

    return RunArtifacts(curve=curve, system=system, matrix=matrix, indicator=indicator,
                        timings=timings)


@dataclass
class RunManifest:
    """What a run produced: config echo, delta, timings, file checksums.

    `health` holds deterministic numerical diagnostics.  Its `assembly`
    block gives the configured and the used boundary node counts and the
    condition estimate of the single-layer system (all null without a
    boundary); its `morozov` block counts the probed and unsolvable cells
    and gives the alpha range and the Newton passes of the per-cell
    Morozov solves.
    `environment` records what the output bytes depend on beyond the
    config: the library versions, their BLAS builds and the thread
    settings.
    """

    version: str
    config: dict
    seed: int
    delta: float
    timings: dict
    files: dict
    health: dict
    environment: dict
    status: str = "ok"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _blas(build: dict) -> str:
    """'name version' of the BLAS in a show_config(mode="dicts") report."""
    blas = build["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def _environment() -> dict:
    """Python, numpy and scipy versions, the BLAS each was built with, and
    the thread variables (None if unset).

    The same on every run on one machine, not across machines.
    """
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config(mode="dicts")),
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
        **{var: os.environ.get(var) for var in ("LSM_THREADS",) + BLAS_THREAD_VARIABLES},
    }


def _assembly_health(config: ExperimentConfig, system) -> dict:
    if system is None or not system.boundaries:
        return dict.fromkeys(("nodes_requested", "nodes_used", "condition_estimate"))
    return {"nodes_requested": config.boundary_nodes, "nodes_used": system.size,
            "condition_estimate": system.condition_estimate}


def run(config: ExperimentConfig, outdir) -> RunManifest:
    """Execute `config` and write all outputs plus manifest.json to outdir."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    art = execute(config)
    with _stage("write", art.timings):
        acquisition.write_matrix_csv(art.matrix, out / "matrix.csv")
        inversion.write_indicator_csv(art.indicator, out / "indicator.csv")
        inversion.write_indicator_raw_csv(art.indicator, out / "indicator_raw.csv")
        inversion.write_indicator_pgm(art.indicator, out / "indicator.pgm")
    files = {name: _sha256(out / name) for name in OUTPUT_FILES}
    manifest = RunManifest(
        version=VERSION,
        config=asdict(config),
        seed=config.seed,
        delta=art.matrix.delta,
        timings={k: round(v, 6) for k, v in art.timings.items()},
        files=files,
        health={"assembly": _assembly_health(config, art.system),
                "morozov": asdict(art.indicator.morozov)},
        environment=_environment(),
    )
    (out / "manifest.json").write_text(manifest.to_json() + "\n")
    logger.info("run complete: %s", out)
    return manifest
