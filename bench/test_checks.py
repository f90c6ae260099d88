"""Each benchmark check passes on the program's output and fails on a wrong one.

    python3 -m pytest -q bench/test_checks.py

Not part of the package's test suite (pytest's testpaths is `tests`).
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def scene(slot_index, tmp_path, seed=5):
    op = workloads.mixed_scene(workloads.MIXED_SLOTS[slot_index],
                               workloads.slot_rng(seed, 0, slot_index))
    out = tmp_path / f"slot{slot_index}"
    op.run(out)
    return op, out


def receivers_of(cfg):
    return checks.circle_layout(cfg.receiver_radius, cfg.receiver_count, cfg.receiver_arc)


@pytest.mark.parametrize("slot_index, reference", [
    (0, "mie"),      # circle, N
    (1, "mie"),      # circle, I
    (8, "born"),     # point scatterers, N
    (9, "born"),     # point scatterers, I
])
def test_delta_check_catches_perturbed_matrix(tmp_path, slot_index, reference):
    op, out = scene(slot_index, tmp_path)
    cfg = op.cfg
    assert op.check(out, np.random.default_rng(0)) == []
    written, header = checks.read_matrix(out / "matrix.csv")
    if reference == "mie":
        ref = checks.mie_near_field(cfg.k, cfg.scatterer_size / 2, cfg.scatterer_center,
                                    receivers_of(cfg))
    else:
        ref = checks.born_near_field(cfg.k, cfg.point_centers, cfg.point_radius,
                                     receivers_of(cfg))
    if cfg.matrix_kind == workloads.KIND["I"]:
        ref = ref - ref.conj()
    delta = float(header["delta"])
    assert checks.check_delta(written, ref, delta, "x") == []
    bumped = written.copy()
    bumped[3, 5] += 1e-3 * delta
    assert checks.check_delta(bumped, ref, delta, "x")


def test_morozov_check_catches_wrong_alpha(tmp_path):
    op, out = scene(3, tmp_path)                     # kite, C
    cfg = op.cfg
    written, header = checks.read_matrix(out / "matrix.csv")
    delta = float(header["delta"])
    raw = checks.read_table(out / "indicator_raw.csv")
    pick = np.flatnonzero(raw[:, 3] == 1)[::997]
    probes, values = raw[pick, :2], raw[pick, 2]
    recv = receivers_of(cfg)
    assert checks.check_morozov(written, delta, cfg.k, recv, probes, values) == []
    # ||g_z|| taken at 1.01 alpha instead of the Morozov root
    u, sigma, _ = np.linalg.svd(written)
    b2 = np.abs(u.conj().T @ checks.green(cfg.k, recv[:, None, :], probes[None])) ** 2
    wrong = [checks.tikhonov_norm(sigma, b2[:, i],
                                  1.01 * checks.morozov_alpha(sigma, b2[:, i], delta))
             for i in range(len(pick))]
    assert len(checks.check_morozov(written, delta, cfg.k, recv, probes, wrong)) == len(pick)


def test_contrast_check_catches_shifted_centre(tmp_path):
    op, out = scene(2, tmp_path)                     # kite, N
    cfg = op.cfg
    lam = 2 * math.pi / cfg.k
    table = checks.read_table(out / "indicator.csv")
    pts, rec, valid = table[:, :2], table[:, 3], table[:, 4] == 1
    poly = checks.curve_polygon(cfg.scatterer_kind, cfg.scatterer_center, cfg.scatterer_size)
    centre = np.asarray(cfg.scatterer_center)
    assert checks.check_contrast(pts, rec, valid, poly, centre, lam) == []
    shift = np.array([0.5 * lam, 0.0])
    assert checks.check_contrast(pts, rec, valid, poly, centre + shift, lam)
    moved = poly + 3 * shift
    assert checks.check_contrast(pts, rec, valid, moved, centre + 3 * shift, lam)


def test_point_in_curve_against_known_shapes():
    poly = checks.curve_polygon("ellipse", (1.0, -2.0), 3.0)    # semi-axes 1.5, 1
    pts = np.array([[1.0, -2.0], [2.4, -2.0], [2.6, -2.0], [1.0, -1.05], [1.0, -0.9]])
    assert checks.inside_polygon(poly, pts).tolist() == [True, True, False, True, False]


@pytest.fixture(scope="module")
def sweep():
    s = workloads.SourceSweep(3)
    s.prepare()
    return s


def test_psd_check_catches_perturbed_matrices(sweep):
    for op in sweep.round(0)[:1] + sweep.round(0)[-1:]:
        entries = op.run(None)
        recv = (sweep.cov_receivers if op.mode == "covariance" else sweep.receivers).points
        assert checks.check_hermitian_psd(entries, sweep.ctx.k, recv, "x") == []
        skew = entries.copy()
        skew[0, 1] += 1e-6 * np.abs(entries).max()
        assert checks.check_hermitian_psd(skew, sweep.ctx.k, recv, "x")
        shifted = entries - 2j * sweep.ctx.k * 1e-3 * np.abs(entries).max() * np.eye(len(recv))
        assert checks.check_hermitian_psd(shifted, sweep.ctx.k, recv, "x")


def test_bridge_and_rate_checks(sweep, tmp_path):
    equispaced = sweep.round(0)[0]
    assert (equispaced.mode, equispaced.count, equispaced.beta) == ("perturbed", 80, 0.0)
    rec = harness._run_op(equispaced, tmp_path / "op")
    assert rec.error is None and equispaced.check(rec.out, None) == []
    c = np.load(rec.out / harness.RESULT)
    assert checks.check_bridge(c, sweep.imaginary()) == []
    assert checks.check_bridge(1.1 * c, sweep.imaginary())
    assert checks.check_rate({40: [1.0], 160: [0.5], 640: [0.25]}) == []
    assert checks.check_rate({40: [1.0], 160: [0.9], 640: [0.8]})


def test_byte_identity_catches_changed_output(tmp_path):
    op, out = scene(8, tmp_path)
    again = tmp_path / "again"
    op.run(again)
    assert harness._same(op, out, again)
    data = bytearray((again / "indicator.pgm").read_bytes())
    data[-1] ^= 1
    (again / "indicator.pgm").write_bytes(bytes(data))
    assert not harness._same(op, out, again)


def test_tracer_wraps_callers_and_restores_them(tmp_path):
    from passivelsm import forward, geometry, pipeline

    originals = (geometry.contains_points, forward.contains_points)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert forward.contains_points is geometry.contains_points
        assert forward.contains_points is not originals[0]
        tracer.enabled = True
        tracer.op = 0
        pipeline.run(pipeline.preset("kite-N"), tmp_path)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert (geometry.contains_points, forward.contains_points) == originals
    summary = tracer.summary()
    assert summary["forward.assemble_single_layer"]["calls"] == 1
    assert summary["geometry.contains_points"]["calls"] >= 2
    assert summary["inversion.indicator_map"]["probes"] == 100 * 100
    for row in summary.values():
        assert 0.0 <= row["self_s"] <= row["s"] + 1e-9


def test_tracer_rejects_a_missing_name(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "geometry.no_such_function", (("calls",), None, None))
    with pytest.raises(AttributeError):
        tracing.Tracer().install()


def test_benchmark_json_names_match_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == tracing.per_layer_catalogue()
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "ops_per_s", "latency_p50_s", "latency_tail_s", "peak_rss_mb"]
