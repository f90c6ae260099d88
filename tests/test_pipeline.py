import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from passivelsm import acquisition, cli, forward, geometry, pipeline
from passivelsm.pipeline import ExperimentConfig, PipelineError, preset, run


def tiny_config(**overrides) -> ExperimentConfig:
    cfg = preset("kite-C")
    cfg.receiver_count = 12
    cfg.source_count = 16
    cfg.boundary_nodes = 64
    cfg.grid_nx = 20
    cfg.grid_ny = 20
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class TestPresets:
    def test_kite_c_matches_reference_parameters(self):
        cfg = preset("kite-C")
        assert cfg.k == pytest.approx(2 * math.pi)
        assert cfg.matrix_kind == acquisition.CROSS_CORRELATION
        assert cfg.receiver_count == 80
        assert cfg.receiver_radius == pytest.approx(5.0)
        assert cfg.source_count == 80
        assert cfg.source_radius == pytest.approx(50.0)
        assert cfg.source_beta == pytest.approx(0.1)
        assert cfg.noise_amplitude == pytest.approx(5e-2)
        assert (cfg.grid_nx, cfg.grid_ny) == (100, 100)
        assert cfg.grid_x == (-6.0, 6.0)
        assert cfg.mask_radius == pytest.approx(5.0)
        assert cfg.scatterer_center == (2.0, 2.0)
        assert cfg.scatterer_size == pytest.approx(0.5)

    def test_ellipse_presets_place_at_negative_center(self):
        for letter, kind in (("N", acquisition.NEAR_FIELD),
                             ("I", acquisition.IMAGINARY_NEAR_FIELD),
                             ("C", acquisition.CROSS_CORRELATION)):
            cfg = preset(f"ellipse-{letter}")
            assert cfg.scatterer_kind == "ellipse"
            assert cfg.scatterer_center == (-2.0, -2.0)
            assert cfg.matrix_kind == kind

    def test_kite_beta_arguments(self):
        cfg = preset("kite-beta(0.6,200)")
        assert cfg.source_beta == pytest.approx(0.6)
        assert cfg.source_count == 200

    def test_wavenumber_scales_lengths(self):
        cfg = preset("wavenumber(4pi,160)")
        lam = 0.5
        assert cfg.k == pytest.approx(4 * math.pi)
        assert cfg.receiver_count == 160
        assert cfg.source_count == 160
        assert cfg.receiver_radius == pytest.approx(5 * lam)
        assert cfg.source_radius == pytest.approx(50 * lam)
        assert cfg.scatterer_size == pytest.approx(0.5 * lam)
        assert cfg.grid_x == (pytest.approx(-6 * lam), pytest.approx(6 * lam))

    def test_setup2(self):
        cfg = preset("setup2(800)")
        assert cfg.matrix_kind == acquisition.COVARIANCE
        assert cfg.receiver_count == 200
        assert cfg.source_count == 200
        assert cfg.realizations == 800
        assert cfg.source_beta == 0.0

    def test_limited_aperture(self):
        cfg = preset("limited-aperture(C)")
        assert cfg.receiver_arc == (math.pi / 2, 3 * math.pi / 2)
        assert cfg.source_arc == (math.pi / 2, 3 * math.pi / 2)
        assert cfg.scatterer_kind == "ellipse"

    def test_point_scatterers(self):
        cfg = preset("point-scatterers")
        assert cfg.scatterer_kind == "point-scatterers"
        assert len(cfg.point_centers) == 3
        assert cfg.point_radius == pytest.approx(0.01)
        assert cfg.matrix_kind == acquisition.IMAGINARY_NEAR_FIELD

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("torus-N")


class TestConfigSerialization:
    def test_ini_round_trip(self):
        cfg = preset("kite-beta(0.37,123)")
        cfg.seed = 42
        cfg.receiver_arc = (0.25, 1.75)
        restored = ExperimentConfig.from_ini(cfg.to_ini())
        assert restored == cfg

    def test_point_scatterer_round_trip(self):
        cfg = preset("point-scatterers")
        restored = ExperimentConfig.from_ini(cfg.to_ini())
        assert restored == cfg

    def test_override(self):
        cfg = preset("kite-C")
        cfg.apply_override("noise.amplitude", "0.1")
        cfg.apply_override("sources.count", "40")
        assert cfg.noise_amplitude == pytest.approx(0.1)
        assert cfg.source_count == 40


class TestExecute:
    def test_geometry_validation(self):
        cfg = tiny_config(receiver_radius=0.05, mask_radius=0.05)
        cfg.scatterer_center = (0.0, 0.0)
        with pytest.raises(PipelineError) as err:
            pipeline.execute(cfg)
        assert err.value.stage == "geometry"

    def test_bad_wavenumber_fails_in_geometry_stage(self):
        with pytest.raises(PipelineError) as err:
            pipeline.execute(tiny_config(k=-1.0))
        assert err.value.stage == "geometry"

    @pytest.mark.parametrize("overrides", [{"grid_nx": 0}, {"mask_radius": 0.0}])
    def test_grid_without_probed_point_fails_in_invert_stage(self, overrides):
        with pytest.raises(PipelineError, match="no grid point was probed") as err:
            pipeline.execute(tiny_config(**overrides))
        assert err.value.stage == "invert"

    def test_zero_noise_fails_in_invert_stage(self):
        cfg = tiny_config(noise_amplitude=0.0)
        with pytest.raises(PipelineError) as err:
            pipeline.execute(cfg)
        assert err.value.stage == "invert"

    def test_near_field_and_imaginary_kinds(self):
        for kind in (acquisition.NEAR_FIELD, acquisition.IMAGINARY_NEAR_FIELD):
            cfg = tiny_config(matrix_kind=kind)
            art = pipeline.execute(cfg)
            assert art.matrix.kind == kind
            assert art.indicator.values.shape == (20, 20)

    def test_covariance_kind(self):
        cfg = tiny_config(matrix_kind=acquisition.COVARIANCE, realizations=50)
        art = pipeline.execute(cfg)
        assert art.matrix.kind == acquisition.COVARIANCE
        assert art.matrix.provenance["M"] == 50

    def test_none_scatterer_gives_zero_matrix(self):
        # no scatterer -> N = 0, so the entry-scaled noise is zero too and
        # the Morozov probe (which needs delta > 0) reports the failure
        cfg = tiny_config(scatterer_kind="none",
                          matrix_kind=acquisition.NEAR_FIELD)
        with pytest.raises(PipelineError) as err:
            pipeline.execute(cfg)
        assert err.value.stage == "invert"
        matrix = acquisition.near_field_matrix(
            geometry.circle_points(5.0, 12),
            forward.assemble_single_layer((), cfg.ctx),
        )
        assert np.all(matrix.entries == 0)


class TestRun:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = tiny_config(seed=3)
        manifest = run(cfg, tmp_path)
        for name in pipeline.OUTPUT_FILES:
            assert (tmp_path / name).exists()
        data = json.loads((tmp_path / "manifest.json").read_text())
        assert data["version"] == pipeline.VERSION
        assert data["status"] == "ok"
        assert data["delta"] == manifest.delta > 0
        assert set(data["files"]) == set(pipeline.OUTPUT_FILES)
        for name, digest in data["files"].items():
            actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert actual == digest
        assert set(data["timings"]) >= {"geometry", "assemble", "acquire",
                                        "noise", "invert", "write"}
        assert data["config"]["seed"] == 3

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tiny_config(seed=11)
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        for name in pipeline.OUTPUT_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_seed_changes_outputs(self, tmp_path):
        run(tiny_config(seed=1), tmp_path / "a")
        run(tiny_config(seed=2), tmp_path / "b")
        assert (tmp_path / "a" / "matrix.csv").read_bytes() != (
            tmp_path / "b" / "matrix.csv"
        ).read_bytes()

    def test_matrix_csv_round_trips(self, tmp_path):
        cfg = tiny_config(seed=5)
        run(cfg, tmp_path)
        entries, fields = acquisition.read_matrix_csv(tmp_path / "matrix.csv")
        assert entries.shape == (12, 12)
        assert fields["kind"] == acquisition.CROSS_CORRELATION


class TestCli:
    def test_info(self, capsys):
        assert cli.main(["info", "--preset", "kite-C"]) == 0
        out = capsys.readouterr().out
        assert "[sources]" in out
        assert "cross-correlation" in out

    def test_run_with_overrides(self, tmp_path, capsys):
        rc = cli.main([
            "run", "--preset", "kite-C", "--seed", "2",
            "--out", str(tmp_path),
            "--set", "receivers.count=12",
            "--set", "sources.count=16",
            "--set", "discretization.nodes=64",
            "--set", "grid.nx=16",
            "--set", "grid.ny=16",
        ])
        assert rc == 0
        assert (tmp_path / "manifest.json").exists()
        data = json.loads((tmp_path / "manifest.json").read_text())
        assert data["config"]["receiver_count"] == 12

    def test_run_config_file(self, tmp_path):
        cfg = tiny_config(seed=8)
        path = tmp_path / "config.ini"
        path.write_text(cfg.to_ini())
        rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 0
        data = json.loads((tmp_path / "o" / "manifest.json").read_text())
        # JSON round trip renders tuples as lists
        assert data["config"] == json.loads(json.dumps(cfg.to_dict()))

    def test_run_failure_exit_code(self, tmp_path, capsys):
        rc = cli.main([
            "run", "--preset", "kite-C", "--out", str(tmp_path),
            "--set", "noise.amplitude=0",
            "--set", "receivers.count=12",
            "--set", "sources.count=16",
            "--set", "discretization.nodes=64",
            "--set", "grid.nx=8", "--set", "grid.ny=8",
        ])
        assert rc == 1
        assert "invert" in capsys.readouterr().err

    def test_validate_suite(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = cli.main(["validate", "--suite", "wronskian",
                       "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["suite"] == "wronskian"
        assert report["results"][0]["cid"] == 1
        out = capsys.readouterr().out
        assert "criterion  1" in out

    def test_thread_cap_applies_before_numpy_loads(self):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS")}
        env["LSM_THREADS"] = "1"
        code = "import os, passivelsm.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "1"
        # an explicit pool size still wins over the cap
        env["OPENBLAS_NUM_THREADS"] = "2"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "2"

    def test_validate_unknown_suite(self, capsys):
        assert cli.main(["validate", "--suite", "nope"]) == 2
