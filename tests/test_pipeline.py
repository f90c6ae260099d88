import dataclasses
import hashlib
import json
import logging
import math
import os
import platform
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy
import scipy.special

from passivelsm import acquisition, cli, forward, geometry, inversion, pipeline
from passivelsm.pipeline import ExperimentConfig, PipelineError, preset, run

from oracles import read_matrix_csv


def count_point_queries(monkeypatch) -> dict:
    """The point count of every containment and distance query from now on."""
    sizes = {"contains_points": [], "boundary_distance": []}
    for name, calls in sizes.items():
        def counting(curve, points, original=getattr(geometry, name), calls=calls):
            calls.append(len(points))
            return original(curve, points)

        monkeypatch.setattr(geometry, name, counting)
        monkeypatch.setattr(forward, name, counting)
    return sizes


@pytest.fixture
def assembled(monkeypatch):
    """A weak reference to each system assembled from now on, and how many
    of the earlier ones were alive as each assembly began."""
    refs, alive = [], []

    def assemble_spy(*args, assemble=forward.assemble_single_layer):
        alive.append(sum(ref() is not None for ref in refs))
        system = assemble(*args)
        refs.append(weakref.ref(system))
        return system

    monkeypatch.setattr(forward, "assemble_single_layer", assemble_spy)
    return refs, alive


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
        cfg = ExperimentConfig.from_ini(preset("kite-C").to_ini(), [
            ("noise.amplitude", "0.1"), ("sources.count", "40")])
        assert cfg.noise_amplitude == pytest.approx(0.1)
        assert cfg.source_count == 40

    @pytest.mark.parametrize("name", [
        "ellipse-N", "ellipse-I", "ellipse-C", "kite-N", "kite-I", "kite-C",
        "kite-beta(0.6,200)", "wavenumber(4pi,160)", "setup2(800)",
        "limited-aperture(N)", "limited-aperture(C)", "point-scatterers",
    ])
    def test_every_preset_round_trips(self, name):
        assert ExperimentConfig.from_ini(preset(name).to_ini()) == preset(name)

    def test_missing_keys_keep_defaults(self):
        # a point-scatterer file that leaves out the curve keys and x_max
        cfg = ExperimentConfig.from_ini(
            "[scatterer]\nkind = point-scatterers\ncenters = -2.0,-2.0; 2.0,2.0\n"
            "[matrix]\nkind = imaginary-near-field\n[grid]\nx_min = -3.0\n"
        )
        assert cfg == ExperimentConfig(
            scatterer_kind="point-scatterers", point_centers=((-2.0, -2.0), (2.0, 2.0)),
            matrix_kind=acquisition.IMAGINARY_NEAR_FIELD, grid_x=(-3.0, 6.0),
        )

    def test_both_arc_ends_as_two_overrides(self):
        cfg = ExperimentConfig.from_ini(preset("kite-C").to_ini(), [
            ("receivers.arc_min", "1"), ("receivers.arc_max", "2")])
        assert cfg.receiver_arc == (1.0, 2.0)

    @pytest.mark.parametrize("text, overrides, message", [
        ("", [("noise.amplitud", "0.1")], "unknown key noise.amplitud"),
        ("[foo]\nx = 1\n", [], r"unknown section \[foo\]"),
        ("", [("foo", "1")], r"unknown section \[foo\]"),
        ("[DEFAULT]\nk = 1\n", [], r"unknown section \[DEFAULT\]"),
        ("", [("receivers.arc_min", "1")], "must be given together"),
        ("[sources]\narc_max = 1\n", [], "must be given together"),
        ("", [("grid.nx", "abc")], "grid.nx"),
        ("", [("scatterer.centers", "1,2,3")], "scatterer.centers"),
        ("[wave]\nk 1\n", [], "parsing errors"),
    ], ids=["misspelt-key", "unknown-section", "override-without-key",
            "default-section", "lone-arc_min", "lone-arc_max", "unparsable-int",
            "three-coordinates", "malformed-ini"])
    def test_rejected_config(self, text, overrides, message):
        with pytest.raises(PipelineError, match=message) as err:
            ExperimentConfig.from_ini(text, overrides)
        assert err.value.stage == "config"


SCHEMA_KEYS = [
    (f, f"{f.metadata['ini'][0]}.{key}")
    for f in dataclasses.fields(ExperimentConfig) for key in f.metadata["ini"][1]
]
WORD_KEYS = [key for f, key in SCHEMA_KEYS if isinstance(f.default, str)]
NUMERIC_KEYS = [key for f, key in SCHEMA_KEYS
                if f.default is None or isinstance(f.default, (int, float))
                or len(f.metadata["ini"][1]) == 2]
STAGES = {"config", "geometry", "assemble", "acquire", "noise", "invert"}
# magnitudes far outside any scene, for each float key (a coordinate pair's
# part included) and each integer key; the arc ends are left out, since a
# lone arc end is refused as config
FLOAT_MAGNITUDES = ["1e300", "-1e300", "1e15", "1e-15", "1e-300"]
INTEGER_MAGNITUDES = ["-1", "1000000000", "2147483648", "1000000000000000"]
MAGNITUDE_SWEEP = [
    (key, value) for f, key in SCHEMA_KEYS if key in NUMERIC_KEYS and f.default is not None
    for value in (INTEGER_MAGNITUDES if isinstance(f.default, int) else FLOAT_MAGNITUDES)]
MAGNITUDE_CASE_SECONDS = 5.0


@pytest.fixture(scope="module")
def tiny_ini():
    cfg = tiny_config(grid_nx=8, grid_ny=8)
    return cfg.to_ini()


class TestConfigSchema:
    """Every key of the schema, driven from the field table itself."""

    def test_each_key_is_named_once(self):
        keys = [key for _, key in SCHEMA_KEYS]
        assert len(keys) == len(set(keys))
        assert len(WORD_KEYS) + len(NUMERIC_KEYS) + 1 == len(keys)  # + centers

    @pytest.mark.parametrize("key", [key for _, key in SCHEMA_KEYS])
    def test_bogus_value(self, tiny_ini, key):
        if key not in WORD_KEYS:
            with pytest.raises(PipelineError) as err:
                ExperimentConfig.from_ini(tiny_ini, [(key, "bogus")])
            assert err.value.stage == "config"
            return
        # a word parses; the stage that uses it rejects an unknown one
        cfg = ExperimentConfig.from_ini(tiny_ini, [(key, "bogus")])
        with pytest.raises(PipelineError, match="unknown") as err:
            pipeline.execute(cfg)
        assert err.value.stage in STAGES - {"config"}

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    @pytest.mark.parametrize("key", NUMERIC_KEYS)
    def test_edge_value_runs_or_fails_with_a_stage(self, tiny_ini, key, value):
        try:
            pipeline.execute(ExperimentConfig.from_ini(tiny_ini, [(key, value)]))
        except PipelineError as err:
            assert err.stage in STAGES

    @pytest.mark.parametrize("key, value", MAGNITUDE_SWEEP)
    def test_extreme_magnitude_runs_or_fails_with_a_stage_quietly(self, tiny_ini, key,
                                                                   value):
        # a warning is recorded, not raised: raised, a stage would tag it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                pipeline.execute(ExperimentConfig.from_ini(tiny_ini, [(key, value)]))
            except PipelineError as err:
                assert err.stage in STAGES
            seconds = time.perf_counter() - t0
        assert [str(w.message) for w in caught] == []
        assert seconds < MAGNITUDE_CASE_SECONDS


class TestExecute:
    @pytest.mark.parametrize("overrides", [
        # receivers inside the kite
        {"receiver_radius": 0.05, "mask_radius": 0.05,
         "scatterer_center": (0.0, 0.0)},
        # the receiver at (5, 0) is 5e-4 from the circle, inside the clearance
        {"scatterer_kind": "circle", "scatterer_center": (5.0505, 0.0),
         "scatterer_size": 0.1},
        # the source at (50, 0) is inside the kite
        {"scatterer_center": (50.0, 0.0), "source_beta": 0.0},
    ], ids=["receiver-inside", "receiver-within-clearance", "source-inside"])
    def test_geometry_validation(self, overrides):
        with pytest.raises(PipelineError) as err:
            pipeline.execute(tiny_config(**overrides))
        assert err.value.stage == "geometry"

    @pytest.mark.parametrize("overrides, reason", [
        ({"point_centers": ((5.0, 0.0),)}, "a receiver lies inside or within"),
        # one circle of radius 10 about the origin encloses the receiver circle
        ({"point_centers": ((0.0, 0.0),), "point_radius": 10.0},
         "a receiver lies inside or within"),
        # the receiver at (5, 0) is 5e-4 wavelengths from the circle's rim
        ({"point_centers": ((5.0 - 0.01 - 5e-4, 0.0),)}, "a receiver lies inside or within"),
        ({"point_centers": ((0.0, 0.0), (2.0, 2.0), (0.0, 0.0))},
         "point scatterers 1 and 3 overlap"),
        # rims touch: the centres are exactly the two radii apart
        ({"point_centers": ((0.0, 0.0), (0.02, 0.0))}, "point scatterers 1 and 2 overlap"),
    ], ids=["center-on-receiver", "receivers-enclosed", "receiver-within-clearance",
            "coincident-centers", "touching-circles"])
    def test_point_scatterer_geometry(self, overrides, reason):
        cfg = preset("point-scatterers")
        for key, value in overrides.items():
            setattr(cfg, key, value)
        with pytest.raises(PipelineError, match=reason) as err:
            pipeline.execute(cfg)
        assert err.value.stage == "geometry"

    @pytest.mark.parametrize("kind", [acquisition.CROSS_CORRELATION,
                                      acquisition.COVARIANCE])
    def test_point_scatterers_refuse_correlation_kinds(self, kind):
        cfg = preset("point-scatterers")
        cfg.matrix_kind = kind
        with pytest.raises(PipelineError) as err:
            pipeline.execute(cfg)
        assert err.value.stage == "acquire"
        assert str(err.value) == (
            "[acquire] point-scatterer runs support near-field and imaginary "
            f"near-field matrices, not {kind}")

    def test_point_scatterers_just_clear_of_receivers_and_each_other_run(self):
        # 2e-3 wavelengths from the receiver at (5, 0), 1e-3 between the rims
        cfg = preset("point-scatterers")
        cfg.point_centers = ((5.0 - 0.01 - 2e-3, 0.0), (5.0 - 0.031 - 2e-3, 0.0))
        cfg.grid_nx = cfg.grid_ny = 8
        art = pipeline.execute(cfg)
        assert art.indicator.mask.any()

    @pytest.mark.parametrize("field, value, stage, name", [
        ("scatterer_center", (math.nan, 0.0), "geometry", "center"),
        ("scatterer_size", math.inf, "geometry", "size"),
        ("k", math.inf, "geometry", "wavenumber"),
        ("noise_amplitude", math.nan, "noise", "noise amplitude"),
    ], ids=["center-nan", "size-inf", "k-inf", "noise-amplitude-nan"])
    def test_non_finite_value_is_rejected_by_name(self, field, value, stage, name):
        with pytest.raises(PipelineError) as err:
            pipeline.execute(tiny_config(**{field: value}))
        assert err.value.stage == stage
        assert name in str(err.value) and str(value) in str(err.value)

    @pytest.mark.parametrize("kind", [acquisition.CROSS_CORRELATION,
                                      acquisition.NEAR_FIELD, acquisition.COVARIANCE])
    def test_each_point_set_is_checked_once(self, monkeypatch, kind):
        # one containment and one distance query per point set; the near
        # field's receivers are its sources as well
        sizes = count_point_queries(monkeypatch)
        cfg = tiny_config(matrix_kind=kind, realizations=20)
        pipeline.execute(cfg)
        count = cfg.receiver_count if kind == acquisition.NEAR_FIELD else cfg.source_count
        for calls in sizes.values():
            assert sorted(calls) == sorted([cfg.receiver_count, count])

    @pytest.mark.parametrize("kind", [acquisition.CROSS_CORRELATION,
                                      acquisition.NEAR_FIELD, acquisition.COVARIANCE])
    def test_reusing_run_checks_only_its_sources(self, monkeypatch, kind):
        # the kept receiver response was checked when it was made
        cfg = tiny_config(matrix_kind=kind, realizations=20)
        pipeline.execute(cfg)
        sizes = count_point_queries(monkeypatch)
        pipeline.execute(dataclasses.replace(cfg, seed=1))
        count = cfg.receiver_count if kind == acquisition.NEAR_FIELD else cfg.source_count
        for calls in sizes.values():
            assert calls == [count]

    def test_too_many_receivers_fail_in_geometry_stage(self):
        count = inversion.MAX_SVD_SIZE + 1
        tracemalloc.start()
        try:
            with pytest.raises(PipelineError, match=f"receivers.count {count}") as err:
                pipeline.execute(ExperimentConfig(receiver_count=count))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.stage == "geometry"
        # refused before the J x J matrix (67 MB at J = 2049) or any field exists
        assert peak < 2 * 2 ** 20

    def test_source_on_receiver_fails_in_geometry_stage(self):
        # equispaced sources on the receiver circle: both layouts start at (5, 0)
        cfg = tiny_config(source_radius=5.0, source_beta=0.0)
        with pytest.raises(PipelineError, match="a source coincides with a receiver") as err:
            pipeline.execute(cfg)
        assert err.value.stage == "geometry"

    @pytest.mark.parametrize("amplitude", [1e100, 1e160])
    def test_overflowing_noise_fails_in_invert_stage(self, amplitude):
        # a RuntimeWarning would be an error here, and named in the message
        with pytest.raises(PipelineError,
                           match="overflows Morozov's discrepancy arithmetic") as err:
            pipeline.execute(tiny_config(noise_amplitude=amplitude))
        assert err.value.stage == "invert"

    def test_another_scene_frees_the_system_before_it_assembles(self, assembled):
        """The memo keeps one system, which a run of another scene drops
        before it assembles its own; a run of the same scene assembles none."""
        refs, alive_at_assembly = assembled
        alive_after_run = []
        for center in ((2.0, 2.0), (1.0, -2.0), (1.0, -2.0), (2.0, 2.0)):
            art = pipeline.execute(tiny_config(scatterer_center=center, grid_nx=8, grid_ny=8))
            alive_after_run.append(sum(ref() is not None for ref in refs))
            assert art.assembly["nodes_used"] == 128
        assert alive_at_assembly == [0, 0, 0]
        assert alive_after_run == [1, 1, 1, 1]

    @pytest.mark.parametrize("overrides, named", [
        ({"scatterer_center": (1e150, 2.0)}, "scatterer.center_x = 1e+150"),
        ({"scatterer_center": (2.0, -1e16)}, "center_y = -1e+16"),
        # at the preset's centre (2, 2) the float64 grain is 4.4e-16
        ({"scatterer_size": 1e-14}, "scatterer.size = 1e-14"),
    ], ids=["far-x", "far-y", "tiny"])
    def test_unresolved_scatterer_fails_in_geometry_stage(self, monkeypatch, overrides,
                                                          named):
        monkeypatch.setattr(forward, "assemble_single_layer", None)  # never reached
        with pytest.raises(PipelineError, match="too coarse to keep its") as err:
            pipeline.execute(tiny_config(**overrides))
        assert err.value.stage == "geometry"
        assert named in str(err.value)

    @pytest.mark.parametrize("kind", [acquisition.CROSS_CORRELATION, acquisition.NEAR_FIELD])
    def test_tiny_wavenumber_fails_in_geometry_stage_by_name(self, kind):
        # a wavelength of 6.3e300: every pair is within 1e-14 wavelengths,
        # so none would be told apart, though no source is on a receiver
        with pytest.raises(PipelineError) as err:
            pipeline.execute(tiny_config(k=1e-300, matrix_kind=kind))
        assert err.value.stage == "geometry"
        span = 55 if kind == acquisition.CROSS_CORRELATION else 10
        assert str(err.value) == (
            f"[geometry] wave.k = 1e-300 is too small: the receivers and sources, at "
            f"most {span} apart, all lie within 1e-14 wavelengths (6.28e+300) of each "
            "other, where points count as coincident")

    @pytest.mark.parametrize("k", [1.2e-15, 1.3e-15])
    @pytest.mark.parametrize("kind", [acquisition.CROSS_CORRELATION, acquisition.COVARIANCE])
    def test_small_wavenumber_that_merges_the_circles_fails_by_name(self, monkeypatch,
                                                                    kind, k):
        # the circles, 45 apart, lie within 1e-14 wavelengths (52.4 and 48.3),
        # though the 55 across the layout do not; no source is on a receiver
        monkeypatch.setattr(forward, "assemble_single_layer", None)  # never reached
        with pytest.raises(PipelineError) as err:
            pipeline.execute(tiny_config(k=k, matrix_kind=kind))
        assert err.value.stage == "geometry"
        assert str(err.value).startswith(
            f"[geometry] wave.k = {k:g} with sources.radius = 50 and receivers.radius = 5: "
            "the circles, 45 apart, lie within 1e-14 wavelengths")

    def test_noise_beyond_double_range_fails_in_noise_stage(self):
        cfg = preset("kite-C")
        cfg.noise_amplitude, cfg.receiver_count, cfg.source_count = 1.7e308, 12, 16
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PipelineError, match=r"noise amplitude 1\.7e\+308") as err:
                pipeline.execute(cfg)
        assert err.value.stage == "noise"

    def test_large_noise_within_double_range_runs(self):
        art = pipeline.execute(tiny_config(noise_amplitude=1e20, grid_nx=8, grid_ny=8))
        assert art.matrix.delta > 1e18

    def test_bad_wavenumber_fails_in_geometry_stage(self):
        with pytest.raises(PipelineError) as err:
            pipeline.execute(tiny_config(k=-1.0))
        assert err.value.stage == "geometry"

    # a grid wholly outside the mask, and a mask that holds no grid point
    @pytest.mark.parametrize("overrides", [{"grid_x": (10.0, 12.0)}, {"mask_radius": 0.0}])
    def test_grid_without_probed_point_fails_in_invert_stage(self, overrides):
        with pytest.raises(PipelineError, match="no grid point was probed") as err:
            pipeline.execute(tiny_config(**overrides))
        assert err.value.stage == "invert"
        assert str(err.value).endswith("clear of the receivers")

    def test_noise_below_every_morozov_root_fails_in_invert_stage(self):
        cfg = tiny_config(noise_amplitude=1e-300)
        with pytest.raises(PipelineError, match=(
                r"no grid point was probed successfully: (\d+) of its \1 probes have no "
                r"Morozov root above ALPHA_FLOOR = 1e-30 at delta = \d")) as err:
            pipeline.execute(cfg)
        assert err.value.stage == "invert"

    @pytest.mark.parametrize("key, value", [
        ("grid.nx", "0"), ("grid.nx", "-1"), ("grid.ny", "0"), ("grid.x_min", "-inf"),
        ("grid.x_max", "nan"), ("grid.y_min", "nan"), ("grid.y_max", "inf"),
        ("grid.mask_radius", "-1"), ("grid.mask_radius", "nan"),
    ])
    def test_bad_grid_fails_in_geometry_stage_by_name(self, tiny_ini, key, value):
        cfg = ExperimentConfig.from_ini(tiny_ini, [(key, value)])
        with pytest.raises(PipelineError, match=f"{key} = {value}") as err:
            pipeline.execute(cfg)
        assert err.value.stage == "geometry"

    # an arc of 4 pi would count the circle twice in |Sigma| (C 12.7 |I| from I)
    @pytest.mark.parametrize("field", ["receiver_arc", "source_arc"])
    def test_arc_wider_than_the_circle_fails_in_geometry_stage(self, monkeypatch, field):
        monkeypatch.setattr(forward, "assemble_single_layer", None)  # never reached
        with pytest.raises(PipelineError, match=re.escape(
                "arc (0, 12.566) spans 12.566 radians, more than the full circle")) as err:
            pipeline.execute(tiny_config(**{field: (0.0, 12.566)}))
        assert err.value.stage == "geometry"

    # at 1e17 float64 angles are 16 apart, so its 80 sources would land on 3 points
    def test_arc_float64_cannot_place_fails_in_geometry_stage(self, monkeypatch):
        monkeypatch.setattr(forward, "assemble_single_layer", None)  # never reached
        cfg = preset("kite-C")
        cfg.source_arc = (1e17, 1.0000000000000003e17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PipelineError, match=re.escape(
                    "arc (1e+17, 1e+17) spans 32 radians where float64 angles are 16 "
                    "apart, too coarse to keep its 80 points (0.4 apart) distinct")) as err:
                pipeline.execute(cfg)
        assert err.value.stage == "geometry"

    # building a layout peaks at 24 B per source, and a covariance keeps
    # 16 J B per source: the largest count within MEMORY_BUDGET is built,
    # one more is refused before it is
    @pytest.mark.parametrize("kind, receivers, per_source, cap", [
        (acquisition.CROSS_CORRELATION, 12, 24, 44739242),
        (acquisition.COVARIANCE, 200, 3200, 335544),
        (acquisition.COVARIANCE, 1, 24, 44739242),
    ], ids=["cross-correlation-12", "covariance-200", "covariance-1"])
    def test_source_count_over_the_memory_budget_fails_in_geometry_stage_by_name(
            self, monkeypatch, kind, receivers, per_source, cap):
        def build(cfg):
            raise ValueError(f"building {cfg.source_count} sources")

        monkeypatch.setattr(pipeline, "_build_sources", build)
        assert cap == pipeline.MEMORY_BUDGET // per_source
        cfg = tiny_config(matrix_kind=kind, receiver_count=receivers, source_count=cap)
        with pytest.raises(PipelineError, match=f"building {cap} sources"):
            pipeline.execute(cfg)
        cfg.source_count = cap + 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PipelineError, match=re.escape(
                    f"sources.count = {cap + 1}")) as err:
                pipeline.execute(cfg)
        assert err.value.stage == "geometry"
        assert f"at {per_source} B per source, more than the 1 GiB memory budget" in str(
            err.value)

    def test_grid_over_the_memory_budget_fails_in_geometry_stage_by_name(self, monkeypatch):
        cap = pipeline.MEMORY_BUDGET // pipeline.GRID_CELL_BYTES
        assert tiny_config(grid_nx=1, grid_ny=cap).grid_spec().ny == cap
        monkeypatch.setattr(forward, "assemble_single_layer", None)  # never reached
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PipelineError, match=re.escape(
                    f"grid.nx * grid.ny = 2 * {cap}: 2 GiB at 56 B per cell, more than "
                    "the 1 GiB memory budget")) as err:
                pipeline.execute(tiny_config(grid_nx=2, grid_ny=cap))
        assert err.value.stage == "geometry"

    # the squares of these overflow where inversion masks the probes
    @pytest.mark.parametrize("key, value", [
        ("grid.mask_radius", "1e300"), ("grid.x_min", "-1e300"), ("grid.y_max", "1e155"),
    ])
    def test_grid_whose_squares_overflow_fails_in_geometry_stage_by_name(
            self, tiny_ini, monkeypatch, key, value):
        monkeypatch.setattr(forward, "assemble_single_layer", None)  # never reached
        cfg = ExperimentConfig.from_ini(tiny_ini, [(key, value)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PipelineError, match=re.escape(
                    f"{key} = {float(value):g} is too large: squared distances")) as err:
                pipeline.execute(cfg)
        assert err.value.stage == "geometry"

    def test_infinite_mask_radius_masks_nothing(self, tiny_ini):
        cfg = ExperimentConfig.from_ini(tiny_ini, [("grid.mask_radius", "inf")])
        assert pipeline.execute(cfg).indicator.morozov.probed == 8 * 8

    @pytest.mark.parametrize("mode", ["unifrom", "bogus"])
    def test_unknown_source_mode_fails_in_geometry_stage(self, mode):
        with pytest.raises(PipelineError, match="unknown source mode") as err:
            pipeline.execute(tiny_config(source_mode=mode))
        assert err.value.stage == "geometry"

    @pytest.mark.parametrize("nodes, raised", [(64, 128), (127, 128), (512, None)])
    def test_boundary_nodes_raised_to_density_floor(self, caplog, nodes, raised):
        caplog.set_level(logging.INFO, logger=pipeline.__name__)
        pipeline.execute(tiny_config(boundary_nodes=nodes, grid_nx=8, grid_ny=8))
        lines = [m for m in caplog.messages if m.startswith("boundary nodes raised")]
        assert lines == ([f"boundary nodes raised from {nodes} to {raised}"]
                         if raised else [])

    @pytest.mark.parametrize("nodes", [129, 301])
    def test_odd_boundary_nodes_fail_in_geometry_stage(self, monkeypatch, nodes):
        # an odd count above the density floor is refused before assembly
        monkeypatch.setattr(forward, "assemble_single_layer", None)
        with pytest.raises(PipelineError) as err:
            pipeline.execute(tiny_config(boundary_nodes=nodes))
        assert err.value.stage == "geometry"
        assert f"discretization.nodes = {nodes} must be even" in str(err.value)

    def test_zero_noise_fails_in_noise_stage(self):
        cfg = tiny_config(noise_amplitude=0.0)
        with pytest.raises(PipelineError, match="noise.amplitude > 0") as err:
            pipeline.execute(cfg)
        assert err.value.stage == "noise"

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
        assert art.matrix.realizations == 50

    @pytest.mark.parametrize("beta", [0.0, 0.1, 0.6])
    def test_covariance_sources_carry_the_config_beta(self, beta):
        cfg = tiny_config(matrix_kind=acquisition.COVARIANCE, realizations=5,
                          source_beta=beta)
        sources = pipeline._build_sources(cfg)
        assert sources.beta == beta
        ref = geometry.circle_points(cfg.source_radius, cfg.source_count, beta=beta,
                                     seed=cfg.seed, role=geometry.ROLE_RANDOM_SOURCE)
        np.testing.assert_array_equal(sources.points, ref.points)
        assert pipeline.execute(cfg).matrix.sources.beta == beta

    def test_none_scatterer_gives_zero_matrix(self):
        # no scatterer -> N = 0, so the entry-scaled noise is zero too and
        # the noise stage rejects the run before inversion
        cfg = tiny_config(scatterer_kind="none",
                          matrix_kind=acquisition.NEAR_FIELD)
        with pytest.raises(PipelineError, match="the matrix is zero") as err:
            pipeline.execute(cfg)
        assert err.value.stage == "noise"
        matrix = acquisition.near_field_matrix(
            geometry.circle_points(5.0, 12),
            forward.assemble_single_layer((), cfg.ctx),
        )
        assert np.all(matrix.entries == 0)


class TestStageMemory:
    """Stage by stage through a kite-C run at J = L = 400: the tracemalloc
    peak above the stage's inputs, its output included, counted in J x J
    complex arrays (2.56 MB each)."""

    J = 400

    @pytest.fixture(scope="class")
    def peaks(self):
        cfg = preset("kite-C")
        cfg.receiver_count = cfg.source_count = self.J
        ctx = cfg.ctx
        receivers = geometry.circle_points(cfg.receiver_radius, self.J, beta=0.0,
                                           role=geometry.ROLE_RECEIVER)
        curve = geometry.place_scatterer(geometry.BoundaryCurve(kind="kite"), ctx,
                                         cfg.scatterer_center, cfg.scatterer_size)
        system = forward.assemble_single_layer(
            geometry.discretize(curve, cfg.boundary_nodes), ctx)
        unit = self.J ** 2 * np.dtype(complex).itemsize
        peaks = {}

        def traced(stage, fn, *args, **kwargs):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                result = fn(*args, **kwargs)
                peaks[stage] = (tracemalloc.get_traced_memory()[1] - base) / unit
            finally:
                tracemalloc.stop()
            return result

        sources = pipeline._build_sources(cfg)
        matrix = traced("acquire", acquisition.cross_correlation_matrix, receivers,
                        sources, sources.length, system)
        matrix = traced("noise", acquisition.add_noise, matrix, cfg.noise_amplitude,
                        cfg.seed)
        traced("invert", inversion.indicator_map, matrix, cfg.grid_spec(),
               mask_radius=cfg.mask_radius)
        return peaks

    @pytest.mark.parametrize("stage, bound", [("acquire", 4.5), ("noise", 2.5),
                                              ("invert", 3.5)])
    def test_peak_above_inputs(self, peaks, stage, bound):
        assert peaks[stage] <= bound


class TestRun:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = tiny_config(seed=3)
        manifest = run(cfg, tmp_path)
        for name in pipeline.OUTPUT_FILES:
            assert (tmp_path / name).exists()
        data = json.loads((tmp_path / "manifest.json").read_text())
        assert data["version"] == pipeline.VERSION
        assert data["delta"] == manifest.delta > 0
        assert set(data["files"]) == set(pipeline.OUTPUT_FILES)
        for name, digest in data["files"].items():
            actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert actual == digest
        assert set(data["timings"]) >= {"geometry", "assemble", "acquire",
                                        "noise", "invert", "write"}
        assert data["config"]["seed"] == 3

    @pytest.mark.parametrize("overrides", [
        {},
        # two full realization blocks and a remainder
        {"matrix_kind": acquisition.COVARIANCE, "realizations": 300},
    ], ids=["C", "covariance"])
    def test_rerun_byte_identical(self, tmp_path, overrides):
        cfg = tiny_config(seed=11, **overrides)
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        for name in pipeline.OUTPUT_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_in_process_rerun_byte_identical(self, tmp_path):
        # a kite-N run at another centre in between: nothing one run caches
        # may reach the next
        other = preset("kite-N")
        other.scatterer_center = (1.0, -2.0)
        run(preset("kite-C"), tmp_path / "a")
        run(other, tmp_path / "other")
        run(preset("kite-C"), tmp_path / "b")
        for name in pipeline.OUTPUT_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    @pytest.mark.parametrize("name", ["kite-C", "kite-N", "setup2(200)"])
    def test_reusing_run_matches_a_fresh_run(self, tmp_path, assembled, name):
        # the seed-1 run reuses the seed-0 run's system; the last assembles anew
        cfg = preset(name)
        run(dataclasses.replace(cfg, seed=0), tmp_path / "warm")
        run(dataclasses.replace(cfg, seed=1), tmp_path / "reused")
        pipeline._SYSTEMS.clear()
        run(dataclasses.replace(cfg, seed=1), tmp_path / "fresh")
        assert len(assembled[0]) == 2
        for file in pipeline.OUTPUT_FILES:
            assert (tmp_path / "reused" / file).read_bytes() == (
                tmp_path / "fresh" / file
            ).read_bytes()

    def test_reused_near_resonant_system_still_warns(self, assembled):
        # a circle of radius j_{0,1} / k: k^2 is its first interior Dirichlet eigenvalue
        radius = scipy.special.jn_zeros(0, 1)[0] / (2.0 * math.pi)
        cfg = tiny_config(scatterer_kind="circle", scatterer_size=2.0 * radius,
                          grid_nx=8, grid_ny=8)
        for seed in (0, 1):
            with pytest.warns(forward.ResonanceWarning):
                art = pipeline.execute(dataclasses.replace(cfg, seed=seed))
            assert art.assembly["condition_estimate"] > forward.RESONANCE_CONDITION_LIMIT
        assert len(assembled[0]) == 1

    def test_manifest_morozov_health_is_deterministic(self, tmp_path, monkeypatch):
        # read at run time: a set variable is recorded as is, an unset one as null
        monkeypatch.setenv("LSM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg = tiny_config()
        blocks, assemblies, environments = [], [], []
        for name in ("a", "b"):
            run(cfg, tmp_path / name)
            data = json.loads((tmp_path / name / "manifest.json").read_text())
            blocks.append(data["health"]["morozov"])
            assemblies.append(data["health"]["assembly"])
            environments.append(data["environment"])
        assert blocks[0] == blocks[1]
        assert assemblies[0] == assemblies[1]
        # the 64 configured nodes are raised to the density floor
        assert assemblies[0]["nodes_requested"] == 64
        assert assemblies[0]["nodes_used"] == 128
        assert 1.0 < assemblies[0]["condition_estimate"] < forward.RESONANCE_CONDITION_LIMIT
        assert environments[0] == environments[1]
        assert environments[0]["LSM_THREADS"] == "3"
        assert environments[0]["MKL_NUM_THREADS"] is None
        threads = ("LSM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        blas = {f"{lib.__name__}_blas": "{name} {version}".format(
            **lib.show_config(mode="dicts")["Build Dependencies"]["blas"])
            for lib in (np, scipy)}
        assert all(name.split() for name in blas.values())
        assert environments[0] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, **blas,
            **{var: os.environ.get(var) for var in threads}}
        morozov = blocks[0]
        assert set(morozov) == {"probed", "unsolvable", "alpha_min", "alpha_median",
                                "alpha_max", "newton_passes"}
        assert morozov["probed"] > 0 and morozov["unsolvable"] == 0
        assert 0 < morozov["alpha_min"] <= morozov["alpha_median"] <= morozov["alpha_max"]
        assert morozov["newton_passes"] >= 1

    @pytest.mark.parametrize("overrides, nodes", [
        ({"boundary_nodes": 256}, (256, 256)),
        ({"scatterer_kind": "point-scatterers", "point_centers": ((2.0, 2.0),),
          "matrix_kind": acquisition.IMAGINARY_NEAR_FIELD}, (None, None)),
    ], ids=["kept", "no-boundary"])
    def test_manifest_assembly_health(self, tmp_path, overrides, nodes):
        cfg = tiny_config(grid_nx=8, grid_ny=8, **overrides)
        run(cfg, tmp_path)
        block = json.loads((tmp_path / "manifest.json").read_text())["health"]["assembly"]
        assert (block["nodes_requested"], block["nodes_used"]) == nodes
        if nodes[1] is None:
            assert block["condition_estimate"] is None
            return
        curve = geometry.place_scatterer(geometry.BoundaryCurve(kind="kite"), cfg.ctx,
                                         cfg.scatterer_center, cfg.scatterer_size)
        system = forward.assemble_single_layer(geometry.discretize(curve, nodes[1]), cfg.ctx)
        assert block["condition_estimate"] == system.condition_estimate

    def test_seed_changes_outputs(self, tmp_path):
        run(tiny_config(seed=1), tmp_path / "a")
        run(tiny_config(seed=2), tmp_path / "b")
        assert (tmp_path / "a" / "matrix.csv").read_bytes() != (
            tmp_path / "b" / "matrix.csv"
        ).read_bytes()

    def test_matrix_csv_round_trips(self, tmp_path):
        cfg = tiny_config(seed=5)
        run(cfg, tmp_path)
        entries, fields = read_matrix_csv(tmp_path / "matrix.csv")
        assert entries.shape == (12, 12)
        assert fields["kind"] == acquisition.CROSS_CORRELATION

    @pytest.mark.parametrize("overrides, head, tail", [
        ({"matrix_kind": acquisition.NEAR_FIELD}, "kind=near-field", "L=,beta=,M="),
        ({"matrix_kind": acquisition.IMAGINARY_NEAR_FIELD}, "kind=imaginary-near-field",
         "L=,beta=,M="),
        ({}, "kind=cross-correlation", "L=16,beta=0.1,M="),
        ({"source_mode": "uniform"}, "kind=cross-correlation", "L=16,beta=None,M="),
        ({"matrix_kind": acquisition.COVARIANCE, "realizations": 50}, "kind=covariance",
         "L=16,beta=0.1,M=50"),
    ], ids=["N", "I", "C", "C-uniform", "covariance"])
    def test_matrix_csv_header(self, tmp_path, overrides, head, tail):
        manifest = run(tiny_config(seed=3, grid_nx=8, grid_ny=8, **overrides), tmp_path)
        with open(tmp_path / "matrix.csv") as fh:
            line = fh.readline()
        assert line == (
            f"# {head},J=12,k=6.2831853071795862,seed=3,delta={manifest.delta:.17g},"
            f"noise_amplitude=0.050000000000000003,{tail}\n")

    def test_write_failure_is_tagged_write(self, tmp_path):
        (tmp_path / "matrix.csv").mkdir()
        with pytest.raises(PipelineError) as err:
            run(tiny_config(), tmp_path)
        assert err.value.stage == "write"


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
        assert data["config"]["seed"] == 2

    def test_run_config_file(self, tmp_path):
        cfg = tiny_config(seed=8)
        path = tmp_path / "config.ini"
        path.write_text(cfg.to_ini())
        rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 0
        data = json.loads((tmp_path / "o" / "manifest.json").read_text())
        # JSON round trip renders tuples as lists
        assert data["config"] == json.loads(json.dumps(dataclasses.asdict(cfg)))

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
        err = capsys.readouterr().err
        assert err.startswith("error: [noise]") and "noise.amplitude > 0" in err

    # the node count doubles from 32 until it suffices or passes 2048; a
    # perimeter that overflows (scatterer.size=1e155) is infinite
    @pytest.mark.parametrize("setting", [
        "scatterer.size=100", "discretization.nodes=4096", "wave.k=300",
        "scatterer.size=1e155"])
    def test_too_many_boundary_nodes_fail_in_geometry_stage(self, tmp_path, capsys,
                                                            setting):
        tracemalloc.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = cli.main(["run", "--preset", "kite-C", "--out", str(tmp_path),
                               "--set", setting])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        assert not caught
        err = capsys.readouterr().err
        assert err.startswith("error: [geometry] ") and "needs 4096 nodes or more" in err
        # refused before the n x n system exists (268 MB at 4096 nodes)
        assert peak < 16 * 2 ** 20

    def test_too_many_receivers_fail_in_geometry_stage(self, tmp_path, capsys):
        rc = cli.main(["run", "--preset", "kite-C", "--out", str(tmp_path),
                       "--set", "receivers.count=2049"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: [geometry] receivers.count 2049 exceeds 2048, the largest "
            "matrix size the SVD takes\n")

    def test_overflowing_noise_fails_in_invert_stage(self, tmp_path, capsys):
        rc = cli.main(["run", "--preset", "kite-C", "--out", str(tmp_path),
                       "--set", "noise.amplitude=1e160", "--set", "receivers.count=12",
                       "--set", "sources.count=16"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [invert] delta = ")
        assert "overflows Morozov's discrepancy arithmetic" in err

    def test_zero_matrix_run_fails_in_noise_stage(self, tmp_path, capsys):
        rc = cli.main([
            "run", "--preset", "kite-N", "--out", str(tmp_path),
            "--set", "scatterer.kind=none",
            "--set", "receivers.count=12",
            "--set", "grid.nx=8", "--set", "grid.ny=8",
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: [noise] the matrix is zero: nothing to image\n")

    @pytest.mark.parametrize("argv, stage", [
        (["--preset", "kite-C", "--set", "noise.amplitud=0.1"], "config"),
        (["--preset", "kite-C", "--set", "grid.nx=abc"], "config"),
        (["--preset", "kite-C", "--set", "receivers.arc_min=1"], "config"),
        (["--preset", "kite-C", "--set", "foo=1"], "config"),
        (["--preset", "kite-C", "--set", "sources.mode=unifrom"], "geometry"),
        (["--preset", "kite-C", "--set", "receivers.radius=0"], "geometry"),
        (["--preset", "kite-C", "--set", "receivers.radius=1e160"], "geometry"),
        (["--preset", "kite-C", "--set", "sources.radius=1e160"], "geometry"),
        (["--preset", "point-scatterers", "--set", "scatterer.radius=nan"], "geometry"),
        (["--preset", "point-scatterers", "--set", "scatterer.radius=inf"], "geometry"),
        (["--preset", "point-scatterers", "--set", "scatterer.centers=nan,0"], "geometry"),
        (["--preset", "point-scatterers", "--set", "scatterer.centers=5,0"], "geometry"),
        (["--preset", "point-scatterers", "--set", "scatterer.radius=10"], "geometry"),
        (["--preset", "point-scatterers", "--set", "scatterer.centers=0,0;0,0"], "geometry"),
        (["--preset", "kite-C", "--set", "grid.mask_radius=-1",
          "--set", "receivers.count=12", "--set", "sources.count=16"], "geometry"),
        (["--preset", "kite-C", "--set", "grid.mask_radius=nan",
          "--set", "receivers.count=12", "--set", "sources.count=16"], "geometry"),
        (["--preset", "setup2(50)", "--set", "sources.radius=5",
          "--set", "receivers.count=12"], "geometry"),
        (["--preset", "kite-C", "--set", "matrix.kind=foo"], "geometry"),
        (["--preset", "setup2(50)", "--set", "matrix.realizations=0"], "geometry"),
        (["--preset", "torus-N"], "config"),
        (["--preset", "setup2("], "config"),
        (["--config", "missing.ini"], "config"),
    ], ids=["misspelt-key", "unparsable-int", "lone-arc_min", "override-without-key",
            "unknown-source-mode", "zero-radius", "overflowing-receiver-radius",
            "overflowing-source-radius", "point-radius-nan",
            "point-radius-inf", "point-center-nan", "point-center-on-receiver",
            "point-radius-encloses-receivers", "point-centers-coincide",
            "negative-mask-radius",
            "nan-mask-radius", "source-on-receiver", "unknown-matrix-kind",
            "zero-realizations", "unknown-preset",
            "malformed-preset", "missing-config-file"])
    def test_bad_config_exits_1_with_stage(self, tmp_path, monkeypatch, capsys,
                                           argv, stage):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--out", "o"] + argv) == 1
        assert capsys.readouterr().err.startswith(f"error: [{stage}] ")
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("name", ["torus-N", "kite-beta(x)", "setup2(",
                                      "setup2(1,2)", "kite-C(5)", "wavenumber(0)",
                                      "setup2(inf)"])
    def test_info_bad_preset_exits_1(self, capsys, name):
        assert cli.main(["info", "--preset", name]) == 1
        assert capsys.readouterr().err.startswith("error: [config] ")

    def test_set_flags_apply_together(self):
        args = cli._build_parser().parse_args([
            "run", "--preset", "kite-C",
            "--set", "receivers.arc_min=1", "--set", "receivers.arc_max=2",
        ])
        assert cli._load_config(args).receiver_arc == (1.0, 2.0)

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

    def test_unset_thread_cap_gives_one_thread(self):
        env = {k: v for k, v in os.environ.items()
               if k not in ("LSM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS")}
        code = ("import os, passivelsm.cli; print(*(os.environ.get(v) for v in "
                "('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["1", "1", "1"]
        # an explicit pool size still wins over the default
        env["OPENBLAS_NUM_THREADS"] = "2"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["1", "2", "1"]

    def test_validate_failed_criterion_exits_1(self, tmp_path, monkeypatch, capsys):
        from passivelsm import validate

        monkeypatch.setitem(validate.CRITERIA, 1, lambda: validate.CheckResult(
            1, "special functions", False, "forced to fail"))
        report_path = tmp_path / "report.json"
        assert cli.main(["validate", "--suite", "wronskian",
                         "--out", str(report_path)]) == 1
        assert "FAIL criterion  1" in capsys.readouterr().out
        assert json.loads(report_path.read_text())["passed"] is False

    def test_validate_unknown_suite(self, capsys):
        assert cli.main(["validate", "--suite", "nope"]) == 2

    def test_validate_criterion_error_propagates(self, monkeypatch):
        from passivelsm import validate

        def broken():
            raise ValueError("shape mismatch")

        monkeypatch.setitem(validate.CRITERIA, 1, broken)
        with pytest.raises(ValueError, match="shape mismatch"):
            cli.main(["validate", "--suite", "wronskian"])
