import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.spatial.distance
import scipy.special

from passivelsm import acquisition, forward, geometry
from passivelsm.acquisition import (
    CROSS_CORRELATION,
    IMAGINARY_NEAR_FIELD,
    NEAR_FIELD,
    add_noise,
    covariance_matrix,
    cross_correlation_matrix,
    imaginary_bracket,
    imaginary_near_field_matrix,
    near_field_matrix,
    read_matrix_csv,
    write_matrix_csv,
)
from passivelsm.geometry import BoundaryCurve, circle_points, discretize, place_scatterer
from passivelsm.seeding import substream

from oracles import covariance_outer_loop, singular_values_power_iteration


@pytest.fixture(scope="module")
def kite_system(ctx):
    curve = place_scatterer(BoundaryCurve(kind="kite"), ctx, (2.0, 2.0), 0.5)
    return forward.assemble_single_layer(discretize(curve, 256), ctx)


@pytest.fixture(scope="module")
def receivers():
    return circle_points(5.0, 16, role=geometry.ROLE_RECEIVER)


@pytest.fixture(scope="module")
def nf(kite_system, receivers):
    return near_field_matrix(receivers, kite_system)


@pytest.fixture(scope="module")
def imf(nf):
    return imaginary_near_field_matrix(nf)


SIGMA_LENGTH = 2 * np.pi * 50.0


def make_sources(count, beta=0.0, seed=0):
    return circle_points(50.0, count, beta=beta, seed=seed,
                         role=geometry.ROLE_RANDOM_SOURCE)


class TestNearField:
    def test_symmetric_by_reciprocity(self, nf):
        e = nf.entries
        assert np.linalg.norm(e - e.T) / np.linalg.norm(e) < 1e-6

    def test_empty_scatterer_gives_zero(self, ctx, receivers):
        system = forward.assemble_single_layer((), ctx)
        n = near_field_matrix(receivers, system)
        assert np.all(n.entries == 0)

    def test_kind_and_shape(self, nf, receivers):
        assert nf.kind == NEAR_FIELD
        assert nf.entries.shape == (receivers.count, receivers.count)
        assert nf.delta == 0.0


class TestPointScattererNearField:
    def test_matches_columnwise_born_field_and_is_symmetric(self, ctx, receivers):
        model = forward.PointScatterers(
            [[-2.0, -2.0], [2.0, 2.0], [2.0, -2.0]], [0.01, 0.02, 0.01], ctx
        )
        e = near_field_matrix(receivers, model).entries
        pts = receivers.points
        ref = np.column_stack([
            model.scattered(pts, pts[m])[:, 0]
            for m in range(len(pts))
        ])
        assert np.abs(e - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.abs(e - e.T).max() <= 1e-13 * np.abs(e).max()


class TestImaginaryNearField:
    def test_is_twice_imaginary_part(self, nf, imf):
        np.testing.assert_allclose(imf.entries, 2j * nf.entries.imag, atol=1e-15)

    def test_entrywise_antihermitian(self, imf):
        np.testing.assert_allclose(imf.entries + np.conj(imf.entries), 0.0,
                                   atol=1e-15)

    def test_norm_bound(self, nf, imf):
        assert np.linalg.norm(imf.entries) <= 2 * np.linalg.norm(nf.entries) + 1e-15

    def test_skew_hermitian(self, imf):
        e = imf.entries
        assert np.linalg.norm(e + e.conj().T) / np.linalg.norm(e) < 1e-6

    def test_kind_check(self, imf):
        with pytest.raises(ValueError):
            imaginary_near_field_matrix(imf)


class TestCrossCorrelation:
    def test_approximates_imaginary_near_field(self, kite_system, receivers, imf):
        c = cross_correlation_matrix(receivers, make_sources(80), SIGMA_LENGTH,
                                     kite_system)
        rel = np.linalg.norm(c.entries - imf.entries) / np.linalg.norm(imf.entries)
        assert rel < 0.05

    def test_no_scatterer_gives_near_zero(self, ctx, receivers):
        system = forward.assemble_single_layer((), ctx)
        c = cross_correlation_matrix(receivers, make_sources(80), SIGMA_LENGTH,
                                     system)
        bracket = imaginary_bracket(ctx, receivers)
        assert np.linalg.norm(c.entries) < 0.02 * np.linalg.norm(bracket)

    def test_scaled_and_shifted_in_place_bitwise(self, ctx, kite_system, receivers):
        """gram *= prefactor; gram -= bracket is prefactor * gram - bracket."""
        sources = make_sources(24, beta=0.2, seed=3)
        c = cross_correlation_matrix(receivers, sources, SIGMA_LENGTH, kite_system)
        u = forward.total_field_matrix(kite_system, receivers.points, sources.points)
        prefactor = 2j * ctx.k * SIGMA_LENGTH / 24
        ref = prefactor * (np.conj(u) @ u.T) - imaginary_bracket(ctx, receivers)
        assert c.entries.tobytes() == ref.tobytes()

    def test_nearly_skew_hermitian(self, kite_system, receivers):
        c = cross_correlation_matrix(receivers, make_sources(80), SIGMA_LENGTH,
                                     kite_system)
        e = c.entries
        assert np.linalg.norm(e + e.conj().T) / np.linalg.norm(e) < 0.1

    def test_beta_degrades_and_more_sources_recover(self, kite_system, receivers,
                                                    imf):
        def mean_err(beta, count):
            errs = []
            for seed in range(5):
                c = cross_correlation_matrix(
                    receivers, make_sources(count, beta=beta, seed=seed),
                    SIGMA_LENGTH, kite_system,
                )
                errs.append(np.linalg.norm(c.entries - imf.entries)
                            / np.linalg.norm(imf.entries))
            return np.mean(errs)

        e03 = mean_err(0.3, 80)
        e09 = mean_err(0.9, 80)
        e09_l200 = mean_err(0.9, 200)
        assert e03 < e09
        assert e09_l200 < e03


@pytest.mark.parametrize("kind", ["C", "covariance"])
def test_kite_matrix_builds_one_polygon_tree(ctx, receivers, tree_builds, kind):
    """The clearance check, the source check and the near/far split of
    one matrix all query the one k-d tree cached on the kite."""
    curve = place_scatterer(BoundaryCurve(kind="kite"), ctx, (2.0, 2.0), 0.5)
    system = forward.assemble_single_layer(discretize(curve, 64), ctx)
    sources = make_sources(24)
    if kind == "C":
        cross_correlation_matrix(receivers, sources, SIGMA_LENGTH, system)
    else:
        covariance_matrix(receivers, sources, SIGMA_LENGTH, 8, 0, system)
    assert len(tree_builds) == 1


class TestBracket:
    def test_equals_the_out_of_place_expression_bitwise(self, ctx, receivers):
        pts = receivers.points
        ref = 0.5j * scipy.special.j0(ctx.k * scipy.spatial.distance.cdist(pts, pts))
        assert imaginary_bracket(ctx, receivers).tobytes() == ref.tobytes()

    def test_diagonal_is_half_i(self, ctx, receivers):
        b = imaginary_bracket(ctx, receivers)
        np.testing.assert_allclose(np.diag(b), 0.5j, atol=1e-14)

    def test_purely_imaginary(self, ctx, receivers):
        b = imaginary_bracket(ctx, receivers)
        np.testing.assert_allclose(b.real, 0.0, atol=1e-14)


class TestCovariance:
    # The exact M -> infinity limit of the covariance matrix is the
    # TRANSPOSE of the same-source cross-correlation matrix (the two
    # formulas conjugate opposite factors); both tend to the symmetric
    # imaginary near-field matrix, so they agree once the source
    # quadrature is resolved, but at a tiny L only the transpose
    # identity is exact.

    def test_large_m_matches_cross_correlation_limit(self, ctx):
        # tiny configuration so 10^4 realizations stay cheap
        curve = place_scatterer(BoundaryCurve(kind="kite"), ctx, (2.0, 2.0), 0.5)
        system = forward.assemble_single_layer(discretize(curve, 64), ctx)
        recv = circle_points(5.0, 8)
        sources = make_sources(8)
        m = 10_000
        limit = cross_correlation_matrix(recv, sources, SIGMA_LENGTH, system)
        cov = covariance_matrix(recv, sources, SIGMA_LENGTH, m, 123, system)
        rel = (np.linalg.norm(cov.entries - limit.entries.T)
               / np.linalg.norm(limit.entries))
        assert rel < 3.0 / np.sqrt(m)

    def test_transpose_discrepancy_vanishes_when_resolved(self, kite_system,
                                                          receivers):
        # at a resolved source count the two limits (C and C transposed)
        # coincide, so comparing the covariance against C itself is sound
        sources = make_sources(80)
        c = cross_correlation_matrix(receivers, sources, SIGMA_LENGTH,
                                     kite_system).entries
        assert np.linalg.norm(c - c.T) / np.linalg.norm(c) < 0.01

    def test_error_decays_with_m(self, ctx):
        curve = place_scatterer(BoundaryCurve(kind="kite"), ctx, (2.0, 2.0), 0.5)
        system = forward.assemble_single_layer(discretize(curve, 64), ctx)
        recv = circle_points(5.0, 8)
        sources = make_sources(8)
        limit = cross_correlation_matrix(recv, sources, SIGMA_LENGTH,
                                         system).entries.T

        def mean_err(m):
            errs = []
            for seed in range(10):
                cov = covariance_matrix(recv, sources, SIGMA_LENGTH, m, seed,
                                        system)
                errs.append(np.linalg.norm(cov.entries - limit)
                            / np.linalg.norm(limit))
            return np.mean(errs)

        assert mean_err(800) < mean_err(200)

    @pytest.mark.parametrize("m", [1, 127, 128, 129, 300])
    def test_matches_per_realization_loop(self, ctx, kite_system, receivers, m):
        # the blocked product must feed realization r the r-th 2L normals of
        # the one (seed, "covariance-noise") stream, also across block edges
        sources = make_sources(20, beta=0.3, seed=4)
        cov = covariance_matrix(receivers, sources, SIGMA_LENGTH, m, 7, kite_system)
        u = forward.total_field_matrix(kite_system, receivers.points, sources.points)
        ref = (covariance_outer_loop(u, ctx.k, SIGMA_LENGTH, m, 7)
               - imaginary_bracket(ctx, receivers))
        assert np.abs(cov.entries - ref).max() <= 1e-13 * np.abs(ref).max()

        c = cross_correlation_matrix(receivers, sources, SIGMA_LENGTH, kite_system)
        assert (sources.count, sources.beta, sources.seed) == (20, 0.3, 4)
        for matrix, realizations in ((cov, m), (c, None)):
            assert matrix.k == ctx.k and matrix.receivers is receivers
            assert matrix.sources is sources and matrix.realizations == realizations
            assert (matrix.noise_amplitude, matrix.noise_seed, matrix.delta) == (0.0, None, 0.0)

    @pytest.mark.parametrize("block", [1, 7, 128])
    def test_draws_do_not_depend_on_the_block(self, monkeypatch, kite_system,
                                              receivers, block):
        sources = make_sources(20, beta=0.3, seed=4)
        ref = covariance_matrix(receivers, sources, SIGMA_LENGTH, 300, 7,
                                kite_system).entries
        monkeypatch.setattr(acquisition, "REALIZATION_BLOCK", block)
        cov = covariance_matrix(receivers, sources, SIGMA_LENGTH, 300, 7, kite_system)
        assert np.abs(cov.entries - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_one_substream_per_matrix(self, monkeypatch, kite_system, receivers):
        calls = []

        def counted(*args):
            calls.append(args)
            return substream(*args)

        monkeypatch.setattr(acquisition, "substream", counted)
        covariance_matrix(receivers, make_sources(20), SIGMA_LENGTH, 300, 7, kite_system)
        assert calls == [(7, "covariance-noise")]

    def test_single_realization_is_rank_one(self, ctx):
        system = forward.assemble_single_layer((), ctx)
        recv = circle_points(5.0, 8)
        sources = make_sources(8)
        cov = covariance_matrix(recv, sources, SIGMA_LENGTH, 1, 5, system)
        statistical = cov.entries + imaginary_bracket(ctx, recv)
        s = np.linalg.svd(statistical, compute_uv=False)
        assert s[1] / s[0] < 1e-12


def _traced_peak(build):
    """Peak traced bytes above the start while `build()` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestSourceBlocks:
    def test_cross_correlation_peak_is_flat_in_sources(self, kite_system, receivers):
        # each block's field is dropped before the next is made and the
        # J x J sum is accumulated in place, so more blocks add nothing; the
        # n x L right-hand sides and the (J, L) field never exist
        block = acquisition.SOURCE_BLOCK
        cross_correlation_matrix(receivers, make_sources(8), SIGMA_LENGTH, kite_system)
        one, many = make_sources(block), make_sources(8 * block)
        peak_one = _traced_peak(lambda: cross_correlation_matrix(
            receivers, one, SIGMA_LENGTH, kite_system))
        peak_many = _traced_peak(lambda: cross_correlation_matrix(
            receivers, many, SIGMA_LENGTH, kite_system))
        assert peak_many <= peak_one + 16 * 1024

    def test_covariance_peak_is_its_field_and_fixed_block_terms(self, kite_system,
                                                                 receivers):
        # the (J, L) field, 16 J L B kept as its source blocks, is the only
        # array that grows with L; on top comes at most one block's build
        # (the C peak at L = SOURCE_BLOCK), with no fill copy
        j, block = receivers.count, acquisition.SOURCE_BLOCK
        count = 4 * block
        cross_correlation_matrix(receivers, make_sources(8), SIGMA_LENGTH, kite_system)
        one, many = make_sources(block), make_sources(count)
        peak_one = _traced_peak(lambda: cross_correlation_matrix(
            receivers, one, SIGMA_LENGTH, kite_system))
        peak = _traced_peak(lambda: covariance_matrix(
            receivers, many, SIGMA_LENGTH, 300, 7, kite_system))
        assert peak <= 16 * j * count + peak_one

    @pytest.mark.parametrize("kind", ["C", "covariance"])
    def test_blocks_match_one_block(self, monkeypatch, kite_system, receivers, kind):
        # 600 sources are three blocks, the last one partial; the covariance
        # also draws 54 realizations per block instead of 128
        sources = make_sources(600, beta=0.3, seed=4)

        def build():
            if kind == "C":
                return cross_correlation_matrix(receivers, sources, SIGMA_LENGTH,
                                                 kite_system).entries
            return covariance_matrix(receivers, sources, SIGMA_LENGTH, 300, 7,
                                     kite_system).entries

        blocked = build()
        monkeypatch.setattr(acquisition, "SOURCE_BLOCK", 1000)
        ref = build()
        assert np.abs(blocked - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_covariance_frees_its_field_before_the_bracket(self, kite_system):
        # one block at J = L = 200: the Gram sums take no product temporary,
        # and the field and the last realization block are gone before the
        # bracket is built (4.9 J x J complex arrays when they were not)
        j = 200
        recv = circle_points(5.0, j, role=geometry.ROLE_RECEIVER)
        sources = make_sources(j)
        covariance_matrix(recv, make_sources(8), SIGMA_LENGTH, 8, 1, kite_system)
        peak = _traced_peak(lambda: covariance_matrix(
            recv, sources, SIGMA_LENGTH, 200, 1, kite_system))
        assert peak <= 4.5 * 16 * j * j

    @pytest.mark.parametrize("kind", ["C", "covariance"])
    @pytest.mark.parametrize("count", [20, 600])
    def test_correlation_is_exactly_skew_hermitian(self, kite_system, receivers, kind,
                                                   count):
        # the Gram sum is mirrored from one triangle, and the prefactor
        # (2ik|Sigma|/L or 2ik/M) and the bracket are purely imaginary
        sources = make_sources(count)
        if kind == "C":
            entries = cross_correlation_matrix(receivers, sources, SIGMA_LENGTH,
                                               kite_system).entries
        else:
            entries = covariance_matrix(receivers, sources, SIGMA_LENGTH, 300, 7,
                                        kite_system).entries
        assert entries.flags.c_contiguous
        assert np.array_equal(entries, -entries.conj().T)


class TestAddNoise:
    def test_zero_amplitude_identity(self, imf):
        noisy = add_noise(imf, 0.0, seed=9)
        np.testing.assert_array_equal(noisy.entries, imf.entries)
        assert noisy.delta == 0.0

    def test_delta_is_spectral_norm(self, imf):
        noisy = add_noise(imf, 5e-2, seed=9)
        e = noisy.entries - imf.entries
        ref = singular_values_power_iteration(e, iters=4000)[0]
        assert noisy.delta == pytest.approx(ref, abs=1e-10 * max(ref, 1.0))

    def test_deterministic_in_seed(self, imf):
        a = add_noise(imf, 5e-2, seed=9)
        b = add_noise(imf, 5e-2, seed=9)
        np.testing.assert_array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, add_noise(imf, 5e-2, seed=10).entries)

    def test_frobenius_energy_statistics(self, imf):
        # E ||E||_F^2 = amp^2 max|entries|^2 J^2; check within 3 sigma over 50 seeds
        amp = 5e-2
        j = imf.size
        scale2 = (amp * np.abs(imf.entries).max()) ** 2
        samples = []
        for seed in range(50):
            e = add_noise(imf, amp, seed=seed).entries - imf.entries
            samples.append(np.linalg.norm(e) ** 2)
        mean = np.mean(samples)
        expected = scale2 * j * j
        sigma_mean = scale2 * j / np.sqrt(50)
        assert abs(mean - expected) < 3 * sigma_mean

    def test_rejects_negative_amplitude(self, imf):
        with pytest.raises(ValueError):
            add_noise(imf, -0.1, seed=0)

    @pytest.mark.parametrize("amplitude", [5e-2, 1e20])
    def test_equals_the_out_of_place_expression_bitwise(self, imf, amplitude):
        noisy = add_noise(imf, amplitude, seed=9)
        j = imf.size
        g = substream(9, "measurement-noise").standard_normal((2, j, j))
        scale = amplitude * float(np.abs(imf.entries).max())
        noise = scale * (g[0] + 1j * g[1]) / np.sqrt(2.0)
        assert noisy.entries.tobytes() == (imf.entries + noise).tobytes()
        assert noisy.delta == float(np.linalg.norm(noise, 2))

    def test_noise_beyond_double_range_is_rejected_by_amplitude(self, imf):
        # max|entries| = 1, so every draw beyond 1.06 in size overflows
        unit = replace(imf, entries=imf.entries / np.abs(imf.entries).max())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"noise amplitude 1\.7e\+308 overflows"):
                add_noise(unit, 1.7e308, seed=0)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, imf, tmp_path):
        noisy = add_noise(imf, 5e-2, seed=4)
        path = tmp_path / "matrix.csv"
        write_matrix_csv(noisy, path)
        entries, fields = read_matrix_csv(path)
        np.testing.assert_array_equal(entries, noisy.entries)
        assert fields["kind"] == IMAGINARY_NEAR_FIELD
        assert int(fields["J"]) == noisy.size
        assert float(fields["delta"]) == noisy.delta
