"""The CSV writers against np.savetxt on the same columns, and the memory
of writing and hashing the outputs."""
import hashlib
import tracemalloc

import numpy as np
import pytest

from passivelsm import acquisition, inversion, pipeline
from passivelsm.geometry import circle_points
from passivelsm.inversion import GridSpec, IndicatorMap, MorozovStats

from oracles import savetxt_csv

# tracemalloc peak a streaming writer stays under at J = 200 or 100 x 100
STREAM_PEAK_BYTES = 256 * 1024


def field_matrix(entries):
    return acquisition.FieldMatrix(
        entries=entries, kind=acquisition.NEAR_FIELD,
        receivers=circle_points(5.0, entries.shape[0]), k=2 * np.pi, delta=0.05)


def random_matrix(j, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j))
    # extreme magnitudes, a negative zero and an exact integer
    a.flat[:4] = [1e-300 - 0.0j, -1e300 + 3j, complex(-0.0, 2.5), 7.0]
    return a


def masked_map(nx, ny, seed=0):
    """A map with values and reciprocal 0 on its masked-out cells."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(-6.1, 5.3, -4.7, 6.9, nx, ny)
    mask = rng.random((nx, ny)) > 0.3
    values = np.where(mask, rng.uniform(1e-3, 50.0, (nx, ny)), 0.0)
    reciprocal = np.where(mask, rng.random((nx, ny)), 0.0)
    stats = MorozovStats(probed=int(mask.sum()), unsolvable=0, alpha_min=None,
                         alpha_median=None, alpha_max=None, newton_passes=0)
    return IndicatorMap(grid=grid, values=values, reciprocal=reciprocal, mask=mask,
                        norm_min=0.0, norm_max=1.0, morozov=stats)


def traced_peak(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMatrixCsvBytes:
    @pytest.mark.parametrize("layout", ["C", "transposed", "fortran"])
    @pytest.mark.parametrize("j", [1, 7])
    def test_matches_savetxt(self, tmp_path, j, layout):
        a = random_matrix(j)
        entries = {"C": a, "transposed": a.T, "fortran": np.asfortranarray(a)}[layout]
        assert entries.flags.c_contiguous == (layout == "C" or j == 1)
        acquisition.write_matrix_csv(field_matrix(entries), tmp_path / "new.csv")
        header = (tmp_path / "new.csv").read_text().splitlines()[0]
        savetxt_csv(tmp_path / "old.csv", (entries.real, entries.imag), header)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestIndicatorCsvBytes:
    @pytest.mark.parametrize("nx, ny", [(12, 10), (1, 9), (9, 1), (1, 1)])
    def test_matches_savetxt(self, tmp_path, nx, ny):
        imap = masked_map(nx, ny)
        assert nx * ny == 1 or 0 < imap.mask.sum() < nx * ny
        xx, yy = np.meshgrid(*imap.grid.axes())
        inversion.write_indicator_csv(imap, tmp_path / "new.csv")
        savetxt_csv(tmp_path / "old.csv",
                    (xx, yy, imap.values.T, imap.reciprocal.T, imap.mask.T),
                    "x,y,raw,reciprocal,mask", fmt=["%.17g"] * 4 + ["%d"])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        inversion.write_indicator_raw_csv(imap, tmp_path / "new_raw.csv")
        savetxt_csv(tmp_path / "old_raw.csv", (xx, yy, imap.values.T, imap.mask.T),
                    "x,y,value,mask", fmt=["%.17g"] * 3 + ["%d"])
        assert (tmp_path / "new_raw.csv").read_bytes() == (
            tmp_path / "old_raw.csv").read_bytes()


class TestStreamingMemory:
    """One matrix row or grid line is formatted at a time, never the table."""

    def test_matrix_csv(self, tmp_path):
        matrix = field_matrix(random_matrix(200))
        peak = traced_peak(lambda: acquisition.write_matrix_csv(matrix, tmp_path / "m.csv"))
        assert peak < STREAM_PEAK_BYTES

    def test_indicator_csv(self, tmp_path):
        imap = masked_map(100, 100)
        peak = traced_peak(lambda: inversion.write_indicator_csv(imap, tmp_path / "i.csv"))
        assert peak < STREAM_PEAK_BYTES

    def test_output_digest_is_streamed(self, tmp_path):
        data = np.random.default_rng(0).bytes(2 * 1024 * 1024)
        path = tmp_path / "out.bin"
        path.write_bytes(data)
        assert pipeline._sha256(path) == hashlib.sha256(data).hexdigest()
        del data
        assert traced_peak(lambda: pipeline._sha256(path)) < STREAM_PEAK_BYTES
