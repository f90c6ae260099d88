"""The CSV writers against np.savetxt on the same columns, and the memory
and the returned digest of each writer."""
import hashlib
import tracemalloc

import numpy as np
import pytest

from passivelsm import acquisition, inversion
from passivelsm.geometry import circle_points
from passivelsm.inversion import GridSpec, IndicatorMap, MorozovStats

from oracles import savetxt_csv

# tracemalloc peak of a CSV writer: it formats one matrix row or grid line
# at a time, so the bound holds at J = 200 and 400 and on 100 x 100 and
# 100 x 400 grids, where one whole-grid float64 array is 80 KB and 320 KB
CSV_PEAK_BYTES = 128 * 1024
# the graymap forms its whole raster: one float64 and two uint8 arrays
PGM_PEAK_BYTES_PER_CELL = 10
PGM_PEAK_SLACK = 16 * 1024


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
    """A map with values 0 on its masked-out cells."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(-6.1, 5.3, -4.7, 6.9, nx, ny)
    mask = rng.random((nx, ny)) > 0.3
    values = np.where(mask, rng.uniform(1e-3, 50.0, (nx, ny)), 0.0)
    stats = MorozovStats(probed=int(mask.sum()), unsolvable=0, alpha_min=None,
                         alpha_median=None, alpha_max=None, newton_passes=0)
    return IndicatorMap(grid=grid, values=values, morozov=stats)


def made_map(nx, ny):
    """masked_map with its mask and reciprocal already made, as a run makes
    them once, before any writer reads them."""
    imap = masked_map(nx, ny)
    imap.mask, imap.reciprocal
    return imap


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
    """One matrix row or grid line is formatted at a time, never the table,
    and each block is hashed as it is written, not read back."""

    @pytest.mark.parametrize("write, data, bound", [
        (acquisition.write_matrix_csv, lambda: field_matrix(random_matrix(200)),
         CSV_PEAK_BYTES),
        (inversion.write_indicator_csv, lambda: made_map(100, 100), CSV_PEAK_BYTES),
        (inversion.write_indicator_raw_csv, lambda: made_map(100, 100), CSV_PEAK_BYTES),
        (inversion.write_indicator_pgm, lambda: made_map(100, 100),
         PGM_PEAK_BYTES_PER_CELL * 100 * 100 + PGM_PEAK_SLACK),
        (acquisition.write_matrix_csv, lambda: field_matrix(random_matrix(400)),
         CSV_PEAK_BYTES),
        (inversion.write_indicator_csv, lambda: made_map(100, 400), CSV_PEAK_BYTES),
        (inversion.write_indicator_raw_csv, lambda: made_map(100, 400), CSV_PEAK_BYTES),
        (inversion.write_indicator_pgm, lambda: made_map(100, 400),
         PGM_PEAK_BYTES_PER_CELL * 100 * 400 + PGM_PEAK_SLACK),
    ], ids=["matrix_csv", "indicator_csv", "indicator_raw_csv", "indicator_pgm",
            "matrix_csv-400", "indicator_csv-100x400", "indicator_raw_csv-100x400",
            "indicator_pgm-100x400"])
    def test_returns_the_digest_of_the_bytes_written(self, tmp_path, write, data, bound):
        data = data()
        path = tmp_path / "out"
        digests = []
        peak = traced_peak(lambda: digests.append(write(data, path)))
        assert digests == [hashlib.sha256(path.read_bytes()).hexdigest()]
        assert peak < bound
