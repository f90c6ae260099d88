"""The criterion registry of `validate`: suite names and the runtime
budget; and the peak test of criterion 10."""

import itertools

import numpy as np
import pytest

from passivelsm import validate
from passivelsm.inversion import GridSpec, IndicatorMap, MorozovStats

from oracles import local_max_near_loop

NO_STATS = MorozovStats(probed=0, unsolvable=0, alpha_min=None, alpha_median=None,
                        alpha_max=None, newton_passes=0)


def test_suite_table():
    assert validate.SUITES == {
        "wronskian": (1,),
        "mie": (2,),
        "hk": (3,),
        "bridge": (4,),
        "quadrature": (5,),
        "beta": (6,),
        "morozov": (7,),
        "svd": (8,),
        "contrast": (9,),
        "point-scatterers": (10,),
        "setup2": (11,),
        "wavenumber": (12,),
        "determinism": (13,),
        "all": tuple(range(1, 14)),
    }
    assert list(validate.CRITERIA) == list(range(1, 14))


def test_over_budget_criterion_fails(monkeypatch):
    clock = itertools.count(0.0, 2.0)   # every reading 2 s after the last
    monkeypatch.setattr(validate.time, "perf_counter", lambda: next(clock))
    result = validate.criterion_1_special_functions()
    assert result.seconds == 2.0
    assert result.measured["wronskian"] < 1e-10
    assert not result.passed


class TestLocalMaxNear:
    def test_finds_a_peak_one_cell_away_on_oblong_cells(self):
        # dx = 0.1, dy = 0.2 = grid.cell: the peak at (0.7, 1.0) is one cell
        # from (0.5, 1.0), but two x steps away
        values = np.ones((11, 11))
        values[7, 5] = 0.5
        imap = IndicatorMap(GridSpec(0.0, 1.0, 0.0, 2.0, 11, 11), values, NO_STATS)
        assert imap.grid.cell == pytest.approx(0.2)
        assert validate.has_local_max_near(imap, (0.5, 1.0))
        assert not local_max_near_loop(imap, (0.5, 1.0))
        assert not validate.has_local_max_near(imap, (0.4, 1.0))

    def test_agrees_with_the_cell_loop_on_square_cells(self):
        rng = np.random.default_rng(3)
        found = []
        for _ in range(300):
            nx, ny = rng.integers(2, 16, size=2)
            step = rng.choice([0.25, 0.5, 1.0])
            grid = GridSpec(-1.0, -1.0 + step * (nx - 1), 2.0, 2.0 + step * (ny - 1), nx, ny)
            values = rng.uniform(0.5, 2.0, (nx, ny)) * (rng.random((nx, ny)) > 0.2)
            imap = IndicatorMap(grid, values, NO_STATS)
            point = rng.uniform([-1.5, 1.5], [step * nx - 0.5, 2.5 + step * ny])
            cells = rng.choice([0.5, 1.0, 1.5, 2.0, 2.7])
            found.append(validate.has_local_max_near(imap, point, cells))
            assert found[-1] == local_max_near_loop(imap, point, cells)
        assert 50 < sum(found) < 250
