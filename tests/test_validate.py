"""The criterion registry of `validate`: suite names and the runtime budget."""

import itertools

from passivelsm import validate


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
