import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from passivelsm import geometry, pipeline
from passivelsm.specfun import WaveContext


@pytest.fixture(autouse=True)
def no_kept_system():
    """Each test starts with no single-layer system kept by an earlier run."""
    pipeline._SYSTEMS.clear()


@pytest.fixture(scope="session")
def ctx():
    return WaveContext(k=2.0 * np.pi)


@pytest.fixture
def tree_builds(monkeypatch):
    """A list that gains one entry per cKDTree the geometry module builds."""
    built = []
    tree_class = geometry.scipy.spatial.cKDTree

    def counting(*args, **kwargs):
        built.append(1)
        return tree_class(*args, **kwargs)

    monkeypatch.setattr(geometry.scipy.spatial, "cKDTree", counting)
    return built
