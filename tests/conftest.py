import os
from pathlib import Path

import pytest

from facetail import ExponentMeasure


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def child_env() -> dict:
    """Environment for a child Python process: this one's, with the source
    tree first on PYTHONPATH, so the child imports the facetail under test
    without an install."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture
def m_ind() -> ExponentMeasure:
    """Two axis atoms: fully independent coordinates, unit margins."""
    return ExponentMeasure(2, [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])


@pytest.fixture
def m_dep() -> ExponentMeasure:
    """One diagonal atom: comonotone coordinates, unit margins."""
    return ExponentMeasure(2, [[0.5, 0.5]], [2.0])


@pytest.fixture
def m_blk() -> ExponentMeasure:
    """Block structure {1,2} | {3} in three dimensions, unit margins."""
    return ExponentMeasure(3, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], [2.0, 1.0])
