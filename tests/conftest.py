import numpy as np
import pytest

from vplandau.grid import PhaseGrid, SpatialGrid, VelocityGrid
from vplandau.oracle import random_bandlimited_v  # noqa: F401 (re-exported)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def desk_grid():
    """The standard desk-scale phase grid (1-D x, 16^3 velocity box)."""
    return PhaseGrid(SpatialGrid(1, 16), VelocityGrid(16, 8.0))


@pytest.fixture
def clean_grid():
    """Velocity grid fine/wide enough that moment-truncation error is
    below the strictest projection tolerances (h = 0.625, L = 10)."""
    return PhaseGrid(SpatialGrid(1, 8), VelocityGrid(32, 10.0))


@pytest.fixture
def small_grid():
    """Cheap grid for dynamics smoke tests."""
    return PhaseGrid(SpatialGrid(1, 8), VelocityGrid(16, 8.0))
