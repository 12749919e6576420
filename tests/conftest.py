import numpy as np
import pytest

from lambdafield import GridGeometry, LambdaGrid, PathCrossing, SensorModel


@pytest.fixture
def geometry():
    return GridGeometry(0.0, 0.0, 0.1, 40, 40)


@pytest.fixture
def sensor():
    return SensorModel(p_hit=0.99, p_miss=0.9999, error_area=0.04, max_range=10.0)


@pytest.fixture
def grid(geometry, sensor):
    return LambdaGrid(geometry, sensor)


@pytest.fixture
def observed_free_grid(geometry, sensor):
    """Field where every cell has been seen free many times."""
    g = LambdaGrid(geometry, sensor)
    g.misses[:] = 100
    return g


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def counts_grid(hits, misses, sensor=None):
    """A one-row ``LambdaGrid`` whose cell i has hits[i] and misses[i]."""
    hits, misses = np.atleast_1d(hits), np.atleast_1d(misses)
    grid = LambdaGrid(GridGeometry(0.0, 0.0, 1.0, len(hits), 1),
                      sensor or SensorModel())
    grid.hits[:], grid.misses[:] = hits, misses
    return grid


def flat(geo, col, row):
    """Flat index of cell (col, row): row-major, as the package numbers cells."""
    return row * geo.n_cols + col


def crossing_of(lambdas, areas):
    """A crossing of cells 0..n-1 with the given intensities as all three
    estimates and the given crossed areas."""
    lam = np.asarray(lambdas, dtype=np.float64)
    return PathCrossing(np.arange(len(lam)), areas, lam, lam.copy(), lam.copy())
