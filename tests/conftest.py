import numpy as np
import pytest

from funcbo import bench
from funcbo.gridfn import GridFunction, GridSpec

GRID_1D = GridSpec(1, 100)


@pytest.fixture(autouse=True)
def _no_live_engine():
    """Each test starts as a new process does: no session engine is live."""
    bench._take_live(None)


def random_grid_function(rng, spec=GRID_1D, scale=1.0) -> GridFunction:
    return GridFunction(spec, scale * rng.standard_normal(spec.size))


def short_grid_function(*values) -> GridFunction:
    """The function with these values on a 1-d grid of as many points.  Its
    squared l2grid distance to another is their squared Euclidean distance
    times the grid weight 1/len(values), so on a one-point grid an l2grid
    model is the scalar GP on the coordinates."""
    return GridFunction(GridSpec(1, len(values)), np.array(values, dtype=float))


def smooth_grid_function(rng, spec=GRID_1D, waves=3) -> GridFunction:
    """Random low-frequency function; nicer-conditioned than white noise."""
    from funcbo.gridfn import grid_coordinates

    x = grid_coordinates(spec)[:, 0] if spec.dim == 1 else grid_coordinates(spec).sum(axis=1)
    values = np.zeros(spec.size)
    for k in range(1, waves + 1):
        values += rng.standard_normal() / k * np.sin(2 * np.pi * k * x)
        values += rng.standard_normal() / k * np.cos(2 * np.pi * k * x)
    return GridFunction(spec, values)
