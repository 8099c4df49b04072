"""Grid-sampled functions on the unit hypercube.

A function g: [0,1]^m -> R is stored as its values on a uniform grid of
cell centers, rho points per axis, so every point carries the same
histogram quadrature weight tau^m (tau = 1/rho).  All L2 quantities are
midpoint sums under that weight: the squared distance and the inner
product that the objectives take.  Values are immutable after
construction, which makes cached basis evaluations safe to share.
Functions are read from and written to CSV files bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import InputError, ShapeError

MAX_DIM = 3


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-center grid on [0,1]^dim with points_per_axis per axis."""

    dim: int
    points_per_axis: int

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise InputError(f"grid dim must be in 1..{MAX_DIM}, got {self.dim}")
        if self.points_per_axis < 1:
            raise InputError(f"points_per_axis must be >= 1, got {self.points_per_axis}")

    @property
    def spacing(self) -> float:
        return 1.0 / self.points_per_axis

    @property
    def size(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def weight(self) -> float:
        """Quadrature weight of one grid point: spacing**dim."""
        return self.spacing**self.dim


@lru_cache(maxsize=16)
def grid_coordinates(spec: GridSpec) -> np.ndarray:
    """Cell-center coordinates, shape (size, dim), C-ordered (last axis fastest)."""
    axis = (np.arange(spec.points_per_axis) + 0.5) * spec.spacing
    if spec.dim == 1:
        coords = axis[:, None]
    else:
        mesh = np.meshgrid(*([axis] * spec.dim), indexing="ij")
        coords = np.stack([m.ravel() for m in mesh], axis=1)
    coords.setflags(write=False)
    return coords


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A function represented by its values at the grid points of `spec`."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.spec.size,):
            raise ShapeError(
                f"expected {self.spec.size} values for {self.spec}, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise InputError("grid function values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _check_same_spec(a: GridFunction, b: GridFunction) -> None:
    if a.spec != b.spec:
        raise ShapeError(f"grid mismatch: {a.spec} vs {b.spec}")


def l2_dist_sq(g: GridFunction, h: GridFunction) -> float:
    """Squared L2 distance by midpoint quadrature: sum (g-h)^2 * tau^m."""
    _check_same_spec(g, h)
    diff = g.values - h.values
    return float(np.dot(diff, diff) * g.spec.weight)


def l2_inner(g: GridFunction, h: GridFunction) -> float:
    """Quadrature inner product sum g*h * tau^m."""
    _check_same_spec(g, h)
    return float(np.dot(g.values, h.values) * g.spec.weight)


# --- CSV serialisation -------------------------------------------------
# One grid value per row; coordinates written explicitly so the file is
# plottable without knowing the GridSpec.  Floats use repr() so a
# round-trip is bit exact.


@lru_cache(maxsize=16)
def _coordinate_text(spec: GridSpec) -> tuple[str, tuple[str, ...]]:
    """The header line and each row's coordinates up to its value, once per grid."""
    header = ",".join(f"x{k}" for k in range(spec.dim)) + ",value"
    rows = tuple(",".join(map(repr, row)) + "," for row in grid_coordinates(spec).tolist())
    return header, rows


def write_function_csv(g: GridFunction, path) -> None:
    header, rows = _coordinate_text(g.spec)
    lines = (row + repr(value) for row, value in zip(rows, g.values.tolist()))
    Path(path).write_text(header + "\n" + "\n".join(lines) + "\n")


def read_function_csv(path) -> GridFunction:
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise InputError(f"empty function file: {path}")
    header = lines[0].split(",")
    dim = len(header) - 1
    if dim < 1 or header[-1] != "value" or any(h != f"x{k}" for k, h in enumerate(header[:-1])):
        raise InputError(f"bad function CSV header: {lines[0]!r}")
    n = len(lines) - 1
    rho = round(n ** (1.0 / dim))
    if rho**dim != n:
        raise InputError(f"{n} rows is not a full {dim}-d grid")
    spec = GridSpec(dim, rho)
    rows = lines[1:]
    # all cells in one pass; the rows are read one by one only to name a bad one
    if any(line.count(",") != dim for line in rows):
        raise _bad_row(rows, dim)
    try:
        table = np.array(list(map(float, ",".join(rows).split(",")))).reshape(n, dim + 1)
    except ValueError:
        raise _bad_row(rows, dim) from None
    off_grid = ~np.isclose(table[:, :-1], grid_coordinates(spec), atol=1e-9).all(axis=1)
    if off_grid.any():
        i = int(np.argmax(off_grid))
        raise InputError(f"row {i} coordinates do not match the cell-center grid")
    return GridFunction(spec, table[:, -1])


def _bad_row(rows, dim: int) -> InputError:
    """The error naming the first row that is not dim + 1 numbers (the
    caller has found that some row is not)."""
    for i, line in enumerate(rows):
        parts = line.split(",")
        if len(parts) != dim + 1:
            return InputError(f"bad row {i} in function CSV: {line!r}")
        try:
            list(map(float, parts))
        except ValueError:
            return InputError(f"row {i} of the function CSV is not numeric: {line!r}")
