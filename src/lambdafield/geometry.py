"""Grid geometry: world <-> cell index conversions for a 2-D tessellation."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# the largest magnitude of a grid edge or a planner reference coordinate:
# the square of a difference of two such coordinates stays finite
COORD_MAX = 2.0 ** 500


@dataclass(frozen=True)
class GridGeometry:
    """Regular square tessellation of a rectangular world region.

    Cell (0, 0) has its lower-left corner at ``origin``; columns grow with x,
    rows with y. A cell's flat index is ``row * n_cols + col``. One
    point-to-cell rule serves ``flat_or_outside`` and ``flat_of_points``:
    ``contains`` decides what is inside, and an inside point's (col, row) is
    its offset from the origin in cells, truncated and clamped to the last
    cell.
    """

    origin_x: float
    origin_y: float
    resolution: float
    n_cols: int
    n_rows: int

    def __post_init__(self):
        try:
            n_cells = operator.index(self.n_cols) * operator.index(self.n_rows)
        except TypeError:
            raise ValueError(f"grid size must be integers, got {self.n_cols!r} "
                             f"x {self.n_rows!r}") from None
        if self.n_cols < 1 or self.n_rows < 1:
            raise ValueError("grid needs at least one cell per axis")
        if n_cells > np.iinfo(np.int64).max:
            raise ValueError(f"grid of {n_cells} cells is too large to index")
        # edges as Python floats: a far edge that overflows is inf, with no warning
        edges = (float(self.origin_x), float(self.origin_y),
                 float(self.origin_x) + float(self.width),
                 float(self.origin_y) + float(self.height))
        if not (self.resolution > 0 and all(abs(v) <= COORD_MAX for v in edges)):
            raise ValueError(f"resolution must be > 0 and the grid's origin and "
                             f"far edges within +-2**500, got origin "
                             f"({self.origin_x}, {self.origin_y}), resolution "
                             f"{self.resolution}")

    @property
    def n_cells(self) -> int:
        return self.n_cols * self.n_rows

    @property
    def width(self) -> float:
        return self.n_cols * self.resolution

    @property
    def height(self) -> float:
        return self.n_rows * self.resolution

    def contains(self, x, y):
        """True where the world point(s) lie inside the grid (lower edges inclusive)."""
        return ((self.origin_x <= x) & (x < self.origin_x + self.width)
                & (self.origin_y <= y) & (y < self.origin_y + self.height))

    def cell_center(self, col, row):
        """World (x, y) of the centre of each cell (col, row); elementwise on
        arrays, with broadcasting."""
        return (self.origin_x + (col + 0.5) * self.resolution,
                self.origin_y + (row + 0.5) * self.resolution)

    def flat_of_points(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized flat cell indices for world points; raises if any is outside."""
        flat = self.flat_or_outside(xs, ys)
        if (flat < 0).any():
            raise ValueError("point outside grid")
        return flat

    def flat_or_outside(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized flat cell indices for world points, -1 for a point
        outside the grid. Offsets are clamped to [0, n - 1] before the cast, so
        NaN and inf cast with no warning."""
        cells = []
        for v, origin, n in ((xs, self.origin_x, self.n_cols),
                             (ys, self.origin_y, self.n_rows)):
            u = np.subtract(v, origin, out=np.empty(np.shape(v)))
            u /= self.resolution
            np.fmax(np.fmin(u, n - 1, out=u), 0, out=u)
            cells.append(u.astype(np.int64))
        cols, rows = cells
        rows *= self.n_cols
        rows += cols
        return np.where(self.contains(xs, ys), rows, -1)
