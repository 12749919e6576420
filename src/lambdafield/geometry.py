"""Grid geometry: world <-> cell index conversions for a 2-D tessellation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridGeometry:
    """Regular square tessellation of a rectangular world region.

    Cell (0, 0) has its lower-left corner at ``origin``; columns grow with x,
    rows with y. Cells are indexed either as (col, row) pairs or as flat
    row-major indices ``row * n_cols + col``. One point-to-cell rule serves
    ``cell_of``, ``flat_or_outside`` and ``flat_of_points``: ``contains``
    decides what is inside, and an inside point's (col, row) is its offset
    from the origin in cells, truncated and clamped to the last cell.
    """

    origin_x: float
    origin_y: float
    resolution: float
    n_cols: int
    n_rows: int

    def __post_init__(self):
        if not self.resolution > 0:
            raise ValueError(f"resolution must be > 0, got {self.resolution}")
        if self.n_cols < 1 or self.n_rows < 1:
            raise ValueError("grid needs at least one cell per axis")

    @property
    def cell_area(self) -> float:
        return self.resolution * self.resolution

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

    def cell_of(self, x, y):
        """(col, row) of the cell holding each world point; raises if one is outside."""
        cols, rows, inside = self._cells(x, y)
        if not np.all(inside):
            raise ValueError(f"point ({x}, {y}) outside grid")
        return cols, rows

    def cell_center(self, col: int, row: int) -> tuple[float, float]:
        return (self.origin_x + (col + 0.5) * self.resolution,
                self.origin_y + (row + 0.5) * self.resolution)

    def flat(self, col: int, row: int) -> int:
        if not (0 <= col < self.n_cols and 0 <= row < self.n_rows):
            raise IndexError(f"cell ({col}, {row}) outside grid")
        return row * self.n_cols + col

    def unflat(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self.n_cells:
            raise IndexError(f"flat index {index} outside grid")
        return index % self.n_cols, index // self.n_cols

    def flat_of_points(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized flat cell indices for world points; raises if any is outside."""
        flat = self.flat_or_outside(xs, ys)
        if (flat < 0).any():
            raise ValueError("point outside grid")
        return flat

    def flat_or_outside(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized flat cell indices for world points, -1 for a point
        outside the grid."""
        cols, rows, inside = self._cells(xs, ys)
        rows *= self.n_cols
        rows += cols
        return np.where(inside, rows, -1)

    def _cells(self, xs, ys):
        """(cols, rows, inside) of world points. Offsets are clamped to
        [0, n - 1] before the cast, so NaN and inf cast with no warning; the
        (col, row) of a point outside means nothing."""
        cells = []
        for v, origin, n in ((xs, self.origin_x, self.n_cols),
                             (ys, self.origin_y, self.n_rows)):
            u = np.subtract(v, origin, out=np.empty(np.shape(v)))
            u /= self.resolution
            np.fmax(np.fmin(u, n - 1, out=u), 0, out=u)
            cells.append(u.astype(np.int64)[()])
        return (*cells, self.contains(xs, ys))
