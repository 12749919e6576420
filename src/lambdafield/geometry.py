"""Grid geometry: world <-> cell index conversions for a 2-D tessellation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridGeometry:
    """Regular square tessellation of a rectangular world region.

    Cell (0, 0) has its lower-left corner at ``origin``; columns grow with x,
    rows with y. Cells are indexed either as (col, row) pairs or as flat
    row-major indices ``row * n_cols + col``.
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
        if not np.all(self.contains(x, y)):
            raise ValueError(f"point ({x}, {y}) outside grid")
        col = np.int64((x - self.origin_x) / self.resolution)
        row = np.int64((y - self.origin_y) / self.resolution)
        # guard against floating-point landing exactly on the upper boundary
        return np.minimum(col, self.n_cols - 1), np.minimum(row, self.n_rows - 1)

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
        cols = np.floor((np.asarray(xs) - self.origin_x) / self.resolution).astype(np.int64)
        rows = np.floor((np.asarray(ys) - self.origin_y) / self.resolution).astype(np.int64)
        inside = (cols >= 0) & (cols < self.n_cols) & (rows >= 0) & (rows < self.n_rows)
        return np.where(inside, rows * self.n_cols + cols, -1)
