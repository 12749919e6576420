"""Exact grid traversal for lidar beams, walked with array code, and
error-disk rasterization."""

from __future__ import annotations

import math

import numpy as np

from .geometry import GridGeometry


CELL_CHORD = np.dtype([("cell", np.int64), ("chord", np.float64)])


def trace_beam(geometry: GridGeometry, origin: tuple[float, float],
               endpoint: tuple[float, float]) -> np.ndarray:
    """Cells crossed by the segment origin->endpoint, with per-cell chord lengths.

    The origin must be inside the grid; the endpoint is clipped to the grid
    boundary, and a non-finite one crosses no cell. Returns one ``CELL_CHORD``
    record per cell (flat ``cell`` index, ``chord`` length), ordered from the
    origin outward; chords sum to the clipped segment length. Each axis's
    boundary crossings are summed in the order of the incremental walk
    (Amanatides & Woo), so the records equal that walk's bit for bit.
    """
    ox, oy = origin
    ex, ey = endpoint
    if not geometry.contains(ox, oy):
        raise ValueError(f"beam origin ({ox}, {oy}) outside grid")
    dx = ex - ox
    dy = ey - oy
    seg_len = math.hypot(dx, dy)
    if not 0.0 < seg_len < math.inf:
        return np.empty(0, CELL_CHORD)

    # clip the parameter range [0, t_end] to the grid box
    t_end = 1.0
    if dx > 0:
        t_end = min(t_end, (geometry.origin_x + geometry.width - ox) / dx)
    elif dx < 0:
        t_end = min(t_end, (geometry.origin_x - ox) / dx)
    if dy > 0:
        t_end = min(t_end, (geometry.origin_y + geometry.height - oy) / dy)
    elif dy < 0:
        t_end = min(t_end, (geometry.origin_y - oy) / dy)
    if t_end <= 0.0:
        return np.empty(0, CELL_CHORD)

    col, row = geometry.cell_of(ox, oy)
    t_x = _crossings(geometry.origin_x, geometry.resolution, geometry.n_cols,
                     ox, dx, col, t_end)
    t_y = _crossings(geometry.origin_y, geometry.resolution, geometry.n_rows,
                     oy, dy, row, t_end)
    # the cell entered at time t is the start cell moved by each axis's
    # crossings up to t (a tie makes a cell of zero chord, a dropped sliver)
    edges = np.concatenate([[0.0], np.sort(np.concatenate([t_x, t_y])),
                            [t_end]])
    chords = (edges[1:] - edges[:-1]) * seg_len
    cols = col + (1 if dx > 0 else -1) * np.searchsorted(t_x, edges[:-1], "right")
    rows = row + (1 if dy > 0 else -1) * np.searchsorted(t_y, edges[:-1], "right")
    # a walk that steps off the grid stays off it; drop degenerate slivers
    keep = ((cols >= 0) & (cols < geometry.n_cols) & (rows >= 0)
            & (rows < geometry.n_rows) & (chords > 1e-12 * seg_len))
    out = np.empty(np.count_nonzero(keep), CELL_CHORD)
    out["cell"] = (rows * geometry.n_cols + cols)[keep]
    out["chord"] = chords[keep]
    return out


def _crossings(lo: float, res: float, n: int, o: float, d: float, cell: int,
               t_end: float) -> np.ndarray:
    """Times before ``t_end`` at which the ray ``o + t * d`` crosses a cell
    boundary of one axis, from ``cell`` outward up to the crossing that
    leaves the grid: the first crossing plus the per-cell step, summed in
    order as an incremental walk adds them."""
    if d > 0:
        first = (lo + (cell + 1) * res - o) / d
        n_left = n - cell
    elif d < 0:
        first = (lo + cell * res - o) / d
        n_left = cell + 1
    else:
        return np.empty(0)
    if not first < t_end:
        return np.empty(0)
    step = res / abs(d)
    # one crossing more than reach t_end in exact arithmetic, for rounding
    times = np.full(int(min(n_left, (t_end - first) / step + 2)), step)
    times[0] = first
    times = np.cumsum(times)
    return times[times < t_end]


def error_region_cells(geometry: GridGeometry, center: tuple[float, float],
                       radius: float) -> np.ndarray:
    """Flat indices of cells whose center lies within the disk around a return.

    Cells outside the grid are dropped; the result may be empty.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    cx, cy = center
    res = geometry.resolution
    col_lo = int(math.floor((cx - radius - geometry.origin_x) / res))
    col_hi = int(math.floor((cx + radius - geometry.origin_x) / res))
    row_lo = int(math.floor((cy - radius - geometry.origin_y) / res))
    row_hi = int(math.floor((cy + radius - geometry.origin_y) / res))
    col_lo = max(col_lo, 0)
    row_lo = max(row_lo, 0)
    col_hi = min(col_hi, geometry.n_cols - 1)
    row_hi = min(row_hi, geometry.n_rows - 1)
    if col_lo > col_hi or row_lo > row_hi:
        return np.empty(0, dtype=np.int64)
    cols, rows = np.meshgrid(np.arange(col_lo, col_hi + 1),
                             np.arange(row_lo, row_hi + 1))
    centers_x = geometry.origin_x + (cols + 0.5) * res
    centers_y = geometry.origin_y + (rows + 0.5) * res
    inside = (centers_x - cx) ** 2 + (centers_y - cy) ** 2 <= radius * radius
    return (rows[inside] * geometry.n_cols + cols[inside]).astype(np.int64)
