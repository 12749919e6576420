"""Exact grid traversal for lidar beams, walked with array code, and
error-disk rasterization."""

from __future__ import annotations

import math

import numpy as np

from .geometry import GridGeometry


CELL_CHORD = np.dtype([("cell", np.int64), ("chord", np.float64)])


def trace_beam(geometry: GridGeometry, origins, endpoints) -> np.ndarray:
    """Cells crossed by each segment origin->endpoint, with per-cell chords.

    ``origins`` and ``endpoints`` broadcast to (n, 2), one beam per row;
    an origin outside the grid raises ValueError. Endpoints are clipped to
    the grid boundary, and a non-finite one crosses no cell. Returns an
    (n, m) ``CELL_CHORD`` array: row k holds beam k's cells (flat ``cell``
    index, ``chord`` length) ordered from the origin outward, then padding
    with ``cell == -1`` and ``chord == 0``. A row's chords sum to its
    clipped segment length. Each axis's boundary crossings are summed in the
    order of the incremental walk (Amanatides & Woo), so every row equals
    that walk's records bit for bit.
    """
    o, e = np.broadcast_arrays(*(np.reshape(np.asarray(p, float), (-1, 2))
                                 for p in (origins, endpoints)))
    cell = np.stack(geometry.cell_of(o[:, 0], o[:, 1]), axis=1)  # (col, row)
    seg_len = np.array([math.hypot(dx, dy) for dx, dy in (e - o).tolist()])
    # a zero-length or non-finite beam moves along no axis and has no length
    live = (0.0 < seg_len) & (seg_len < math.inf)
    seg_len = np.where(live, seg_len, 0.0)[:, None]
    d = np.where(live[:, None], e - o, 0.0)
    moving, ahead, safe_d = d != 0, d > 0, np.where(d != 0, d, 1.0)
    lo = np.array([geometry.origin_x, geometry.origin_y])
    res, n_cells = geometry.resolution, np.array([geometry.n_cols, geometry.n_rows])

    # clip the parameter range [0, t_end] to the grid box
    exit_t = (np.where(ahead, lo + n_cells * res, lo) - o) / safe_d
    t_end = np.minimum(1.0, np.where(moving, exit_t, math.inf).min(1, keepdims=True))
    # per axis, the boundary crossings before t_end up to the one that leaves
    # the grid: the first crossing plus the per-cell step, summed in order as
    # the incremental walk adds them, padded with inf
    first = (lo + np.where(ahead, cell + 1, cell) * res - o) / safe_d
    step = res / np.abs(safe_d)
    n_left = np.where(ahead, n_cells - cell, cell + 1)
    # one crossing more than reach t_end in exact arithmetic, for rounding
    reach = np.minimum(n_left, (t_end - first) / step + 2)
    count = np.where(moving & (first < t_end), reach, 0).astype(np.int64)
    times = np.repeat(step[..., None], count.max(initial=0), axis=2)
    times[..., :1] = first[..., None]
    times = np.cumsum(times, axis=2)
    past = np.arange(times.shape[2]) >= count[..., None]
    times[past | (times >= t_end[..., None])] = math.inf
    times = np.concatenate(times.transpose(1, 0, 2), axis=1)  # x crossings, then y

    # edges are 0, the crossings in time order, then t_end; the cell entered
    # at a crossing is the start cell moved by each axis's crossings so far
    # (at a tie the cell in between gets a zero chord, a dropped sliver)
    order = np.argsort(times, axis=1, kind="stable")
    edges = np.minimum(np.pad(np.take_along_axis(times, order, axis=1),
                              ((0, 0), (1, 1)), constant_values=(0.0, math.inf)), t_end)
    chords = (edges[:, 1:] - edges[:, :-1]) * seg_len
    x_steps = np.pad(np.cumsum(order < times.shape[1] // 2, axis=1), ((0, 0), (1, 0)))
    y_steps = np.arange(times.shape[1] + 1) - x_steps
    # drop the cells past a grid exit (an axis's n_left-th crossing) and slivers
    keep = ((x_steps < n_left[:, :1]) & (y_steps < n_left[:, 1:])
            & (chords > 1e-12 * seg_len))
    move = np.where(ahead, 1, -1) * [1, geometry.n_cols]  # flat index per crossing
    flat = (cell[:, :1] + cell[:, 1:] * geometry.n_cols + move[:, :1] * x_steps
            + move[:, 1:] * y_steps)
    per_row = keep.sum(axis=1)
    at = np.repeat(np.arange(len(o)), per_row), (np.cumsum(keep, axis=1) - 1)[keep]
    out = np.zeros((len(o), per_row.max(initial=0)), CELL_CHORD)
    out["cell"] = -1
    out["cell"][at] = flat[keep]
    out["chord"][at] = chords[keep]
    return out


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
    cells = (np.arange(row_lo, row_hi + 1)[:, None] * geometry.n_cols
             + np.arange(col_lo, col_hi + 1)).ravel()
    return cells[centre_in_disk(geometry, cells, cx, cy, radius)]


def centre_in_disk(geometry: GridGeometry, cells: np.ndarray, cx, cy,
                   radius: float) -> np.ndarray:
    """True where the centre of the flat cell lies within ``radius`` of
    (cx, cy); elementwise, with broadcasting."""
    cols, rows = cells % geometry.n_cols, cells // geometry.n_cols
    centers_x = geometry.origin_x + (cols + 0.5) * geometry.resolution
    centers_y = geometry.origin_y + (rows + 0.5) * geometry.resolution
    return (centers_x - cx) ** 2 + (centers_y - cy) ** 2 <= radius * radius
