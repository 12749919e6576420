"""Exact grid traversal for lidar beams, walked with array code, and
error-disk rasterization."""

from __future__ import annotations

import math

import numpy as np

from .geometry import GridGeometry


CELL_CHORD = np.dtype([("cell", np.int64), ("chord", np.float64)])
DISK_WINDOW_CELLS = 1 << 16  # window cells tested at once, about 4 MB of temporaries
WALK_CROSSINGS = 1 << 18     # padded crossings walked at once, about 20 MB of temporaries
# trace_beam's last call: (geometry, (n, 4) segments, result as _stack's pairs)
_last = (None, np.zeros((0, 4)), np.zeros((0, 0), np.int64))


def trace_beam(geometry: GridGeometry, origins, endpoints) -> np.ndarray:
    """Cells crossed by each segment origin->endpoint, with per-cell chords.

    ``origins`` and ``endpoints`` broadcast to (n, 2), one beam per row;
    an origin outside the grid raises ValueError. Endpoints are clipped to
    the grid boundary, and a non-finite one crosses no cell. Returns an
    (n, m) ``CELL_CHORD`` array: row k holds beam k's cells (flat ``cell``
    index, ``chord`` length) ordered from the origin outward, then padding
    with ``cell == -1`` and ``chord == 0`` up to the most cells of a row. A
    row's chords sum to its clipped segment length. Each axis's boundary
    crossings are summed in the order of the incremental walk (Amanatides &
    Woo), so every row equals that walk's records bit for bit.

    A row depends only on its own segment, so the rows of the previous call
    are reused: row k is walked again only if the geometry or the bits of
    segment k differ from that call's. A scan's no-return beams end where
    the simulator traced them, and ``bayes_scan`` traces ``apply_scan``'s
    segments, so each scan's segments are walked once. The result equals a
    full walk byte for byte, and it is always a fresh array the caller may
    change; the module keeps one copy of it until the next call. A call that
    reuses every row of a same-length call, or none, copies that array
    without restacking the rows.
    """
    global _last
    o, e = np.broadcast_arrays(*(np.reshape(np.asarray(p, float), (-1, 2))
                                 for p in (origins, endpoints)))
    segments = np.concatenate([o, e], axis=1)
    last_geometry, last_segments, last = _last
    k = min(len(o), len(last)) if last_geometry == geometry else 0
    same = np.zeros(len(o), bool)
    same[:k] = (segments[:k].view(np.uint64)
                == last_segments[:k].view(np.uint64)).all(axis=1)
    if same.all() and len(o) == len(last):
        pairs = last
    elif not same.any():
        pairs = _walk(geometry, o, e).view(np.int64)
    else:
        new = ~same
        pairs = _stack(len(o), [(same, last[:k][same[:k]]),
                                (new, _walk(geometry, o[new], e[new]).view(np.int64))]
                       ).view(np.int64)
    _last = (geometry, segments, pairs)
    return pairs.copy().view(CELL_CHORD)


def _stack(n: int, parts) -> np.ndarray:
    """An (n, m) ``CELL_CHORD`` array holding each part's rows at its row
    index (a slice or a mask), padded to the longest row. A part's rows are
    ``CELL_CHORD`` rows viewed as int64 pairs (cell, chord bits, cell, ...),
    which numpy moves far faster than records."""
    width = max((int((rows[:, ::2] >= 0).any(axis=0).sum()) for _, rows in parts),
                default=0)
    out = np.zeros((n, width), CELL_CHORD)
    out["cell"] = -1
    for at, rows in parts:
        m = min(2 * width, rows.shape[1])
        out.view(np.int64)[at, :m] = rows[:, :m]
    return out


def _walk(geometry: GridGeometry, o: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``trace_beam`` of the (n, 2) origins and endpoints, with no reuse,
    walking at most ``WALK_CROSSINGS`` padded crossings at a time; the rows
    that are sorted are as wide as the longest row's crossings."""
    start = geometry.flat_of_points(o[:, 0], o[:, 1])
    cell = np.stack(np.divmod(start, geometry.n_cols)[::-1], axis=1)  # (col, row)
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
    # the incremental walk adds them
    first = (lo + np.where(ahead, cell + 1, cell) * res - o) / safe_d
    step = res / np.abs(safe_d)
    n_left = np.where(ahead, n_cells - cell, cell + 1)
    # one crossing more than reach t_end in exact arithmetic, for rounding
    reach = np.minimum(n_left, (t_end - first) / step + 2)
    count = np.where(moving & (first < t_end), reach, 0).astype(np.int64)
    # rows per chunk; a row's cells do not depend on the other rows
    chunk = max(1, WALK_CROSSINGS // max(1, 2 * int(count.max(initial=0))))
    if len(o) > chunk:
        return _stack(len(o), [
            (slice(k, k + chunk),
             _walk(geometry, o[k:k + chunk], e[k:k + chunk]).view(np.int64))
            for k in range(0, len(o), chunk)])
    times = np.repeat(step[..., None], count.max(initial=0), axis=2)
    times[..., :1] = first[..., None]
    np.cumsum(times, axis=2, out=times)
    # an axis's crossings increase, so the ones before t_end are a prefix;
    # each row's are packed to its own count, x then y, padded with t_end
    valid = (np.arange(times.shape[2]) < count[..., None]) & (times < t_end[..., None])
    n_x, total = valid[:, 0].sum(axis=1), valid.sum(axis=(1, 2))
    edges = np.empty((len(o), int(total.max(initial=0)) + 2))
    edges[:, 0], edges[:, 1:] = 0.0, t_end
    crossings = edges[:, 1:-1]
    crossings[np.arange(crossings.shape[1]) < total[:, None]] = times[valid]
    # edges are 0, the crossings in time order, then t_end; the cell entered
    # at a crossing is the start cell moved by each axis's crossings so far
    # (at a tie the cell in between gets a zero chord, a dropped sliver)
    is_x = np.argsort(crossings, axis=1, kind="stable") < n_x[:, None]
    crossings.sort(axis=1)
    chords = np.diff(edges, axis=1) * seg_len
    x_steps = np.zeros(chords.shape, np.int64)
    np.cumsum(is_x, axis=1, out=x_steps[:, 1:])
    column = np.arange(chords.shape[1])  # a cell's y steps are column - x_steps
    # drop the cells past a grid exit (an axis's n_left-th crossing) and slivers
    keep = ((x_steps < n_left[:, :1]) & (x_steps > column - n_left[:, 1:])
            & (chords > 1e-12 * seg_len))
    move = np.where(ahead, 1, -1) * [1, geometry.n_cols]  # flat index per crossing
    flat = x_steps * (move[:, :1] - move[:, 1:])
    flat += move[:, 1:] * column + start[:, None]
    per_row = keep.sum(axis=1)
    out = np.zeros((len(o), per_row.max(initial=0)), CELL_CHORD)
    out["cell"] = -1
    # the kept cells in row-major order fill each row's first per_row slots
    full = np.arange(out.shape[1]) < per_row[:, None]
    out["cell"][full] = flat[keep]
    out["chord"][full] = chords[keep]
    return out


def error_region_cells(geometry: GridGeometry, centers, radius: float) -> np.ndarray:
    """Flat indices of the cells whose centre lies within ``radius`` of one of
    the ``centers`` ((x, y) pairs that broadcast to (n, 2); a non-finite one
    raises ValueError): disk 0's cells, then disk 1's, ..., each row-major,
    off-grid cells dropped. Each disk is tested on a fixed window in the grid."""
    if radius <= 0:
        raise ValueError("radius must be > 0")
    c = np.reshape(np.asarray(centers, np.float64), (-1, 2))
    if not np.isfinite(c).all():
        raise ValueError("error disk centre is not finite")
    size, res = np.array([geometry.n_cols, geometry.n_rows]), geometry.resolution
    origin = np.array([geometry.origin_x, geometry.origin_y])
    # clipped to radius + one cell off the grid, a far-off centre still has no cell
    c = np.clip(c, origin - radius - res, origin + size * res + radius + res)
    # on each axis, a disk's cells lie at most int(2 * radius / res) + 2 apart
    width = np.minimum(int(2 * radius / res) + 3, size)
    step = max(1, DISK_WINDOW_CELLS // int(width.prod()))  # disks per window array
    if len(c) > step:
        return np.concatenate([error_region_cells(geometry, c[k:k + step], radius)
                               for k in range(0, len(c), step)])
    lo = np.clip(np.floor((c - radius - origin) / res), 0, size - width).astype(int)
    cols, rows = (lo[:, k:k + 1] + np.arange(width[k]) for k in (0, 1))
    cells = rows[:, :, None] * geometry.n_cols + cols[:, None, :]
    return cells[centre_in_disk(geometry, cells, *c.T[:, :, None, None], radius)]


def centre_in_disk(geometry: GridGeometry, cells: np.ndarray, cx, cy,
                   radius: float) -> np.ndarray:
    """True where the centre of the flat cell lies within ``radius`` of
    (cx, cy); elementwise, with broadcasting."""
    centers_x, centers_y = geometry.cell_center(cells % geometry.n_cols,
                                                cells // geometry.n_cols)
    return (centers_x - cx) ** 2 + (centers_y - cy) ** 2 <= radius * radius
