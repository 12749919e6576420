"""Exact grid traversal for lidar beams, walked with array code, and
error-disk rasterization.

``_walk`` traces every beam of a call at once. Per row and axis, the
boundary crossings are the first crossing plus the per-cell step, summed in
order by one ``cumsum`` as the incremental walk (Amanatides & Woo) adds
them, so each row equals that walk bit for bit. A row's crossings before
its clipped end are packed to its own count, x then y, and padded with the
end, so the arrays that are sorted are as wide as the longest row's
crossings. A stable argsort tells each sorted crossing's axis, and the cell
entered at a crossing is the start cell moved by each axis's crossings so
far, in int32 where the grid and the row width let every index fit. A cell
past the grid exit is looked for only on the rows whose crossings reach an
axis's exit, and a sliver (a chord of at most 1e-12 of the segment, as at an
exact cell corner) is dropped on every row. When each row keeps a prefix of
its cells, the dropped cells are set to padding in place and the first
columns copied out; a sliver between kept cells moves the cells after it up
instead. Each temporary is released once used, so the next can reuse its
memory. Rows are walked in chunks of at most
``WALK_CROSSINGS`` padded crossings, which ``_stack`` joins, so a large scan
does not grow the temporaries.

``error_region_cells`` tests each disk on a fixed window of the grid, the
disks of at most ``DISK_WINDOW_CELLS`` window cells at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import GridGeometry


CELL_CHORD = np.dtype([("cell", np.int64), ("chord", np.float64)])
DISK_WINDOW_CELLS = 1 << 16  # window cells tested at once, about 4 MB of temporaries
WALK_CROSSINGS = 1 << 18     # padded crossings walked at once, about 2 MB of temporaries
# trace_beam's last call: (geometry, (n, 4) segment bits, result as int64
# pairs, each row's cell count)
_last = (None, np.zeros((0, 4), np.uint64), np.zeros((0, 0), np.int64),
         np.zeros(0, np.int64))


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

    A row depends only on its own segment, so a call on the previous call's
    geometry with as many rows walks only the rows whose segment bits differ,
    and any other call walks every row (a scan's no-return beams end where
    the simulator traced them, and ``bayes_scan`` traces ``apply_scan``'s
    segments). The result equals a full walk byte for byte. It is the array
    the module keeps, with each row's cell count, until the next call, lent
    read-only: a write into it raises ValueError. A call that reuses every
    row, or none, copies no row; one that reuses some copies the kept rows
    once into an array as wide as the kept and walked counts of its rows
    (``_stack``).
    """
    global _last
    o, e = np.broadcast_arrays(*(np.reshape(np.asarray(p, float), (-1, 2))
                                 for p in (origins, endpoints)))
    segments = np.concatenate([o, e], axis=1).view(np.uint64)
    last_geometry, last_segments, last, last_rows = _last
    reuse = last_geometry == geometry and len(o) == len(last)
    same = (segments == last_segments).all(axis=1) if reuse else np.zeros(len(o), bool)
    if reuse and same.all():
        pairs, per_row = last, last_rows
    elif not same.any():
        records, per_row = _walk(geometry, o, e)
        pairs = records.view(np.int64)
    else:
        new = ~same
        walked, walked_rows = _walk(geometry, o[new], e[new])
        per_row = last_rows.copy()
        per_row[new] = walked_rows
        pairs = _stack(per_row, [(new, walked.view(np.int64))]).view(np.int64)
        # the kept rows, copied once from the last result where they lie
        m = min(pairs.shape[1], last.shape[1])
        np.copyto(pairs[:, :m], last[:, :m], where=same[:, None])
        pairs.view(CELL_CHORD)[same, m // 2:] = (-1, 0.0)
    pairs.flags.writeable = False
    _last = (geometry, segments, pairs, per_row)
    return pairs.view(CELL_CHORD)


def _stack(per_row: np.ndarray, parts) -> np.ndarray:
    """The (n, m) ``CELL_CHORD`` array of rows of ``per_row`` cells, m the
    most. Each part (at, rows) fills the rows at ``at`` (a slice or a mask)
    from exactly those rows, ``CELL_CHORD`` rows viewed as int64 pairs (cell,
    chord bits, ...), which numpy moves far faster than records; only the
    columns past a part's width are padded. Rows at no part are left unset."""
    out = np.empty((len(per_row), int(per_row.max(initial=0))), CELL_CHORD)
    pairs = out.view(np.int64)
    for at, rows in parts:
        m = min(pairs.shape[1], rows.shape[1])
        pairs[at, :m] = rows[:, :m]
        out[at, m // 2:] = (-1, 0.0)
    return out


def _walk(geometry: GridGeometry, o: np.ndarray,
          e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``trace_beam`` of the (n, 2) origins and endpoints, with no reuse,
    and each row's cell count; see the module docstring for how."""
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
        parts = [(slice(k, k + chunk), _walk(geometry, o[k:k + chunk], e[k:k + chunk]))
                 for k in range(0, len(o), chunk)]
        per_row = np.concatenate([rows for _, (_, rows) in parts])
        return _stack(per_row, [(at, records.view(np.int64))
                                for at, (records, _) in parts]), per_row
    times = np.repeat(step[..., None], count.max(initial=0), axis=2)
    times[..., :1] = first[..., None]
    np.cumsum(times, axis=2, out=times)
    # an axis's crossings increase, so the ones before t_end are a prefix;
    # each row's are packed to its own count, x then y, padded with t_end
    valid = (np.arange(times.shape[2]) < count[..., None]) & (times < t_end[..., None])
    n_x, n_y = valid.sum(axis=2).T
    total = n_x + n_y
    edges = np.empty((len(o), int(total.max(initial=0)) + 2))
    edges[:, 0], edges[:, 1:] = 0.0, t_end
    crossings = edges[:, 1:-1]
    crossings[np.arange(crossings.shape[1]) < total[:, None]] = times[valid]
    del times, valid
    # edges are 0, the crossings in time order, then t_end; the cell entered
    # at a crossing is the start cell moved by each axis's crossings so far
    # (at a tie the cell in between gets a zero chord, a dropped sliver)
    width = edges.shape[1] - 1
    # |flat| below stays under n_cells + width * (2 * n_cols + 1)
    index = (np.int32 if geometry.n_cells + width * (2 * geometry.n_cols + 1)
             <= np.iinfo(np.int32).max else np.int64)
    x_steps = np.empty((len(o), width), index)
    x_steps[:, 0] = 0
    np.less(np.argsort(crossings, axis=1, kind="stable"), n_x[:, None],
            out=x_steps[:, 1:])
    np.cumsum(x_steps[:, 1:], axis=1, out=x_steps[:, 1:])
    crossings.sort(axis=1, kind="stable")  # a merge of two runs
    chords = np.diff(edges, axis=1)
    del edges, crossings
    chords *= seg_len
    column = np.arange(width, dtype=index)  # a cell's y steps are column - x_steps
    keep = chords > 1e-12 * seg_len  # drops slivers and the padding
    # drop the cells past a grid exit (an axis's n_left-th crossing), on the
    # rows whose crossings reach one; on the others no cell is past it
    exits = np.flatnonzero((n_x >= n_left[:, 0]) | (n_y >= n_left[:, 1]))
    if len(exits):
        steps = x_steps[exits]
        keep[exits] &= ((steps < n_left[exits, :1])
                        & (steps > column - n_left[exits, 1:]))
    move = (np.where(ahead, 1, -1) * [1, geometry.n_cols]).astype(index)
    flat = x_steps  # in place: the flat index of each cell
    flat *= (move[:, :1] - move[:, 1:])
    flat += move[:, 1:] * column
    flat += start[:, None].astype(index)
    per_row = keep.sum(axis=1)
    w = int(per_row.max(initial=0))
    out = np.empty((len(o), w), CELL_CHORD)
    if not (keep[:, 1:] > keep[:, :-1]).any():  # each row keeps a prefix
        drop = np.logical_not(keep[:, :w], out=keep[:, :w])
        np.copyto(flat[:, :w], -1, where=drop)
        np.copyto(chords[:, :w], 0.0, where=drop)
        out["cell"] = flat[:, :w]
        out["chord"] = chords[:, :w]
    else:  # a sliver between kept cells: the cells after it move up
        out["cell"], out["chord"] = -1, 0.0
        full = np.arange(w) < per_row[:, None]
        out["cell"][full] = flat[keep]
        out["chord"][full] = chords[keep]
    return out, per_row


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
