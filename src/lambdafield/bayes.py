"""Classical log-odds occupancy grid baseline and its naive path probability.

Kept deliberately simple (beam-endpoint inverse sensor model): it exists to
contrast against the intensity field, not to be a competitive mapper.
"""

from __future__ import annotations

import math

import numpy as np

from .field import SensorModel
from .geometry import GridGeometry
from .raycast import trace_beam
from .sensor import Beam, beam_arrays

DEFAULT_LOG_ODDS_CLAMP = 10.0
FOLD_TABLE_CELLS = 1 << 16  # run fold cumsum entries at once, 512 kB


class BayesGrid:
    """Per-cell occupancy log-odds with a symmetric prior of 0.5."""

    def __init__(self, geometry: GridGeometry,
                 p_occ_given_hit: float = 0.7,
                 p_free_given_miss: float = 0.7,
                 log_odds_clamp: float = DEFAULT_LOG_ODDS_CLAMP):
        if not 0.5 < p_occ_given_hit < 1:
            raise ValueError("p_occ_given_hit must be in (0.5, 1)")
        if not 0.5 < p_free_given_miss < 1:
            raise ValueError("p_free_given_miss must be in (0.5, 1)")
        if not log_odds_clamp > 0:
            raise ValueError(f"log_odds_clamp must be > 0, got {log_odds_clamp}")
        self.geometry = geometry
        self.log_odds_clamp = log_odds_clamp
        self.l_occ = math.log(p_occ_given_hit / (1.0 - p_occ_given_hit))
        self.l_free = -math.log(p_free_given_miss / (1.0 - p_free_given_miss))
        self.log_odds = np.zeros(geometry.n_cells, dtype=np.float64)

    def occupancy(self, cells=slice(None)) -> np.ndarray:
        """Occupancy in (0, 1) of the flat ``cells`` (default all); reads only those."""
        return 1.0 / (1.0 + np.exp(-self.log_odds[cells]))


def bayes_scan(grid: BayesGrid, beams: list[Beam], sensor: SensorModel) -> None:
    """Standard log-odds update, equal bit for bit to folding the beams in
    one at a time in scan order: each beam moves the cells it crosses toward
    free, then the cell holding a hit beam's endpoint() toward occupied, each
    step clipped to the clamp; a beam crossing no cell changes nothing. Beams
    are traced in one call, whose row count sets how many are folded in;
    ``sensor`` is unused.

    The clamp makes a cell's result depend on the order of its steps, so the
    steps are sorted by (cell, beam), and each cell's steps split into runs
    of one sign that are folded in with array code, a cell's first run in one
    pass, its second in the next, and so on (a cell that only gets misses
    has one run). No loop runs per beam or per cell."""
    geo = grid.geometry
    origins, ends, hit = beam_arrays(beams)
    cells = np.ascontiguousarray(trace_beam(geo, origins, ends)["cell"])
    n = len(cells)
    ends, hit = ends[:n], hit[:n]
    occupied = np.full(n, -1)
    on_grid = hit & geo.contains(ends[:, 0], ends[:, 1])
    cols, rows = geo.cell_of(ends[on_grid, 0], ends[on_grid, 1])
    occupied[on_grid] = rows * geo.n_cols + cols
    occupied[~(cells[:, :1] >= 0).any(axis=1)] = -1  # crosses no cell: no step
    # each step is one key, cell << shift | beam << 1 | occupied: sorted keys
    # give each cell's steps in beam order (a beam steps a cell at most once)
    shift = n.bit_length() + 1
    free = (cells >= 0) & (cells != occupied[:, None])
    occ_beams = np.flatnonzero(occupied >= 0)
    steps = np.concatenate([(cells << shift | np.arange(n)[:, None] << 1)[free],
                            occupied[occ_beams] << shift | occ_beams << 1 | 1])
    if geo.n_cells << shift <= np.iinfo(np.int32).max:
        steps = steps.astype(np.int32)  # sorts in about half the time
    steps.sort()
    run = (steps >> shift << 1) | (steps & 1)  # (cell, occupied) of each step
    head = np.ones(len(run), bool)
    np.not_equal(run[1:], run[:-1], out=head[1:])
    head = np.flatnonzero(head)
    run, length = run[head], np.diff(head, append=len(steps))
    cell, occ = run >> 1, (run & 1).astype(bool)
    # a cell's runs follow each other; the r-th of them is folded in pass r
    later = np.flatnonzero(cell[1:] == cell[:-1]) + 1
    rank = np.zeros(len(run), np.int64)
    rank[later] = later - np.searchsorted(cell, cell[later])
    passes = [np.flatnonzero(rank == 0)]
    passes += [later[rank[later] == r] for r in range(1, rank.max(initial=0) + 1)]
    for now in passes:
        c = cell[now]
        grid.log_odds[c] = _fold_runs(grid, grid.log_odds[c], occ[now], length[now])


def _fold_runs(grid: BayesGrid, v: np.ndarray, occ: np.ndarray,
               k: np.ndarray) -> np.ndarray:
    """Each start value v[i] after k[i] clipped steps of l_occ (where
    occ[i]) or l_free. For k steps of d from v, that is
    clip(cumsum([clip(v + d), d, ..., d]))[k - 1]: cumsum adds in order, and
    after the first step the clamp can bind only on the side d moves
    toward, so clipping once at the end gives the same bits. The cumsum runs
    once per distinct value after the first step, in tables of at most
    ``FOLD_TABLE_CELLS`` entries (or one row), the widest rows first."""
    lo, hi = -grid.log_odds_clamp, grid.log_odds_clamp
    out = np.clip(v + np.where(occ, grid.l_occ, grid.l_free), lo, hi)
    longer = np.flatnonzero(k > 1)
    for d, sign in ((grid.l_free, False), (grid.l_occ, True)):
        long = longer[occ[longer] == sign]
        start, inv = np.unique(out[long].view(np.uint64), return_inverse=True)
        width = np.zeros(len(start), np.int64)
        np.maximum.at(width, inv, k[long])
        order = np.argsort(-width, kind="stable")
        start, width = start[order].view(np.float64), width[order]
        row = np.argsort(order)[inv]
        folded = np.empty(len(long))
        first = 0
        while first < len(start):
            last = first + max(1, FOLD_TABLE_CELLS // width[first])
            table = np.full((len(start[first:last]), width[first]), d)
            table[:, 0] = start[first:last]
            np.cumsum(table, axis=1, out=table)
            mine = (first <= row) & (row < last)
            folded[mine] = table[row[mine] - first, k[long[mine]] - 1]
            first = last
        out[long] = np.clip(folded, lo, hi)
    return out


def naive_path_probability(grid: BayesGrid, cells) -> float:
    """1 - prod(1 - p_occ) over the crossed cells (flat indices): the
    textbook path collision probability whose value depends on the
    tessellation size."""
    return naive_probability_from_occupancy(
        grid.occupancy(np.asarray(cells, dtype=np.int64)))


def naive_probability_from_occupancy(probabilities) -> float:
    """The product rule on raw per-cell occupancy probabilities."""
    p = np.asarray(probabilities, dtype=np.float64)
    if p.size == 0:
        return 0.0
    return float(-np.expm1(np.sum(np.log1p(-p))))
