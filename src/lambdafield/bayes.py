"""Classical log-odds occupancy grid baseline and its naive path probability.

Kept deliberately simple (beam-endpoint inverse sensor model): it exists to
contrast against the intensity field, not to be a competitive mapper.
"""

from __future__ import annotations

import math

import numpy as np

from .field import SensorModel, _run_heads, collision_probability
from .geometry import GridGeometry
from .raycast import trace_beam
from .sensor import Beam, beam_arrays

DEFAULT_LOG_ODDS_CLAMP = 10.0


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
    of one sign, a cell's first run folded in one pass, its second in the
    next, and so on (a cell that only gets misses has one run). Each pass
    folds its runs by ``_fold_runs``' loop of clipped adds, which runs per
    step of the longest run short of its clamp, not per beam or per cell."""
    geo = grid.geometry
    origins, ends, hit = beam_arrays(beams)
    cells = np.ascontiguousarray(trace_beam(geo, origins, ends)["cell"])
    n = len(cells)
    ends, hit = ends[:n], hit[:n]
    occupied = np.where(hit, geo.flat_or_outside(ends[:, 0], ends[:, 1]), -1)
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
    head = _run_heads(run)
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
    """Each start value v[i] after k[i] clipped steps of l_occ (where occ[i])
    or l_free, by the per-beam rule's clipped add: one for all runs, then one
    pass per step over the runs with steps left. A run drops out when its
    steps are used up or it sits at the clamp its sign moves toward, which
    further steps keep. The passes thus number the steps of the longest run
    short of that clamp: about 2 * clamp / |step| at most, but the whole run
    where tiny steps (p near 0.5) never reach the clamp."""
    lo, hi = -grid.log_odds_clamp, grid.log_odds_clamp
    d, stop = np.where(occ, grid.l_occ, grid.l_free), np.where(occ, hi, lo)
    out = np.clip(v + d, lo, hi)
    done = 1
    live = np.flatnonzero((k > done) & (out != stop))
    while len(live):
        out[live] = np.clip(out[live] + d[live], lo, hi)
        done += 1
        live = live[(k[live] > done) & (out[live] != stop[live])]
    return out


def naive_path_probability(grid: BayesGrid, cells) -> float:
    """1 - prod(1 - p_occ) over the crossed cells (flat indices), the
    textbook path probability that depends on the tessellation size:
    ``collision_probability`` of the exposure -sum(ln(1 - p_occ))."""
    p = grid.occupancy(np.asarray(cells, dtype=np.int64))
    return collision_probability(float(np.sum(-np.log1p(-p))))
