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

    def occupancy(self) -> np.ndarray:
        """Per-cell occupancy probabilities, strictly inside (0, 1)."""
        return 1.0 / (1.0 + np.exp(-self.log_odds))

    def _bump(self, indices: np.ndarray, delta: float) -> None:
        if len(indices) == 0:
            return
        self.log_odds[indices] = np.clip(self.log_odds[indices] + delta,
                                         -self.log_odds_clamp,
                                         self.log_odds_clamp)


def bayes_scan(grid: BayesGrid, beams: list[Beam], sensor: SensorModel) -> None:
    """Standard log-odds update, beam by beam in scan order: traversed cells
    toward free, then the cell holding a hit beam's endpoint toward occupied,
    each step clipped to the clamp; a beam that crosses no cell changes
    nothing. Beams end at ``beam.endpoint()`` and are traced in one call,
    whose row count sets how many are folded in. The ``sensor`` is not read."""
    geo = grid.geometry
    origins, ends, hit = beam_arrays(beams)
    occupied = np.full(len(ends), -1)
    on_grid = hit & geo.contains(ends[:, 0], ends[:, 1])
    cols, rows = geo.cell_of(ends[on_grid, 0], ends[on_grid, 1])
    occupied[on_grid] = rows * geo.n_cols + cols
    for cells, occ in zip(trace_beam(geo, origins, ends)["cell"], occupied):
        cells = cells[cells >= 0]
        if len(cells):
            grid._bump(cells[cells != occ], grid.l_free)
            if occ >= 0:
                grid._bump(np.array([occ]), grid.l_occ)


def naive_path_probability(grid: BayesGrid, cells) -> float:
    """1 - prod(1 - p_occ) over the crossed cells (flat indices): the
    textbook path collision probability whose value depends on the
    tessellation size."""
    return naive_probability_from_occupancy(
        grid.occupancy()[np.asarray(cells, dtype=np.int64)])


def naive_probability_from_occupancy(probabilities) -> float:
    """The product rule on raw per-cell occupancy probabilities."""
    p = np.asarray(probabilities, dtype=np.float64)
    if p.size == 0:
        return 0.0
    return float(-np.expm1(np.sum(np.log1p(-p))))
