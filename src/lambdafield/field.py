"""Poisson-intensity occupancy grid: per-cell MLE and confidence bounds.

Intensities have units 1/m^2. Cells with hits but no misses are clamped to a
configurable ``lambda_max`` so every path integral stays finite. The MLE
and both bounds map counts to intensities through one kernel,
``_from_counts``, read only through ``LambdaGrid.lambda_map``/``bound_maps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import GridGeometry

DEFAULT_LAMBDA_MAX = 100.0
Z_95 = 1.96
COUNT_MAX = np.iinfo(np.uint32).max


@dataclass(frozen=True)
class SensorModel:
    """Lidar noise model: hit/miss reliabilities and the measurement error disk.

    ``error_area`` is the area of the disk containing the true obstacle
    position around each range return; it normalizes the intensity estimate.
    """

    p_hit: float = 0.99
    p_miss: float = 0.9999
    error_area: float = 0.04
    max_range: float = 10.0

    def __post_init__(self):
        if not 0 < self.p_hit <= 1:
            raise ValueError(f"p_hit must be in (0, 1], got {self.p_hit}")
        if not 0 < self.p_miss <= 1:
            raise ValueError(f"p_miss must be in (0, 1], got {self.p_miss}")
        if not 0 < self.error_area < math.inf:
            raise ValueError(f"error_area must be finite and > 0, got {self.error_area}")
        if not 0 < self.max_range < math.inf:
            raise ValueError(f"max_range must be finite and > 0, got {self.max_range}")

    @property
    def error_radius(self) -> float:
        return math.sqrt(self.error_area / math.pi)


def _bounds(h: np.ndarray, m: np.ndarray, sensor: SensorModel,
            lambda_max: float) -> tuple[np.ndarray, np.ndarray]:
    """95% interval on the intensity: the hit count, a sum of two binomials
    (true hits kept, misses misread as hits), is approximated by a Gaussian
    of equal mean and variance, clamped to the feasible count range."""
    total = h + m
    mu = h * sensor.p_hit + m * (1.0 - sensor.p_miss)
    var = (h * (1.0 - sensor.p_hit) * sensor.p_hit
           + m * (1.0 - sensor.p_miss) * sensor.p_miss)
    sigma = np.sqrt(var)
    k_low = np.clip(mu - Z_95 * sigma, 0.0, None)
    k_high = np.minimum(mu + Z_95 * sigma, total)
    low = _from_counts(k_low, total, sensor.error_area, lambda_max)
    high = _from_counts(k_high, total, sensor.error_area, lambda_max)
    unobserved = total == 0
    low[unobserved] = 0.0
    high[unobserved] = lambda_max
    return low, high


def _from_counts(k: np.ndarray, total: np.ndarray, error_area: float,
                 lambda_max: float) -> np.ndarray:
    """Intensity (1/e) * ln(1 + k/(total - k)) of a (possibly fractional)
    hit count 0 <= k <= total: strictly increasing in k on [0, total).
    The odds k/(total - k) are divided only where 0 < k < total; elsewhere
    they are 0 for k = 0 (also for total = 0), so the intensity is 0, and
    inf for k = total > 0, which saturates at lambda_max.
    """
    hit = 0 < k
    odds = np.divide(k, total - k, out=np.where(hit, np.inf, 0.0),
                     where=hit & (k < total))
    return np.minimum(np.log1p(odds) / error_area, lambda_max)


def collision_probability(integrated: float) -> float:
    """Probability of at least one collision given the integrated intensity."""
    if integrated < 0:
        raise ValueError(f"integrated intensity must be >= 0, got {integrated}")
    return -math.expm1(-integrated)


def _run_heads(a: np.ndarray) -> np.ndarray:
    """Positions in ``a`` where a run of equal values starts."""
    return np.flatnonzero(np.concatenate((np.ones(len(a[:1]), bool), a[1:] != a[:-1])))


def _add_counts(counts: np.ndarray, indices) -> None:
    """One count per occurrence of each flat index, saturating at COUNT_MAX:
    one sort of the indices (int32 if the grid fits), each run adds its length."""
    keys = np.sort(np.asarray(indices, np.int32 if len(counts) <= 2**31 else np.int64))
    head = _run_heads(keys)
    cells, k = keys[head].astype(np.intp), np.diff(head, append=len(keys))
    counts[cells] = np.minimum(counts[cells] + k, COUNT_MAX)


class LambdaGrid:
    """Dense grid of hit/miss counts with derived intensity maps."""

    def __init__(self, geometry: GridGeometry, sensor: SensorModel,
                 lambda_max: float = DEFAULT_LAMBDA_MAX):
        if not lambda_max > 0:
            raise ValueError("lambda_max must be > 0")
        self.geometry = geometry
        self.sensor = sensor
        self.lambda_max = lambda_max
        self.hits = np.zeros(geometry.n_cells, dtype=np.uint32)
        self.misses = np.zeros(geometry.n_cells, dtype=np.uint32)

    def add_hits(self, indices: np.ndarray) -> None:
        _add_counts(self.hits, indices)

    def add_misses(self, indices: np.ndarray) -> None:
        _add_counts(self.misses, indices)

    def lambda_map(self, cells=slice(None)) -> np.ndarray:
        """MLE intensities (1/e) * ln(1 + h/m) of the flat ``cells`` (default
        all); reads only those. h = 0 gives 0, also for unobserved cells;
        m = 0 with h > 0 saturates at ``lambda_max``."""
        h = self.hits[cells].astype(np.float64)
        return _from_counts(h, h + self.misses[cells], self.sensor.error_area,
                            self.lambda_max)

    def bound_maps(self, cells=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """(lambda_low, lambda_high) of the flat ``cells`` (default all);
        unobserved cells map to [0, lambda_max]."""
        return _bounds(self.hits[cells].astype(np.float64),
                       self.misses[cells].astype(np.float64), self.sensor,
                       self.lambda_max)
