"""Poisson-intensity occupancy grid: per-cell MLE and confidence bounds.

Intensities have units 1/m^2. Cells with hits but no misses are clamped to a
configurable ``lambda_max`` so every path integral stays finite. The
scalar estimators run the same array kernels as ``LambdaGrid`` on one cell,
so a scalar and a map value agree bit for bit.
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
        if not self.error_area > 0:
            raise ValueError("error_area must be > 0")
        if not self.max_range > 0:
            raise ValueError("max_range must be > 0")

    @property
    def error_radius(self) -> float:
        return math.sqrt(self.error_area / math.pi)


@dataclass
class CellStats:
    """Hit/miss tallies for one cell. Counts only ever increase."""

    hits: int = 0
    misses: int = 0

    def __post_init__(self):
        if self.hits < 0 or self.misses < 0:
            raise ValueError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def observed(self) -> bool:
        return self.total > 0


@dataclass(frozen=True)
class ConfidenceInterval:
    lambda_low: float
    lambda_high: float
    level: float = 0.95

    @property
    def width(self) -> float:
        return self.lambda_high - self.lambda_low


def lambda_mle(stats: CellStats, sensor: SensorModel,
               lambda_max: float = DEFAULT_LAMBDA_MAX) -> float:
    """Closed-form maximum-likelihood intensity (1/e) * ln(1 + h/m).

    Total by policy: h = 0 gives 0 (including the unobserved case, see
    ``CellStats.observed``); m = 0 with h > 0 saturates at ``lambda_max``.
    """
    h, m = np.array([[stats.hits], [stats.misses]], dtype=np.float64)
    return float(_mle(h, m, sensor.error_area, lambda_max)[0])


def lambda_from_count(k: float, total: float, error_area: float,
                      lambda_max: float = DEFAULT_LAMBDA_MAX) -> float:
    """Map a (possibly fractional) hit count out of ``total`` to an intensity.

    Strictly increasing in k on [0, total); k = total saturates at lambda_max.
    """
    if total <= 0:
        raise ValueError("total count must be > 0")
    if k < 0 or k > total:
        raise ValueError(f"count {k} outside [0, {total}]")
    k, total = np.array([[k], [total]], dtype=np.float64)
    return float(_from_counts(k, total, error_area, lambda_max)[0])


def confidence_bounds(stats: CellStats, sensor: SensorModel,
                      lambda_max: float = DEFAULT_LAMBDA_MAX) -> ConfidenceInterval:
    """95% interval on the intensity via the Gaussian count approximation.

    The hit count is a sum of two binomials (true hits kept, misses misread
    as hits); its Poisson-binomial law is approximated by a Gaussian of equal
    mean and variance, clamped to the feasible count range. Unobserved cells
    get the vacuous interval [0, lambda_max].
    """
    h, m = np.array([[stats.hits], [stats.misses]], dtype=np.float64)
    low, high = _bounds(h, m, sensor, lambda_max)
    return ConfidenceInterval(float(low[0]), float(high[0]))


def _mle(h: np.ndarray, m: np.ndarray, error_area: float,
         lambda_max: float) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.log1p(h / m) / error_area
    lam = np.where(h == 0, 0.0, lam)
    lam = np.where((m == 0) & (h > 0), lambda_max, lam)
    return np.minimum(lam, lambda_max)


def _bounds(h: np.ndarray, m: np.ndarray, sensor: SensorModel,
            lambda_max: float) -> tuple[np.ndarray, np.ndarray]:
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
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.log1p(k / (total - k)) / error_area
    lam = np.where(k <= 0, 0.0, lam)
    lam = np.where((total > 0) & (k >= total), lambda_max, lam)
    return np.minimum(np.nan_to_num(lam, nan=0.0), lambda_max)


def collision_probability(integrated: float) -> float:
    """Probability of at least one collision given the integrated intensity."""
    if integrated < 0:
        raise ValueError(f"integrated intensity must be >= 0, got {integrated}")
    return -math.expm1(-integrated)


def _add_counts(counts: np.ndarray, indices: np.ndarray) -> None:
    """One count per occurrence of each flat index, saturating at COUNT_MAX."""
    occurrences = np.bincount(np.asarray(indices, dtype=np.int64))
    cells = np.flatnonzero(occurrences)
    counts[cells] = np.minimum(counts[cells] + occurrences[cells], COUNT_MAX)


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

    def stats(self, index: int) -> CellStats:
        return CellStats(int(self.hits[index]), int(self.misses[index]))

    def lambda_map(self, cells=slice(None)) -> np.ndarray:
        """MLE intensities of the flat ``cells`` (default all); reads only those."""
        return _mle(self.hits[cells].astype(np.float64),
                    self.misses[cells].astype(np.float64),
                    self.sensor.error_area, self.lambda_max)

    def bound_maps(self, cells=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """(lambda_low, lambda_high) of the flat ``cells`` (default all);
        unobserved cells map to [0, lambda_max]."""
        return _bounds(self.hits[cells].astype(np.float64),
                       self.misses[cells].astype(np.float64), self.sensor,
                       self.lambda_max)
