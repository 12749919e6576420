"""Beam integration into the intensity grid, plus a synthetic lidar simulator.

No scan function walks, draws or counts beam by beam in Python. What does
loop over the beams once each is building the ``Beam`` list that
``simulate_scan`` returns, and reading a list back into arrays in one pass
(``beam_arrays``, in ``apply_scan`` and ``bayes_scan``). Each scan function
traces its beams in one ``trace_beam`` call; a scan's no-return beams end
where the simulator traced them, and ``bayes_scan`` traces ``apply_scan``'s
segments, so when the three run in that order, a scan's no-return beams are
walked once and its returns twice. ``apply_scan`` rasterises all of its
error disks in one ``error_region_cells`` call and adds its hits and misses
each by one sort of the cell indices (``LambdaGrid.add_hits``, int32 keys
when the grid has at most 2**31 cells), each run of equal indices adding its
length, saturating at 2**32 - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import LambdaGrid, SensorModel
from .geometry import GridGeometry
from .raycast import centre_in_disk, error_region_cells, trace_beam


@dataclass(frozen=True)
class Beam:
    """One lidar ray: origin, unit direction, measured range, hit flag.

    A no-return beam carries measured_range == sensor max_range and hit=False,
    so ``endpoint()`` is where every beam ends: at its return, or at the
    sensor's maximum range.
    """

    origin: tuple[float, float]
    direction: tuple[float, float]
    measured_range: float
    hit: bool

    def endpoint(self) -> tuple[float, float]:
        return (self.origin[0] + self.direction[0] * self.measured_range,
                self.origin[1] + self.direction[1] * self.measured_range)


class GroundTruthMap:
    """True per-cell intensities used only by the simulator.

    Supports hard obstacles (large intensity) as well as sparse,
    vegetation-like matter (small intensity).
    """

    def __init__(self, geometry: GridGeometry, intensities: np.ndarray):
        intensities = np.asarray(intensities, dtype=np.float64).reshape(-1)
        if intensities.size != geometry.n_cells:
            raise ValueError("intensity array does not match grid size")
        if not (intensities >= 0).all():
            raise ValueError("true intensities must be nonnegative numbers")
        self.geometry = geometry
        self.intensities = intensities

    @classmethod
    def uniform(cls, geometry: GridGeometry, value: float = 0.0) -> "GroundTruthMap":
        return cls(geometry, np.full(geometry.n_cells, value))

    def set_block(self, x0: float, y0: float, x1: float, y1: float,
                  value: float) -> None:
        """Set the intensity of every cell whose center falls in the box.
        Raises ValueError on a NaN corner, which would select no cell."""
        if not value >= 0 or np.isnan([x0, y0, x1, y1]).any():
            raise ValueError(f"block ({x0}, {y0}, {x1}, {y1}) value {value}: "
                             f"need a value >= 0 and no NaN corner")
        geo = self.geometry
        cx, cy = geo.cell_center(np.arange(geo.n_cols), np.arange(geo.n_rows))
        cols = np.flatnonzero((cx >= x0) & (cx <= x1))
        rows = np.flatnonzero((cy >= y0) & (cy <= y1))
        self.intensities[(rows[:, None] * geo.n_cols + cols).ravel()] = value


def beam_arrays(beams: list[Beam]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(origins, endpoints, hit flags) of the beams: (n, 2), (n, 2), (n,)
    arrays, read in one pass; endpoints by ``Beam.endpoint``'s float ops."""
    rows = np.array([(*b.origin, *b.direction, b.measured_range, b.hit)
                     for b in beams], np.float64).reshape(-1, 6)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats do
        ends = rows[:, :2] + rows[:, 2:4] * rows[:, 4:5]
    return rows[:, :2], ends, rows[:, 5] != 0


def apply_scan(grid: LambdaGrid, beams: list[Beam], sensor: SensorModel) -> None:
    """Fold a scan's beams into the counts with one trace and one disk call.

    Hit beams: cells traversed strictly before the first traversed cell whose
    center is in the error disk get a miss; every cell whose center is inside
    the disk gets a hit. A cell both traversed and inside the disk counts as
    hit only. No-return beams mark every traversed cell as missed. Each beam
    adds one count per cell, so the result equals folding the beams in one at
    a time; the traced row count sets how many are folded in. A hit beam with
    a non-finite endpoint raises ValueError before any count. Only the last
    2 * ceil(r / res) + 6 cells of a hit row meet the disk test, which is
    exact: a crossed cell centred in the disk holds beam points within
    r + res / sqrt(2) of the return, and one axis's crossings lie at least
    res apart along the beam, so at most ceil(r / res) + 1 of each follow it."""
    geo, radius = grid.geometry, sensor.error_radius
    origins, ends, hit = beam_arrays(beams)
    cells = trace_beam(geo, origins, ends)["cell"]
    ends, hit = ends[:len(cells)], hit[:len(cells)]
    grid.add_hits(error_region_cells(geo, ends[hit], radius))
    missed = cells >= 0
    m, rows = cells.shape[1], np.flatnonzero(hit)[:, None]
    window = min(2 * math.ceil(min(radius / geo.resolution, m)) + 6, m)
    # a row shorter than the window also tests padding, which follows its cells
    at = np.maximum(missed[hit].sum(1, keepdims=True) - window, 0) + np.arange(window)
    missed[rows, at] &= ~np.logical_or.accumulate(centre_in_disk(
        geo, cells[rows, at], ends[rows, 0], ends[rows, 1], radius), axis=1)
    grid.add_misses(cells[missed])


def simulate_scan(truth: GroundTruthMap, pose: tuple[float, float, float],
                  sensor: SensorModel, beam_count: int,
                  rng: np.random.Generator | int) -> list[Beam]:
    """Synthesize one 360-degree scan from a pose over the true intensity map.

    Per crossed cell of chord l and true intensity lam, the beam stops with
    probability 1 - exp(-l * w_b * lam), the beam width proxy w_b being the
    grid resolution; the true range is the chords before the first stop,
    summed in order, plus a uniform share of the stop cell's chord. Noise:
    with probability 1 - p_hit a spurious early return is injected uniformly
    along the ray; with probability 1 - p_miss a true return is dropped;
    reported ranges are perturbed uniformly within the error disk radius.
    A pose whose beams could end at a coordinate that overflows raises
    ValueError. All beams are traced in one call, whose row count sets the
    beam count.
    Draws, in a fixed order: one per crossed cell, beam by beam from the
    origin outward (none for padding, so they do not depend on the other
    beams' lengths); then one per beam for each of the place in the stop
    cell, the spurious-return test, the spurious range, the drop test and
    the jitter."""
    rng = np.random.default_rng(rng)
    x, y, theta = pose
    if not np.isfinite(pose).all():
        raise ValueError(f"scan pose ({x}, {y}, {theta}) is not finite")
    if not truth.geometry.contains(x, y):
        raise ValueError(f"pose ({x}, {y}) outside map")
    # on Python floats, so an endpoint that overflows raises no warning
    if not all(math.isfinite(abs(float(v)) + float(sensor.max_range)) for v in (x, y)):
        raise ValueError(f"beams of max_range {sensor.max_range} from "
                         f"({x}, {y}) end past the largest float")
    angles = theta + 2.0 * math.pi * np.arange(beam_count) / beam_count
    cos, sin = np.cos(angles), np.sin(angles)
    traced = trace_beam(truth.geometry, (x, y), np.stack(
        [x + cos * sensor.max_range, y + sin * sensor.max_range], axis=1))
    n, m = traced.shape
    records = traced.reshape(-1)
    real = np.flatnonzero(records["cell"] >= 0)
    draws = rng.random(len(real))
    lam = truth.intensities[records["cell"][real]]
    # a draw is never below 0, so a cell with no matter never stops the beam
    matter = np.flatnonzero(lam > 0)
    at = real[matter]
    stops = np.zeros(n * m, bool)
    with np.errstate(over="ignore"):  # an overflow to inf is a certain stop
        stops[at] = draws[matter] < -np.expm1(
            -records["chord"][at] * truth.geometry.resolution * lam[matter])
    stops = stops.reshape(n, m)
    # the first stop's column, or m if none (the clipped ray's length, no
    # chord); argmax has no column to return in a trace of width 0
    first = (np.where(stops.any(axis=1), stops.argmax(axis=1), m) if m
             else np.zeros(n, np.intp))
    # the chords between two zero columns, summed in order by cumsum
    padded = np.zeros((n, m + 2))
    padded[:, 1:-1] = traced["chord"]
    rows = np.arange(n)
    stop_chord = padded[rows, first + 1]
    np.cumsum(padded, axis=1, out=padded)
    true_range = padded[rows, first] + rng.random(n) * stop_chord
    # a spurious return (e.g. a raindrop) before any true obstacle
    spurious = rng.random(n) > sensor.p_hit
    spurious_range = np.maximum(rng.random(n) * true_range, 1e-9)
    returned = (first < m) & ~spurious & (rng.random(n) <= sensor.p_miss)
    jittered = np.clip(true_range + (2.0 * rng.random(n) - 1.0) * sensor.error_radius,
                       1e-9, sensor.max_range)
    measured = np.where(spurious, spurious_range,
                        np.where(returned, jittered, sensor.max_range))
    return [Beam((x, y), (c, s), r, h) for c, s, r, h in zip(
        cos.tolist(), sin.tolist(), measured.tolist(), (spurious | returned).tolist())]
