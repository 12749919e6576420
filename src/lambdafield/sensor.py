"""Beam integration into the intensity grid, plus a synthetic lidar simulator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import LambdaGrid, SensorModel
from .geometry import GridGeometry
from .raycast import error_region_cells, trace_beam


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
        cols, rows = np.meshgrid(np.arange(geo.n_cols), np.arange(geo.n_rows))
        cx = geo.origin_x + (cols + 0.5) * geo.resolution
        cy = geo.origin_y + (rows + 0.5) * geo.resolution
        inside = (cx >= x0) & (cx <= x1) & (cy >= y0) & (cy <= y1)
        self.intensities[(rows[inside] * geo.n_cols + cols[inside])] = value


def apply_beam(grid: LambdaGrid, beam: Beam, sensor: SensorModel) -> None:
    """Fold one beam into the counts.

    Hit beams: cells traversed strictly before the error disk get a miss;
    every cell whose center is inside the disk gets a hit. A cell both
    traversed and inside the disk counts as hit only (the per-beam cell sets
    are disjoint). No-return beams mark every traversed cell as missed.
    """
    end = beam.endpoint()
    cells = trace_beam(grid.geometry, beam.origin, end)["cell"]
    if beam.hit:
        region = error_region_cells(grid.geometry, end, sensor.error_radius)
        in_region = (cells[:, None] == region).any(axis=1)
        if in_region.any():
            cells = cells[:np.argmax(in_region)]
        grid.add_hits(region)
    grid.add_misses(cells)


def apply_scan(grid: LambdaGrid, beams: list[Beam], sensor: SensorModel) -> None:
    for beam in beams:
        apply_beam(grid, beam, sensor)


def simulate_scan(truth: GroundTruthMap, pose: tuple[float, float, float],
                  sensor: SensorModel, beam_count: int,
                  rng: np.random.Generator | int) -> list[Beam]:
    """Synthesize one 360-degree scan from a pose over the true intensity map.

    Per crossed cell of chord l and true intensity lam, the beam stops with
    probability 1 - exp(-l * w_b * lam) where the beam width proxy w_b is the
    grid resolution. Noise: with probability 1 - p_hit a spurious early
    return is injected uniformly along the ray; with probability 1 - p_miss a
    true return is dropped; reported ranges are perturbed uniformly within
    the error disk radius. Deterministic for a fixed seed.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    x, y, theta = pose
    if not np.isfinite(pose).all():
        raise ValueError(f"scan pose ({x}, {y}, {theta}) is not finite")
    if not truth.geometry.contains(x, y):
        raise ValueError(f"pose ({x}, {y}) outside map")
    beam_width = truth.geometry.resolution
    beams: list[Beam] = []
    for k in range(beam_count):
        angle = theta + 2.0 * math.pi * k / beam_count
        direction = (math.cos(angle), math.sin(angle))
        end = (x + direction[0] * sensor.max_range,
               y + direction[1] * sensor.max_range)
        traversed = trace_beam(truth.geometry, (x, y), end)
        chords = traversed["chord"]
        p_stop = -np.expm1(-chords * beam_width
                           * truth.intensities[traversed["cell"]])
        stops = np.flatnonzero(rng.random(len(chords)) < p_stop)
        true_range = None
        if stops.size:
            first = int(stops[0])
            dist_before = float(np.sum(chords[:first]))
            true_range = dist_before + float(rng.random()) * float(chords[first])
        # the clipped ray's length, its chords summed in order
        ray_len = float(np.cumsum(chords)[-1]) if len(chords) else 0.0

        measured, hit = sensor.max_range, False  # no return
        if rng.random() > sensor.p_hit:
            # spurious return (e.g. a raindrop) before any true obstacle
            upper = true_range if true_range is not None else ray_len
            rng_range = float(rng.random()) * upper if upper > 0 else 0.0
            measured, hit = max(rng_range, 1e-9), True
        elif true_range is not None and rng.random() <= sensor.p_miss:
            jitter = (2.0 * float(rng.random()) - 1.0) * sensor.error_radius
            measured = min(max(true_range + jitter, 1e-9), sensor.max_range)
            hit = True
        beams.append(Beam((x, y), direction, measured, hit))
    return beams
