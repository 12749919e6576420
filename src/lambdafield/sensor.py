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

    A no-return beam carries measured_range == sensor max_range and hit=False.
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
        """Set the intensity of every cell whose center falls in the box."""
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
    if beam.hit:
        end = beam.endpoint()
        region = error_region_cells(grid.geometry, end, sensor.error_radius)
        region_set = set(int(i) for i in region)
        traversed = trace_beam(grid.geometry, beam.origin, end)
        miss_cells = []
        for idx, _ in traversed:
            if idx in region_set:
                break
            miss_cells.append(idx)
        if miss_cells:
            grid.add_misses(np.asarray(miss_cells, dtype=np.int64))
        if region.size:
            grid.add_hits(region)
    else:
        end = (beam.origin[0] + beam.direction[0] * sensor.max_range,
               beam.origin[1] + beam.direction[1] * sensor.max_range)
        traversed = trace_beam(grid.geometry, beam.origin, end)
        if traversed:
            grid.add_misses(np.asarray([i for i, _ in traversed], dtype=np.int64))


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
        true_range = None
        if traversed:
            idx = np.fromiter((i for i, _ in traversed), dtype=np.int64,
                              count=len(traversed))
            chords = np.fromiter((c for _, c in traversed), dtype=np.float64,
                                 count=len(traversed))
            p_stop = -np.expm1(-chords * beam_width * truth.intensities[idx])
            u = rng.random(len(traversed))
            stops = np.nonzero(u < p_stop)[0]
            if stops.size:
                first = int(stops[0])
                dist_before = float(np.sum(chords[:first]))
                true_range = dist_before + float(rng.random()) * float(chords[first])
        ray_len = float(sum(c for _, c in traversed)) if traversed else 0.0

        if rng.random() > sensor.p_hit:
            # spurious return (e.g. a raindrop) before any true obstacle
            upper = true_range if true_range is not None else ray_len
            rng_range = float(rng.random()) * upper if upper > 0 else 0.0
            measured = max(rng_range, 1e-9)
            beams.append(Beam((x, y), direction, measured, True))
            continue
        if true_range is not None:
            if rng.random() > sensor.p_miss:
                beams.append(Beam((x, y), direction, sensor.max_range, False))
                continue
            jitter = (2.0 * float(rng.random()) - 1.0) * sensor.error_radius
            measured = min(max(true_range + jitter, 1e-9), sensor.max_range)
            beams.append(Beam((x, y), direction, measured, True))
        else:
            beams.append(Beam((x, y), direction, sensor.max_range, False))
    return beams
