"""Per-beam oracles: the incremental grid walk, and the per-beam count,
log-odds and simulator updates that the scan functions must equal.

Each oracle folds one beam at a time, walking it with ``incremental_walk``,
the scalar Amanatides & Woo loop, so none of them shares the package's array
traversal.
"""

import math

import numpy as np

from lambdafield import GridGeometry, error_region_cells
from lambdafield.field import COUNT_MAX
from lambdafield.raycast import CELL_CHORD
from lambdafield.sensor import Beam


def incremental_walk(geometry: GridGeometry, origin: tuple[float, float],
                     endpoint: tuple[float, float]) -> list[tuple[int, float]]:
    """Oracle: the incremental line-through-grid walk (one boundary crossing
    per step) that ``trace_beam`` must equal bit for bit."""
    ox, oy = origin
    ex, ey = endpoint
    if not geometry.contains(ox, oy):
        raise ValueError(f"beam origin ({ox}, {oy}) outside grid")
    dx = ex - ox
    dy = ey - oy
    seg_len = math.hypot(dx, dy)
    if seg_len == 0.0:
        return []

    # clip the parameter range [0, t_end] to the grid box
    t_end = 1.0
    if dx > 0:
        t_end = min(t_end, (geometry.origin_x + geometry.width - ox) / dx)
    elif dx < 0:
        t_end = min(t_end, (geometry.origin_x - ox) / dx)
    if dy > 0:
        t_end = min(t_end, (geometry.origin_y + geometry.height - oy) / dy)
    elif dy < 0:
        t_end = min(t_end, (geometry.origin_y - oy) / dy)
    if t_end <= 0.0:
        return []

    col, row = map(int, geometry.cell_of(ox, oy))
    res = geometry.resolution

    step_col = 1 if dx > 0 else -1
    step_row = 1 if dy > 0 else -1
    t_delta_x = res / abs(dx) if dx != 0 else math.inf
    t_delta_y = res / abs(dy) if dy != 0 else math.inf

    if dx > 0:
        t_max_x = (geometry.origin_x + (col + 1) * res - ox) / dx
    elif dx < 0:
        t_max_x = (geometry.origin_x + col * res - ox) / dx
    else:
        t_max_x = math.inf
    if dy > 0:
        t_max_y = (geometry.origin_y + (row + 1) * res - oy) / dy
    elif dy < 0:
        t_max_y = (geometry.origin_y + row * res - oy) / dy
    else:
        t_max_y = math.inf

    out: list[tuple[int, float]] = []
    t_prev = 0.0
    while True:
        t_next = min(t_max_x, t_max_y, t_end)
        chord = (t_next - t_prev) * seg_len
        if chord > 1e-12 * seg_len:  # drop degenerate slivers at boundaries
            out.append((row * geometry.n_cols + col, chord))
        if t_next >= t_end:
            break
        if t_max_x <= t_max_y:
            col += step_col
            t_max_x += t_delta_x
        else:
            row += step_row
            t_max_y += t_delta_y
        if not (0 <= col < geometry.n_cols and 0 <= row < geometry.n_rows):
            break
        t_prev = t_next
    return out


def walk_records(geometry: GridGeometry, origin, endpoint) -> np.ndarray:
    """``incremental_walk`` as one ``CELL_CHORD`` record per cell."""
    return np.array(incremental_walk(geometry, origin, endpoint), CELL_CHORD)


def _count(counts: np.ndarray, cells: np.ndarray) -> None:
    keep = counts[cells] < COUNT_MAX
    counts[cells[keep]] += 1


def apply_beam(grid, beam: Beam, sensor) -> None:
    """One beam into the counts: a hit beam misses the cells it crosses
    before the first one in its error disk and hits every disk cell; a
    no-return beam misses every cell it crosses."""
    end = beam.endpoint()
    cells = walk_records(grid.geometry, beam.origin, end)["cell"]
    if beam.hit:
        region = error_region_cells(grid.geometry, end, sensor.error_radius)
        in_region = (cells[:, None] == region).any(axis=1)
        if in_region.any():
            cells = cells[:np.argmax(in_region)]
        _count(grid.hits, region)
    _count(grid.misses, cells)


def bayes_update(grid, beam: Beam) -> None:
    """One beam into the log-odds: crossed cells toward free, then the cell
    holding a hit beam's endpoint toward occupied, each step clipped."""
    end = beam.endpoint()
    cells = walk_records(grid.geometry, beam.origin, end)["cell"]
    if not len(cells):
        return
    if beam.hit and grid.geometry.contains(*end):
        occupied = grid.geometry.flat(*grid.geometry.cell_of(*end))
        grid._bump(cells[cells != occupied], grid.l_free)
        grid._bump(np.asarray([occupied]), grid.l_occ)
    else:
        grid._bump(cells, grid.l_free)


def simulate_scan(truth, pose, sensor, beam_count: int, seed: int) -> list:
    """The simulator, one beam walked and drawn at a time."""
    rng = np.random.default_rng(seed)
    x, y, theta = pose
    beam_width = truth.geometry.resolution
    beams = []
    for k in range(beam_count):
        angle = theta + 2.0 * math.pi * k / beam_count
        direction = (math.cos(angle), math.sin(angle))
        end = (x + direction[0] * sensor.max_range,
               y + direction[1] * sensor.max_range)
        traversed = walk_records(truth.geometry, (x, y), end)
        chords = traversed["chord"]
        p_stop = -np.expm1(-chords * beam_width
                           * truth.intensities[traversed["cell"]])
        stops = np.flatnonzero(rng.random(len(chords)) < p_stop)
        true_range = None
        if stops.size:
            first = int(stops[0])
            dist_before = float(np.sum(chords[:first]))
            true_range = dist_before + float(rng.random()) * float(chords[first])
        ray_len = float(np.cumsum(chords)[-1]) if len(chords) else 0.0
        measured, hit = sensor.max_range, False
        if rng.random() > sensor.p_hit:
            upper = true_range if true_range is not None else ray_len
            rng_range = float(rng.random()) * upper if upper > 0 else 0.0
            measured, hit = max(rng_range, 1e-9), True
        elif true_range is not None and rng.random() <= sensor.p_miss:
            jitter = (2.0 * float(rng.random()) - 1.0) * sensor.error_radius
            measured = min(max(true_range + jitter, 1e-9), sensor.max_range)
            hit = True
        beams.append(Beam((x, y), direction, measured, hit))
    return beams
