"""Per-beam oracles: the incremental grid walk, the scalar error disk, and
the per-beam count, log-odds and simulator updates that the scan functions
must equal; and the per-step footprint sweep and the per-arc planner cycle
that ``sweep_footprints`` and ``admissible_candidates`` must equal.

Each beam oracle folds one beam at a time, walking it with
``incremental_walk``, the scalar Amanatides & Woo loop, and rasterising its
disk with the scalar ``error_region_cells``, so none of them shares the
package's array traversal or disk code. The sweep oracle samples one step
at a time, and the planner oracle integrates each arc on its own with
``integrate_arc``, the scalar unicycle rule, and sweeps, reads and scores
one arc at a time.
"""

import math

import numpy as np

from lambdafield import GridGeometry
from lambdafield.field import COUNT_MAX
from lambdafield.path import (SAMPLES_PER_CELL, PathCrossing,
                              constant_velocity, expected_risk, momentum_risk)
from lambdafield.planner import TrajectoryCandidate
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

    row, col = divmod(int(geometry.flat_of_points(ox, oy)), geometry.n_cols)
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


def error_region_cells(geometry: GridGeometry, center: tuple[float, float],
                       radius: float) -> np.ndarray:
    """Oracle: flat indices of the cells whose centre lies within the disk
    around one return, in row-major order; cells outside the grid dropped."""
    cx, cy = center
    res = geometry.resolution
    col_lo = max(int(math.floor((cx - radius - geometry.origin_x) / res)), 0)
    col_hi = min(int(math.floor((cx + radius - geometry.origin_x) / res)),
                 geometry.n_cols - 1)
    row_lo = max(int(math.floor((cy - radius - geometry.origin_y) / res)), 0)
    row_hi = min(int(math.floor((cy + radius - geometry.origin_y) / res)),
                 geometry.n_rows - 1)
    out = []
    for row in range(row_lo, row_hi + 1):
        for col in range(col_lo, col_hi + 1):
            x = geometry.origin_x + (col + 0.5) * res
            y = geometry.origin_y + (row + 0.5) * res
            if (x - cx) ** 2 + (y - cy) ** 2 <= radius * radius:
                out.append(row * geometry.n_cols + col)
    return np.array(out, dtype=np.int64)


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
    holding a hit beam's endpoint toward occupied, each step clipped. The
    steps are this oracle's own clipped adds, one cell at a time."""
    end = beam.endpoint()
    cells = walk_records(grid.geometry, beam.origin, end)["cell"].tolist()
    if not cells:
        return
    occupied = int(grid.geometry.flat_or_outside(*end)) if beam.hit else -1
    steps = [(c, grid.l_free) for c in cells if c != occupied]
    if occupied >= 0:
        steps.append((occupied, grid.l_occ))
    clamp = grid.log_odds_clamp
    for cell, delta in steps:
        grid.log_odds[cell] = min(max(float(grid.log_odds[cell]) + delta,
                                      -clamp), clamp)


def simulate_scan(truth, pose, sensor, beam_count: int, seed: int) -> list:
    """The simulator, one beam walked and decided at a time. It makes the
    package's draws in the package's order: one per cell of every beam's
    walk, beam by beam; then one per beam for each of the place in the stop
    cell, the spurious-return test, the spurious range, the drop test and
    the jitter. The directions are the package's numpy expression, since
    what this oracle checks is the walk and the draws."""
    rng = np.random.default_rng(seed)
    x, y, theta = pose
    beam_width = truth.geometry.resolution
    angles = theta + 2.0 * math.pi * np.arange(beam_count) / beam_count
    directions = list(zip(np.cos(angles).tolist(), np.sin(angles).tolist()))
    walks = [incremental_walk(truth.geometry, (x, y),
                              (x + c * sensor.max_range, y + s * sensor.max_range))
             for c, s in directions]
    draws = iter(rng.random(sum(map(len, walks))).tolist())
    stop_draws = [[next(draws) for _ in walk] for walk in walks]
    place, spurious, spurious_at, keep, jitter = rng.random((5, beam_count))
    beams = []
    for k, (direction, walk) in enumerate(zip(directions, walks)):
        true_range, stopped = 0.0, False
        for (cell, chord), draw in zip(walk, stop_draws[k]):
            p_stop = -math.expm1(-chord * beam_width * truth.intensities[cell])
            if draw < p_stop:
                true_range += place[k] * chord
                stopped = True
                break
            true_range += chord
        measured, hit = sensor.max_range, False
        if spurious[k] > sensor.p_hit:
            measured, hit = max(spurious_at[k] * true_range, 1e-9), True
        elif stopped and keep[k] <= sensor.p_miss:
            r = true_range + (2.0 * jitter[k] - 1.0) * sensor.error_radius
            measured, hit = min(max(r, 1e-9), sensor.max_range), True
        beams.append(Beam((x, y), direction, float(measured), hit))
    return beams


def integrate_arc(pose: tuple[float, float, float], v: float, omega: float,
                  horizon: float, step: float) -> np.ndarray:
    """Oracle: the unicycle poses of one constant (v, omega) command, sampled
    every ``step`` meters of arc length (plus the exact endpoint), that each
    arc of ``planner.sample_arcs`` must equal bit for bit."""
    x0, y0, th0 = pose
    length = v * horizon
    if length == 0.0:
        return np.array([[x0, y0, th0]])
    n = max(1, int(math.ceil(length / step)))
    times = np.linspace(0.0, horizon, n + 1)
    if abs(omega) < 1e-12:
        xs = x0 + v * times * math.cos(th0)
        ys = y0 + v * times * math.sin(th0)
        ths = np.full_like(times, th0)
    else:
        radius = v / omega
        ths = th0 + omega * times
        xs = x0 + radius * (np.sin(ths) - math.sin(th0))
        ys = y0 - radius * (np.cos(ths) - math.cos(th0))
    return np.column_stack([xs, ys, ths])


def sample_arcs(pose, config) -> list:
    """The planner's (v, omega) grid of arcs, each integrated on its own with
    ``integrate_arc``."""
    vs = config.v_max * (np.arange(1, config.v_samples + 1) / config.v_samples)
    if config.omega_samples == 1:
        omegas = np.array([0.0])
    else:
        omegas = np.linspace(-config.omega_max, config.omega_max,
                             config.omega_samples)
    return [TrajectoryCandidate(float(v), float(omega), integrate_arc(
                pose, float(v), float(omega), config.horizon, config.step))
            for v in vs for omega in omegas]


def admissible_candidates(grid, pose, reference_path, shape, config) -> list:
    """The planner cycle one arc at a time: each arc of ``sample_arcs`` is
    swept with ``sweep_footprint`` on its own, read at its crossed cells,
    scored with the upper-bound momentum risk and, if it passes the gate,
    by its mean distance to the nearest reference pose."""
    if not grid.geometry.contains(pose[0], pose[1]):
        raise ValueError("pose outside grid")
    reference = np.asarray(reference_path, dtype=np.float64)[:, :2]
    admissible = []
    for cand in sample_arcs(pose, config):
        try:
            cells, areas = sweep_footprint(grid.geometry, cand.poses, shape.width)
        except ValueError:
            continue  # arc leaves the mapped area: never admissible
        crossing = PathCrossing(cells, areas, grid.lambda_map(cells),
                                *grid.bound_maps(cells))
        risk_fn = momentum_risk(shape, constant_velocity(cand.v))
        cand.risk_upper = expected_risk(crossing, risk_fn, use_bound="upper")
        if cand.risk_upper > config.max_risk:
            continue
        diffs = cand.poses[:, None, :2] - reference[None, :, :]
        cand.closeness = float(np.mean(np.min(np.linalg.norm(diffs, axis=2), axis=1)))
        admissible.append(cand)
    return admissible


def sweep_footprint(geometry, poses, width):
    """Oracle: the swept footprint one step at a time, with a running sum per
    cell in a dict whose insertion order is the traversal order, that
    ``path.sweep_footprints`` must equal bit for bit."""
    pts = np.asarray([(p[0], p[1]) for p in poses], dtype=np.float64)
    spacing = geometry.resolution / SAMPLES_PER_CELL
    n_w = max(3, int(math.ceil(width / spacing)))
    offsets = ((np.arange(n_w) + 0.5) / n_w - 0.5) * width
    areas = {}
    for a, b in zip(pts[:-1], pts[1:]):
        step_vec = b - a
        ds = float(np.hypot(*step_vec))
        if ds == 0.0:
            continue
        tangent = step_vec / ds
        normal = np.array([-tangent[1], tangent[0]])
        n_l = max(1, int(math.ceil(ds / spacing)))
        ts = (np.arange(n_l) + 0.5) / n_l
        centers = a[None, :] + ts[:, None] * step_vec[None, :]
        samples = (centers[:, None, :]
                   + offsets[None, :, None] * normal[None, None, :])
        samples = samples.reshape(-1, 2)
        try:
            flat = geometry.flat_of_points(samples[:, 0], samples[:, 1])
        except ValueError:
            raise ValueError("swept path exits grid") from None
        sample_area = width * ds / (n_l * n_w)
        for idx in flat.tolist():
            areas[idx] = areas.get(idx, 0.0) + sample_area
    return (np.fromiter(areas.keys(), dtype=np.int64, count=len(areas)),
            np.fromiter(areas.values(), dtype=np.float64, count=len(areas)))
