"""Reference implementations for the output checks, kept frozen.

Plain copies of lambdafield's per-beam traversal, error-disk rasterisation,
count and log-odds updates, confidence bounds, footprint sweep, risk sums
and arc sampling, as they stood when the benchmark was defined. They work on
bare numpy arrays and share no code with the package, so a faster
traversal, sweep or bound computation that visits other cells or gives other
numbers fails the checks instead of being compared with itself.

Keep this file as it is when the package changes: it is the specification
the benchmark holds the package to.
"""

from __future__ import annotations

import math

import numpy as np

Z_95 = 1.96
LAMBDA_MAX = 100.0


def _contains(geo, x: float, y: float) -> bool:
    return (geo.origin_x <= x < geo.origin_x + geo.n_cols * geo.resolution
            and geo.origin_y <= y < geo.origin_y + geo.n_rows * geo.resolution)


def _cell_of(geo, x: float, y: float) -> tuple[int, int]:
    col = int((x - geo.origin_x) / geo.resolution)
    row = int((y - geo.origin_y) / geo.resolution)
    return min(col, geo.n_cols - 1), min(row, geo.n_rows - 1)


def trace_beam(geo, origin, endpoint) -> list[tuple[int, float]]:
    """(flat cell, chord length) of every cell the segment crosses, from the
    origin outward; the endpoint is clipped to the grid."""
    ox, oy = origin
    ex, ey = endpoint
    if not _contains(geo, ox, oy):
        raise ValueError(f"beam origin ({ox}, {oy}) outside grid")
    dx = ex - ox
    dy = ey - oy
    seg_len = math.hypot(dx, dy)
    if seg_len == 0.0:
        return []
    res = geo.resolution
    t_end = 1.0
    if dx > 0:
        t_end = min(t_end, (geo.origin_x + geo.n_cols * res - ox) / dx)
    elif dx < 0:
        t_end = min(t_end, (geo.origin_x - ox) / dx)
    if dy > 0:
        t_end = min(t_end, (geo.origin_y + geo.n_rows * res - oy) / dy)
    elif dy < 0:
        t_end = min(t_end, (geo.origin_y - oy) / dy)
    if t_end <= 0.0:
        return []
    col, row = _cell_of(geo, ox, oy)
    step_col = 1 if dx > 0 else -1
    step_row = 1 if dy > 0 else -1
    t_delta_x = res / abs(dx) if dx != 0 else math.inf
    t_delta_y = res / abs(dy) if dy != 0 else math.inf
    if dx > 0:
        t_max_x = (geo.origin_x + (col + 1) * res - ox) / dx
    elif dx < 0:
        t_max_x = (geo.origin_x + col * res - ox) / dx
    else:
        t_max_x = math.inf
    if dy > 0:
        t_max_y = (geo.origin_y + (row + 1) * res - oy) / dy
    elif dy < 0:
        t_max_y = (geo.origin_y + row * res - oy) / dy
    else:
        t_max_y = math.inf
    out: list[tuple[int, float]] = []
    t_prev = 0.0
    while True:
        t_next = min(t_max_x, t_max_y, t_end)
        chord = (t_next - t_prev) * seg_len
        if chord > 1e-12 * seg_len:
            out.append((row * geo.n_cols + col, chord))
        if t_next >= t_end:
            break
        if t_max_x <= t_max_y:
            col += step_col
            t_max_x += t_delta_x
        else:
            row += step_row
            t_max_y += t_delta_y
        if not (0 <= col < geo.n_cols and 0 <= row < geo.n_rows):
            break
        t_prev = t_next
    return out


def error_region_cells(geo, center, radius: float) -> np.ndarray:
    """Flat indices of the cells whose centre lies within the disk."""
    cx, cy = center
    res = geo.resolution
    col_lo = max(int(math.floor((cx - radius - geo.origin_x) / res)), 0)
    col_hi = min(int(math.floor((cx + radius - geo.origin_x) / res)),
                 geo.n_cols - 1)
    row_lo = max(int(math.floor((cy - radius - geo.origin_y) / res)), 0)
    row_hi = min(int(math.floor((cy + radius - geo.origin_y) / res)),
                 geo.n_rows - 1)
    if col_lo > col_hi or row_lo > row_hi:
        return np.empty(0, dtype=np.int64)
    cols, rows = np.meshgrid(np.arange(col_lo, col_hi + 1),
                             np.arange(row_lo, row_hi + 1))
    centers_x = geo.origin_x + (cols + 0.5) * res
    centers_y = geo.origin_y + (rows + 0.5) * res
    inside = (centers_x - cx) ** 2 + (centers_y - cy) ** 2 <= radius * radius
    return (rows[inside] * geo.n_cols + cols[inside]).astype(np.int64)


def _beam_end(beam, max_range: float) -> tuple[float, float]:
    r = beam.measured_range if beam.hit else max_range
    return (beam.origin[0] + beam.direction[0] * r,
            beam.origin[1] + beam.direction[1] * r)


def apply_scan(hits: np.ndarray, misses: np.ndarray, geo, beams,
               sensor) -> None:
    """Fold beams into hit/miss counts. A hit beam misses the cells it
    crosses before its error disk and hits every cell of the disk; a
    no-return beam misses every cell it crosses."""
    radius = math.sqrt(sensor.error_area / math.pi)
    for beam in beams:
        end = _beam_end(beam, sensor.max_range)
        traversed = trace_beam(geo, beam.origin, end)
        if beam.hit:
            region = error_region_cells(geo, end, radius)
            region_set = set(int(i) for i in region)
            miss_cells = []
            for idx, _ in traversed:
                if idx in region_set:
                    break
                miss_cells.append(idx)
            misses[miss_cells] += 1
            hits[region] += 1
        else:
            misses[[i for i, _ in traversed]] += 1


def bayes_scan(log_odds: np.ndarray, geo, beams, sensor, l_occ: float,
               l_free: float, clamp: float) -> None:
    """Log-odds update: crossed cells toward free, the endpoint cell of a
    hit beam toward occupied, each step clipped to [-clamp, clamp]."""
    def bump(cells, delta):
        if len(cells):
            log_odds[cells] = np.clip(log_odds[cells] + delta, -clamp, clamp)

    for beam in beams:
        end = _beam_end(beam, sensor.max_range)
        traversed = trace_beam(geo, beam.origin, end)
        if not traversed:
            continue
        cells = np.asarray([i for i, _ in traversed], dtype=np.int64)
        if beam.hit and _contains(geo, *end):
            col, row = _cell_of(geo, *end)
            occupied = row * geo.n_cols + col
            bump(cells[cells != occupied], l_free)
            bump(np.asarray([occupied]), l_occ)
        else:
            bump(cells, l_free)


def upper_bound_map(hits: np.ndarray, misses: np.ndarray, sensor,
                    lambda_max: float = LAMBDA_MAX) -> np.ndarray:
    """Per-cell 95 % upper intensity bound (Gaussian approximation of the
    hit count); unobserved cells get lambda_max."""
    h = hits.astype(np.float64)
    m = misses.astype(np.float64)
    total = h + m
    mu = h * sensor.p_hit + m * (1.0 - sensor.p_miss)
    var = (h * (1.0 - sensor.p_hit) * sensor.p_hit
           + m * (1.0 - sensor.p_miss) * sensor.p_miss)
    k = np.minimum(mu + Z_95 * np.sqrt(var), total)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.log1p(k / (total - k)) / sensor.error_area
    lam = np.where(k <= 0, 0.0, lam)
    lam = np.where((total > 0) & (k >= total), lambda_max, lam)
    lam = np.minimum(np.nan_to_num(lam, nan=0.0), lambda_max)
    lam[total == 0] = lambda_max
    return lam


def swept_cells(geo, poses, width: float, samples_per_cell: int = 5):
    """(cells in first-visit order, crossed areas) of a rectangle of the
    given width swept along the poses, by midpoint supersampling; None if
    any sample leaves the grid."""
    pts = np.asarray([(p[0], p[1]) for p in poses], dtype=np.float64)
    res = geo.resolution
    n_w = max(3, int(math.ceil(width / (res / samples_per_cell))))
    offsets = ((np.arange(n_w) + 0.5) / n_w - 0.5) * width
    order: dict[int, int] = {}
    areas: dict[int, float] = {}
    for a, b in zip(pts[:-1], pts[1:]):
        step_vec = b - a
        ds = float(np.hypot(*step_vec))
        if ds == 0.0:
            continue
        tangent = step_vec / ds
        normal = np.array([-tangent[1], tangent[0]])
        n_l = max(1, int(math.ceil(ds / (res / samples_per_cell))))
        ts = (np.arange(n_l) + 0.5) / n_l
        centers = a[None, :] + ts[:, None] * step_vec[None, :]
        samples = (centers[:, None, :]
                   + offsets[None, :, None] * normal[None, None, :]).reshape(-1, 2)
        cols = np.floor((samples[:, 0] - geo.origin_x) / res).astype(np.int64)
        rows = np.floor((samples[:, 1] - geo.origin_y) / res).astype(np.int64)
        if ((cols < 0) | (cols >= geo.n_cols)
                | (rows < 0) | (rows >= geo.n_rows)).any():
            return None
        sample_area = width * ds / (n_l * n_w)
        for idx in (rows * geo.n_cols + cols).tolist():
            if idx not in order:
                order[idx] = len(order)
                areas[idx] = 0.0
            areas[idx] += sample_area
    cells = np.array(sorted(order, key=order.get), dtype=np.int64)
    return cells, np.array([areas[int(i)] for i in cells])


def collision_probability(areas: np.ndarray, lam: np.ndarray) -> float:
    return -math.expm1(-float(np.dot(areas, lam))) if len(areas) else 0.0


def expected_risk(areas: np.ndarray, lam: np.ndarray, risk_fn) -> float:
    """Sum over cells of r(A(i)) * P(no collision before i) * P(collision
    in i), with A(i) the area crossed before cell i."""
    if len(areas) == 0:
        return 0.0
    cum = np.concatenate(([0.0], np.cumsum(areas)))
    exponents = areas * lam
    survive = np.exp(-np.concatenate(([0.0], np.cumsum(exponents[:-1]))))
    hit_here = -np.expm1(-exponents)
    r_vals = np.array([risk_fn(float(a)) for a in cum[:-1]])
    return float(np.sum(r_vals * survive * hit_here))


def arcs(pose, config) -> list[tuple[float, float, np.ndarray]]:
    """(v, omega, poses) of the planner's candidate arcs, in its order."""
    vs = config.v_max * (np.arange(1, config.v_samples + 1) / config.v_samples)
    if config.omega_samples == 1:
        omegas = np.array([0.0])
    else:
        omegas = np.linspace(-config.omega_max, config.omega_max,
                             config.omega_samples)
    return [(float(v), float(w), integrate_arc(pose, float(v), float(w),
                                               config.horizon, config.step))
            for v in vs for w in omegas]


def integrate_arc(pose, v: float, omega: float, horizon: float,
                  step: float) -> np.ndarray:
    """Unicycle poses of a constant (v, omega) command, one every ``step``
    metres of arc plus the endpoint."""
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


def closeness(poses: np.ndarray, reference: np.ndarray) -> float:
    """Mean distance from each arc pose to the nearest reference point."""
    diffs = poses[:, None, :2] - reference[None, :, :2]
    return float(np.mean(np.min(np.linalg.norm(diffs, axis=2), axis=1)))


def read_dump_body(path, marker: str) -> list[str]:
    """The lines of a text grid dump after its ``marker`` line."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[lines.index(marker) + 1:]
