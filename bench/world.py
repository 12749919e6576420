"""Seeded world shared by every workload: walls, blocks, a closed robot loop.

Everything is derived from the workload seed; no data files are read. The
world is a square of ``cells`` x ``cells`` cells at 5 cm. The loop radius,
the clearances, the block count and the largest block size scale with the
world side, so the same generator gives the 400-cell benchmark world and a
toy world for the smoke test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RESOLUTION = 0.05          # m per cell
HARD = 80.0                # 1/m^2, walls and hard blocks
SPARSE = (0.5, 3.0)        # 1/m^2, range of "vegetation" intensities
WALL = 0.2                 # m, border wall thickness
LOOP_SPACING = 0.5         # m between loop poses
BEAMS = 360
MAX_RANGE = 8.0
BLOCKED_APPROACH = 0.3     # m from the blocked start pose to the block face
BLOCKED_BEYOND = 1.5       # m from the block face on to the blocked goal
MIN_BLOCK = 0.6            # m; wider than the robot, so no arc slips past a face


@dataclass(frozen=True)
class Block:
    box: tuple[float, float, float, float]   # x0, y0, x1, y1
    value: float

    @property
    def hard(self) -> bool:
        return self.value == HARD


@dataclass(frozen=True)
class World:
    cells: int
    blocks: tuple[Block, ...]          # walls first, then the placed blocks
    loop: np.ndarray                   # (N, 3) closed loop of poses
    blocked_start: tuple[float, float, float]
    blocked_goal: tuple[float, float]


def _ellipse(cx, cy, rx, ry, phase, n):
    t = phase + np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.column_stack([cx + rx * np.cos(t), cy + ry * np.sin(t)])


def _resample_closed(points: np.ndarray, spacing: float) -> np.ndarray:
    """Poses every ``spacing`` metres of arc length along a closed polyline,
    heading along the tangent."""
    closed = np.vstack([points, points[:1]])
    seg = np.hypot(*np.diff(closed, axis=0).T)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    n = max(8, int(round(cum[-1] / spacing)))
    s = np.arange(n) * (cum[-1] / n)
    xs = np.interp(s, cum, closed[:, 0])
    ys = np.interp(s, cum, closed[:, 1])
    nxt = np.roll(np.arange(n), -1)
    theta = np.arctan2(ys[nxt] - ys, xs[nxt] - xs)
    return np.column_stack([xs, ys, theta])


def _rect_distance(box, pts: np.ndarray) -> np.ndarray:
    x0, y0, x1, y1 = box
    dx = np.maximum(np.maximum(x0 - pts[:, 0], 0.0), pts[:, 0] - x1)
    dy = np.maximum(np.maximum(y0 - pts[:, 1], 0.0), pts[:, 1] - y1)
    return np.hypot(dx, dy)


def _boxes_gap(a, b) -> float:
    dx = max(a[0] - b[2], b[0] - a[2], 0.0)
    dy = max(a[1] - b[3], b[1] - a[3], 0.0)
    return math.hypot(dx, dy)


def generate(seed: int, cells: int = 400) -> World:
    """Build the world for ``seed``: 4 border walls and 16 blocks per 20 m
    square (at least 4), the first half hard, the rest sparse, all clear of
    the robot loop."""
    rng = np.random.default_rng(seed)
    side = cells * RESOLUTION
    n_blocks = max(4, round(16 * (side / 20.0) ** 2))
    walls = [Block((0.0, 0.0, side, WALL), HARD),
             Block((0.0, side - WALL, side, side), HARD),
             Block((0.0, 0.0, WALL, side), HARD),
             Block((side - WALL, 0.0, side, side), HARD)]

    jitter = 0.02 * side
    cx, cy = side / 2 + rng.uniform(-jitter, jitter, size=2)
    rx, ry = rng.uniform(0.28 * side, 0.34 * side, size=2)
    dense = _ellipse(cx, cy, rx, ry, rng.uniform(0.0, 2.0 * math.pi), 720)
    loop = _resample_closed(dense, LOOP_SPACING)

    clearance = 0.06 * side         # block to loop
    gap = 0.05 * side               # block to block and block to wall
    lo, hi = WALL + gap, side - WALL - gap
    placed: list[Block] = []
    for _ in range(200 * n_blocks):
        if len(placed) == n_blocks:
            break
        w, h = rng.uniform(MIN_BLOCK, max(MIN_BLOCK, 0.08 * side), size=2)
        x0 = rng.uniform(lo, hi - w)
        y0 = rng.uniform(lo, hi - h)
        box = (float(x0), float(y0), float(x0 + w), float(y0 + h))
        if _rect_distance(box, dense).min() < clearance:
            continue
        if any(_boxes_gap(box, b.box) < gap for b in placed):
            continue
        hard = len(placed) < n_blocks // 2
        value = HARD if hard else float(rng.uniform(*SPARSE))
        placed.append(Block(box, value))
    if len(placed) < n_blocks:
        raise RuntimeError(f"could only place {len(placed)} of {n_blocks} blocks")

    start, goal = _blocked_reference(placed, dense)
    return World(cells, tuple(walls + placed), loop, start, goal)


def _blocked_reference(blocks: list[Block], loop_pts: np.ndarray):
    """Start pose ``BLOCKED_APPROACH`` in front of the face of the hard block
    nearest the loop that looks at the loop, heading into the block. The goal
    lies ``BLOCKED_BEYOND`` past the face, so the robot can reach it only
    through hard matter and the planner has to stop."""
    hard = [b for b in blocks if b.hard]
    block = min(hard, key=lambda b: _rect_distance(b.box, loop_pts).min())
    x0, y0, x1, y1 = block.box
    mid = ((x0 + x1) / 2, (y0 + y1) / 2)   # the face centres
    faces = [((x0, mid[1]), (-1.0, 0.0)), ((x1, mid[1]), (1.0, 0.0)),
             ((mid[0], y0), (0.0, -1.0)), ((mid[0], y1), (0.0, 1.0))]
    (fx, fy), (nx, ny) = min(
        faces, key=lambda f: np.hypot(loop_pts[:, 0] - f[0][0] - f[1][0],
                                      loop_pts[:, 1] - f[0][1] - f[1][1]).min())
    start = (fx + nx * BLOCKED_APPROACH, fy + ny * BLOCKED_APPROACH,
             math.atan2(-ny, -nx))
    return start, (fx - nx * BLOCKED_BEYOND, fy - ny * BLOCKED_BEYOND)


def ground_truth(lf, world: World):
    """GroundTruthMap built exactly as the CLI builds it from the YAML."""
    geo = geometry(lf, world)
    truth = lf.sensor.GroundTruthMap.uniform(geo, 0.0)
    for block in world.blocks:
        truth.set_block(*block.box, block.value)
    return truth


def geometry(lf, world: World):
    return lf.geometry.GridGeometry(0.0, 0.0, RESOLUTION, world.cells, world.cells)


def sensor_model(lf):
    return lf.field.SensorModel(0.99, 0.9999, 0.04, max_range=MAX_RANGE)


def densify(points: np.ndarray, step: float) -> np.ndarray:
    """(N, 3) poses every ``step`` metres along an open polyline of (x, y)."""
    pts = np.asarray(points, dtype=np.float64)[:, :2]
    seg = np.hypot(*np.diff(pts, axis=0).T)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    s = np.linspace(0.0, cum[-1], max(2, int(math.ceil(cum[-1] / step)) + 1))
    xs = np.interp(s, cum, pts[:, 0])
    ys = np.interp(s, cum, pts[:, 1])
    theta = np.arctan2(np.gradient(ys), np.gradient(xs))
    return np.column_stack([xs, ys, theta])


def loop_stretch(world: World, start: int, length: float) -> np.ndarray:
    """Loop poses from index ``start`` covering about ``length`` metres."""
    n = len(world.loop)
    count = int(round(length / LOOP_SPACING)) + 1
    return world.loop[[(start + k) % n for k in range(count)]]


def _yaml_float(v: float) -> str:
    """``repr`` of a float in a form YAML 1.1 reads back as that same float
    (it needs a dot in the mantissa, e.g. ``1.0e-05`` not ``1e-05``)."""
    text = repr(float(v))
    mantissa, e, exponent = text.partition("e")
    if e and "." not in mantissa:
        text = f"{mantissa}.0e{exponent}"
    return text


def scenario_yaml(world: World, scan_poses: np.ndarray, seed: int) -> str:
    """The world as a CLI scenario file, with every float written so the CLI
    reads back exactly the numbers the library workloads use."""
    f = _yaml_float
    lines = [
        "grid: {origin: [0.0, 0.0], resolution: %s, cols: %d, rows: %d}"
        % (f(RESOLUTION), world.cells, world.cells),
        "sensor: {p_hit: 0.99, p_miss: 0.9999, error_area: 0.04, max_range: %s}"
        % f(MAX_RANGE),
        "ground_truth:",
        "  uniform: 0.0",
        "  blocks:",
    ]
    for b in world.blocks:
        lines.append("    - {box: [%s], value: %s}"
                     % (", ".join(f(v) for v in b.box), f(b.value)))
    lines.append("scan:")
    lines.append("  beams: %d" % BEAMS)
    lines.append("  poses:")
    for x, y, th in scan_poses:
        lines.append("    - [%s, %s, %s]" % (f(x), f(y), f(th)))
    lines.append("seed: %d" % seed)
    return "\n".join(lines) + "\n"
