"""Swept-footprint path crossings and collision risk along them.

``sweep_footprints`` rasterises the footprints of many paths in one array
pass and keeps them for the next call; ``sweep_footprint`` is its one-path
case, and each path's result is the same either way. ``swept_cells`` adds
the intensity estimates at a path's crossed cells.
``risk_terms`` holds the first-collision law along a crossing; the density,
the expected risk and the risk report all read from it, the last two through
``partial_risks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .field import LambdaGrid, _run_heads, collision_probability
from .geometry import GridGeometry


@dataclass(frozen=True)
class RobotShape:
    """The robot's footprint width (m) and mass (kg). A path's sweep is a
    band of width ``width``; ``length`` is checked but nothing reads it."""

    width: float = 0.4
    length: float = 0.6
    mass: float = 20.0

    def __post_init__(self):
        if not 0 < self.width < math.inf:
            raise ValueError(f"width must be finite and > 0, got {self.width}")
        if not 0 <= self.length < math.inf:
            raise ValueError(f"length must be finite and >= 0, got {self.length}")
        if not 0 < self.mass < math.inf:
            raise ValueError(f"mass must be finite and > 0, got {self.mass}")


@dataclass
class PathCrossing:
    """Ordered cells a swept footprint traverses, with per-cell crossed areas.

    Carries a snapshot of the three intensity estimates so risk evaluation
    never touches the live grid.
    """

    cells: np.ndarray        # flat indices, traversal order
    areas: np.ndarray        # m^2, positive
    lam_mle: np.ndarray
    lam_low: np.ndarray
    lam_high: np.ndarray

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.int64)
        self.areas = np.asarray(self.areas, dtype=np.float64)
        self.lam_mle = np.asarray(self.lam_mle, dtype=np.float64)
        self.lam_low = np.asarray(self.lam_low, dtype=np.float64)
        self.lam_high = np.asarray(self.lam_high, dtype=np.float64)
        if (self.areas <= 0).any():
            raise ValueError("crossed areas must be positive")

    def __len__(self) -> int:
        return len(self.cells)

    def cumulative_areas(self) -> np.ndarray:
        """A(i) = area crossed before entering cell i; length N+1, last = total."""
        return np.concatenate(([0.0], np.cumsum(self.areas)))

    def lambdas(self, use_bound: str = "mle") -> np.ndarray:
        lams = {"mle": self.lam_mle, "lower": self.lam_low, "upper": self.lam_high}
        if use_bound not in lams:
            raise ValueError(f"unknown bound {use_bound!r}; expected mle/lower/upper")
        return lams[use_bound]


SAMPLES_PER_CELL = 5
SWEEP_SAMPLES = 1 << 16     # footprint samples swept at once, about 4 MB of temporaries
# sweep_footprints' last call that swept: (geometry, width, and per
# path (cells, areas) or None, keyed by the bytes of its (n, 2) x/y array)
_last = (None, math.nan, {})


def swept_cells(grid: LambdaGrid, poses: Sequence[tuple[float, float, float]],
                shape: RobotShape) -> PathCrossing:
    """``sweep_footprint`` of the poses, with the grid's three intensity
    estimates read at the crossed cells alone (the cost follows the path, not
    the grid). Raises ValueError if the swept footprint leaves the grid."""
    cells, areas = sweep_footprint(grid.geometry, poses, shape.width)
    low, high = grid.bound_maps(cells)
    return PathCrossing(cells, areas, grid.lambda_map(cells), low, high)


def sweep_footprint(geometry: GridGeometry,
                    poses: Sequence[tuple[float, float, float]],
                    width: float) -> tuple[np.ndarray, np.ndarray]:
    """``sweep_footprints`` of one path. Raises ValueError if any part of the
    swept footprint leaves the grid."""
    sweep, = sweep_footprints(geometry, [poses], width)
    if sweep is None:
        raise ValueError("swept path exits grid")
    return sweep


def sweep_footprints(geometry: GridGeometry,
                     paths: Sequence[Sequence[tuple[float, float, float]]],
                     width: float) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """Rasterize the rectangle of ``width`` swept along each polyline.

    Returns per path (flat cell indices in traversal order, crossed area per
    cell), or None if any part of its swept footprint leaves the grid.
    Midpoint supersampling: each step of length ds contributes area
    width * ds split evenly over its sample points, accumulated into the cell
    containing each sample. A cell enters the ordered list at the step that
    first covers it; re-entered cells keep their first slot. Consecutive
    poses must be closer than one cell diagonal (caller densifies).

    The paths are swept together in one array pass (``_sweep``), and each
    path's result equals a sweep of that path alone, bit for bit. The
    results of the last call that swept are kept: a call on the same
    geometry and width whose paths all have the x/y bits of one of that
    call's paths sweeps nothing; any other call sweeps its distinct paths
    and keeps only those. So the planner sweeps a cycle's arcs in one call
    and then reads each arc through ``swept_cells`` without sweeping it
    again. Every result is a fresh array the caller may change.
    """
    global _last
    pts = [np.asarray(poses, dtype=np.float64)[..., :2].reshape(-1, 2)
           for poses in paths]
    keys = [p.tobytes() for p in pts]
    last_geometry, last_width, kept = _last
    if keys and (last_geometry != geometry or last_width != width
                 or not kept.keys() >= set(keys)):
        distinct = dict(zip(keys, pts))
        kept = dict(zip(distinct, _sweep(geometry, list(distinct.values()), width)))
        _last = (geometry, width, kept)
    return [None if kept[key] is None else (kept[key][0].copy(), kept[key][1].copy())
            for key in keys]


def _sweep(geometry: GridGeometry, pts: list[np.ndarray],
           width: float) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """``sweep_footprints`` of the (n, 2) point arrays, with no reuse.

    The steps of all paths are built in one array pass, and a path with a
    step end far off the grid is dropped before any sample is built.
    Consecutive paths are then sampled together, up to ``SWEEP_SAMPLES``
    samples at a time (a larger path alone) and as many paths as keep their
    (path, cell) keys in an int64: one flat-index pass, one plain sort that
    groups the first key of each run of equal ones (``_first_occurrences``),
    and one ``np.bincount`` over each key's first position, which adds the
    key's sample areas in traversal order; the keys then read in order of
    first occurrence.
    """
    spacing = geometry.resolution / SAMPLES_PER_CELL
    n_paths = len(pts)
    pose_path = np.repeat(np.arange(n_paths), [len(p) for p in pts])
    pts = np.concatenate(pts)
    step_vec = np.diff(pts, axis=0)
    ds = np.hypot(step_vec[:, 0], step_vec[:, 1])
    # a step joins two poses of one path, and moves
    moves = (ds != 0.0) & (pose_path[1:] == pose_path[:-1])
    step_path = pose_path[1:][moves]
    # A moving step's outermost samples lie at least (width - spacing)/2 to
    # each side of it: past the grid's diagonal, one of them is off the grid.
    if (width - spacing) / 2 > math.hypot(geometry.width, geometry.height):
        return [None if m else (np.empty(0, np.int64), np.empty(0))
                for m in np.isin(np.arange(n_paths), step_path)]
    n_w = max(3, int(math.ceil(width / spacing)))
    offsets = ((np.arange(n_w) + 0.5) / n_w - 0.5) * width
    starts, step_vec, ds = pts[:-1][moves], step_vec[moves], ds[moves]
    # A sample lies within spacing/2 + width/2 of each end of a moving step,
    # so a path with an end farther out of the grid box is rejected before
    # the samples of a step of any length are allocated.
    ends = (np.concatenate([starts, pts[1:][moves]])
            - [geometry.origin_x, geometry.origin_y])
    margin = spacing / 2 + width / 2
    far = ((ends < -margin) | (ends > [geometry.width + margin,
                                       geometry.height + margin])).any(axis=1)
    exits = np.zeros(n_paths, dtype=bool)
    exits[np.concatenate([step_path, step_path])[far]] = True
    keep = ~exits[step_path]
    step_path, starts, step_vec, ds = (step_path[keep], starts[keep],
                                       step_vec[keep], ds[keep])
    normal = np.column_stack([-step_vec[:, 1], step_vec[:, 0]]) / ds[:, None]
    n_l = np.maximum(1, np.ceil(ds / spacing).astype(np.int64))
    sample_area = width * ds / (n_l * n_w)

    # consecutive paths whose samples fit in SWEEP_SAMPLES, as step ranges
    path_samples = np.bincount(step_path, n_l, minlength=n_paths) * n_w
    first_step = np.searchsorted(step_path, np.arange(n_paths + 1))
    out: list[tuple[np.ndarray, np.ndarray] | None] = [None] * n_paths
    lo = 0
    chunk_paths = max(1, np.iinfo(np.int64).max // geometry.n_cells)
    while lo < n_paths:
        hi, total = lo + 1, path_samples[lo]
        while (hi < n_paths and hi - lo < chunk_paths
               and total + path_samples[hi] <= SWEEP_SAMPLES):
            total += path_samples[hi]
            hi += 1
        s = slice(first_step[lo], first_step[hi])
        # one row per sample center: its step, and its position ts along it
        n = n_l[s]
        step = np.repeat(np.arange(len(n)), n)
        along = np.arange(len(step)) - np.repeat(np.cumsum(n) - n, n)
        ts = (along + 0.5) / n[step]
        center, tangent, across = starts[s][step], step_vec[s][step], normal[s][step]
        # (centers, n_w) sample points across the footprint width
        xs, ys = (center[:, k, None] + ts[:, None] * tangent[:, k, None]
                  + offsets * across[:, k, None] for k in (0, 1))
        flat = geometry.flat_or_outside(xs, ys)
        owner = step_path[s][step]
        keys = (flat + ((owner - lo) * geometry.n_cells)[:, None]).ravel()
        weights = np.repeat(sample_area[s][step], n_w)
        outside = (flat < 0).any(axis=1)
        if outside.any():
            exits[owner[outside]] = True
            inside = np.repeat(~exits[owner], n_w)
            keys, weights = keys[inside], weights[inside]
        head = _run_heads(keys)
        first, label = _first_occurrences(keys[head])
        label = np.repeat(label, np.diff(head, append=len(weights)))
        areas = np.bincount(label, weights, minlength=len(head))[first].astype(
            np.float64, copy=False)
        keys = keys[head[first]]
        local = keys // geometry.n_cells
        cells = keys - local * geometry.n_cells
        bounds = np.searchsorted(local, np.arange(hi - lo + 1))
        for i in range(lo, hi):
            if not exits[i]:
                span = slice(bounds[i - lo], bounds[i - lo + 1])
                out[i] = cells[span], areas[span]
        lo = hi
    return out


def _first_occurrences(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(True where a key occurs for the first time, the position of each
    key's first occurrence) of an int64 array of keys >= 0.

    One plain sort of key * 2**b + position, with 2**b > len(keys), groups
    equal keys with their positions in increasing order, so each group
    starts at its key's first occurrence. Where that could overflow an
    int64, the keys are first replaced by their ranks, which are below
    len(keys).
    """
    n = len(keys)
    shift = n.bit_length()
    if n and int(keys.max()) >> (63 - shift):
        keys = np.unique(keys, return_inverse=True)[1]
    order = np.sort(keys << shift | np.arange(n))
    position = order & ((1 << shift) - 1)
    starts = _run_heads(order >> shift)
    at = position[starts]           # each key's first position
    label = np.empty(n, dtype=np.int64)
    label[position] = np.repeat(at, np.diff(starts, append=n))
    first = np.zeros(n, dtype=bool)
    first[at] = True
    return first, label


def risk_terms(crossing: PathCrossing, use_bound: str = "mle"
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell terms of the first-collision law along a crossing.

    Returns (lam, cum, survive, hit): the cell intensities, the cumulative
    areas A(i) (length N+1, see ``PathCrossing.cumulative_areas``), the
    chance exp(-sum_{j<i} a_j lam_j) of reaching cell i without a
    collision, and the chance 1 - exp(-a_i lam_i) of one inside cell i.
    """
    lam = crossing.lambdas(use_bound)
    exponents = crossing.areas * lam
    survive = np.exp(-np.concatenate(([0.0], np.cumsum(exponents)))[:-1])
    return lam, crossing.cumulative_areas(), survive, -np.expm1(-exponents)


def collision_pdf(crossing: PathCrossing, a: float,
                  use_bound: str = "mle") -> float:
    """Density of the first-collision location at crossed area ``a``.

    Piecewise exponential: inside cell n the density is
    exp(-sum_{i<n} a_i lam_i) * lam_n * exp(-(a - A(n)) lam_n), generalizing
    the uniform-cell-area formula through cumulative areas.
    """
    if len(crossing) == 0:
        raise ValueError("empty crossing has no density")
    lam, cum, survive, _ = risk_terms(crossing, use_bound)
    if a < 0 or a > cum[-1]:
        raise ValueError(f"area {a} outside [0, {cum[-1]}]")
    n = int(np.clip(np.searchsorted(cum, a, side="right") - 1, 0, len(crossing) - 1))
    return float(survive[n] * lam[n] * math.exp(-(a - cum[n]) * lam[n]))


def path_collision_probability(crossing: PathCrossing,
                               use_bound: str = "mle") -> float:
    """1 - exp(-Lambda) with Lambda the area-weighted intensity sum."""
    lam = crossing.lambdas(use_bound)
    return collision_probability(float(np.dot(crossing.areas, lam)))


def partial_risks(crossing: PathCrossing, risk_fn: Callable,
                  use_bound: str = "mle") -> np.ndarray:
    """Per-cell terms r(A(i)) * survive_i * hit_i of ``expected_risk`` over
    ``risk_terms``, with r evaluated at each cell's cumulative-area left
    endpoint: ``risk_fn`` maps the array of them to risks (or one scalar).
    For a nondecreasing r each term is at most the exact one, short by at
    most survive_i * hit_i * (r(A(i+1)) - r(A(i))); it is exact for constant r."""
    _, cum, survive, hit = risk_terms(crossing, use_bound)
    return risk_fn(cum[:-1]) * survive * hit


def expected_risk(crossing: PathCrossing, risk_fn: Callable,
                  use_bound: str = "mle") -> float:
    """Expectation of risk_fn (areas -> risks, see ``partial_risks``) at the
    first-collision location: the sum of ``partial_risks``. It is exact for a
    constant r; for a nondecreasing r it is at most the exact expectation,
    short by at most sum_i survive_i * hit_i * (r(A(i+1)) - r(A(i))), which is
    at most max_i (r(A(i+1)) - r(A(i))) times the collision probability."""
    return float(np.sum(partial_risks(crossing, risk_fn, use_bound)))


def momentum_risk(shape: RobotShape, velocity: Callable) -> Callable:
    """Momentum mass * v(a / width) lost in a full stop at an array a of areas."""
    return lambda a: shape.mass * velocity(a / shape.width)


def constant_velocity(v: float) -> Callable:
    """The speed profile v(s) = v, a scalar for an array of s as well."""
    if not 0 <= v < math.inf:
        raise ValueError(f"speed must be finite and >= 0, got {v}")
    return lambda s: v
