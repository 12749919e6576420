"""Trajectory-sampling local planner gated by upper-bound collision risk.

Candidates are constant (v, omega) arcs over a short horizon, in the style
of the dynamic window approach (Fox, Burgard & Thrun, 1997). Each is scored
with the 95% upper confidence bound of the intensities of the cells it
crosses; arcs whose expected momentum loss exceeds the configured maximum are
discarded, and the surviving arc closest to a user-supplied global reference
path wins. When nothing survives the robot stops: that is its only admissible
decision. A cycle integrates the arcs of each speed in one array pass,
sweeps the footprints of all its arcs in one pass
(``path.sweep_footprints``), scores each arc's risk through its own
``swept_cells``, which reuses its footprint and reads the estimates at its
crossed cells alone, and measures the closeness of the admitted arcs of
each length in one array pass. So a cycle costs the cells its arcs cross,
not the grid size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import LambdaGrid
from .path import (RobotShape, constant_velocity, expected_risk, momentum_risk,
                   sweep_footprints, swept_cells)

DEFAULT_MAX_STEPS = 200
MAX_ARC_STEPS = 10_000      # longest arc a config may ask for, v_max * horizon / step


@dataclass(frozen=True)
class PlannerConfig:
    v_max: float = 1.0
    omega_max: float = 1.0
    v_samples: int = 5
    omega_samples: int = 5
    horizon: float = 1.0
    max_risk: float = 1.0
    step: float = 0.05
    goal_tolerance: float = 0.5

    def __post_init__(self):
        if not self.max_risk > 0:  # inf: no risk gate
            raise ValueError("max_risk must be > 0")
        if self.v_samples < 1 or self.omega_samples < 1:
            raise ValueError("need at least one sample per axis")
        if not (0 < self.v_max < math.inf and 0 <= self.omega_max < math.inf):
            raise ValueError("velocity limits must be finite, v_max > 0 and "
                             "omega_max >= 0")
        if not (0 < self.horizon < math.inf and 0 < self.step < math.inf):
            raise ValueError("horizon and step must be finite and > 0")
        if not self.goal_tolerance > 0:
            raise ValueError("goal_tolerance must be > 0")
        if not self.v_max * self.horizon / self.step <= MAX_ARC_STEPS:
            raise ValueError(f"v_max * horizon / step must be at most "
                             f"{MAX_ARC_STEPS} steps per arc")


@dataclass
class TrajectoryCandidate:
    v: float
    omega: float
    poses: np.ndarray                  # (N, 3) starting at the current pose
    risk_upper: float = math.nan
    closeness: float = math.nan

    @property
    def endpoint(self) -> np.ndarray:
        return self.poses[-1]


def sample_arcs(pose: tuple[float, float, float],
                config: PlannerConfig) -> list[TrajectoryCandidate]:
    """Uniform (v, omega) grid of arc candidates, in a fixed deterministic order.

    Speeds exclude zero: "do not move" is the planner's fallback, not a
    sampled candidate. An arc holds its unicycle poses every ``step`` meters
    of arc length and the exact endpoint, or its start pose alone if too
    short to take a step. The arcs of one speed share their sample times, so
    they are integrated in one array pass, as rows of one array.
    """
    x0, y0, th0 = pose
    vs = config.v_max * (np.arange(1, config.v_samples + 1) / config.v_samples)
    if config.omega_samples == 1:
        omegas = np.array([0.0])
    else:
        omegas = np.linspace(-config.omega_max, config.omega_max,
                             config.omega_samples)
    turning = np.abs(omegas) >= 1e-12
    out = []
    for v in vs.tolist():
        length = v * config.horizon
        if length == 0.0:
            arcs = np.tile(np.asarray(pose, np.float64), (len(omegas), 1, 1))
        else:
            n = max(1, int(math.ceil(length / config.step)))
            times = np.linspace(0.0, config.horizon, n + 1)
            arcs = np.empty((len(omegas), n + 1, 3))
            arcs[~turning] = np.column_stack([x0 + v * times * math.cos(th0),
                                              y0 + v * times * math.sin(th0),
                                              np.full_like(times, th0)])
            radius = (v / omegas[turning])[:, None]
            ths = th0 + omegas[turning, None] * times
            arcs[turning, :, 0] = x0 + radius * (np.sin(ths) - math.sin(th0))
            arcs[turning, :, 1] = y0 - radius * (np.cos(ths) - math.cos(th0))
            arcs[turning, :, 2] = ths
        out.extend(TrajectoryCandidate(v, omega, poses)
                   for omega, poses in zip(omegas.tolist(), arcs))
    return out


def plan_step(grid: LambdaGrid, pose: tuple[float, float, float],
              reference_path: np.ndarray, shape: RobotShape,
              config: PlannerConfig) -> TrajectoryCandidate | None:
    """One planning cycle; returns the chosen arc or None to stop.

    Every candidate's expected momentum loss is computed with the upper
    intensity bound and constant speed; candidates above max_risk (or leaving
    the grid) are discarded. Among survivors the arc with the lowest mean
    distance to the reference path wins, ties broken by lower risk, then
    |omega|, then v.
    """
    admissible = admissible_candidates(grid, pose, reference_path, shape, config)
    return _select(admissible)


def admissible_candidates(grid: LambdaGrid, pose: tuple[float, float, float],
                          reference_path: np.ndarray, shape: RobotShape,
                          config: PlannerConfig) -> list[TrajectoryCandidate]:
    """All sampled arcs that pass the risk gate, scored by closeness: the mean
    distance from each arc pose to the nearest reference *pose*, not segment,
    so a reference with sparse waypoints must be densified first.

    The arcs' footprints are swept in one pass, and each arc is then read and
    scored with the upper-bound risk on its own. The closeness of all
    admitted arcs with the same number of poses is computed in one array
    pass, with the bits of the per-arc mean of ``np.linalg.norm`` minima.
    Raises ValueError if the pose lies outside the grid or the reference is
    not a non-empty (N, >= 2) array of finite numbers, before any arc is
    swept.
    """
    if not grid.geometry.contains(pose[0], pose[1]):
        raise ValueError("pose outside grid")
    reference = _reference_xy(reference_path)
    candidates = sample_arcs(pose, config)
    # one pass over every arc's footprint, which swept_cells then reuses
    sweep_footprints(grid.geometry, [cand.poses for cand in candidates],
                     shape.width)
    admissible = []
    for cand in candidates:
        try:
            crossing = swept_cells(grid, cand.poses, shape)
        except ValueError:
            continue  # arc leaves the mapped area: never admissible
        risk_fn = momentum_risk(shape, constant_velocity(cand.v))
        cand.risk_upper = expected_risk(crossing, risk_fn, use_bound="upper")
        if cand.risk_upper <= config.max_risk:
            admissible.append(cand)
    for n in {len(cand.poses) for cand in admissible}:
        group = [cand for cand in admissible if len(cand.poses) == n]
        poses = np.stack([cand.poses for cand in group])
        # the bits of norm(pose - ref): sqrt of x**2 + y**2, and sqrt is
        # monotone, so the min may come first
        dx, dy = (poses[:, :, None, k] - reference[:, k] for k in (0, 1))
        closeness = np.mean(np.sqrt(np.min(dx * dx + dy * dy, axis=2)), axis=1)
        for cand, value in zip(group, closeness.tolist()):
            cand.closeness = value
    return admissible


def _reference_xy(reference_path) -> np.ndarray:
    """The (N, 2) x/y of a reference path; raises ValueError unless it is a
    non-empty (N, >= 2) array of finite numbers."""
    reference = np.asarray(reference_path, dtype=np.float64)
    if (reference.ndim != 2 or len(reference) == 0 or reference.shape[1] < 2
            or not np.isfinite(reference).all()):
        raise ValueError("reference path must be a non-empty (N, >= 2) array "
                         "of finite numbers")
    return reference[:, :2]


def _select(admissible: list[TrajectoryCandidate]) -> TrajectoryCandidate | None:
    if not admissible:
        return None
    return min(admissible,
               key=lambda c: (c.closeness, c.risk_upper, abs(c.omega), c.v))


@dataclass
class EpisodeStep:
    t: float
    v: float
    omega: float
    risk_upper: float
    n_admissible: int
    stopped: bool


def run_episode(grid: LambdaGrid, start_pose: tuple[float, float, float],
                reference_path: np.ndarray, shape: RobotShape,
                config: PlannerConfig, max_steps: int = DEFAULT_MAX_STEPS
                ) -> tuple[list[EpisodeStep], np.ndarray]:
    """Closed-loop rollout on a static field snapshot.

    Executes each chosen arc to its endpoint until the goal (last reference
    pose) is within goal_tolerance, the planner stops, or max_steps elapse.
    Returns the per-step log and the executed pose trace. Raises
    ValueError if the reference is not a non-empty (N, >= 2) array of finite
    numbers or the start or the goal lies outside the grid.
    """
    reference = _reference_xy(reference_path)
    goal = reference[-1]
    for name, (x, y) in (("start", start_pose[:2]), ("goal", goal)):
        if not grid.geometry.contains(x, y):
            raise ValueError(f"{name} ({x}, {y}) lies outside the grid")
    pose = tuple(float(c) for c in start_pose)
    trace = [pose]
    log: list[EpisodeStep] = []
    for step_idx in range(max_steps):
        if np.hypot(pose[0] - goal[0], pose[1] - goal[1]) <= config.goal_tolerance:
            break
        admissible = admissible_candidates(grid, pose, reference, shape, config)
        chosen = _select(admissible)
        t = step_idx * config.horizon
        if chosen is None:
            log.append(EpisodeStep(t, 0.0, 0.0, math.nan, 0, True))
            break
        log.append(EpisodeStep(t, chosen.v, chosen.omega, chosen.risk_upper,
                               len(admissible), False))
        pose = tuple(float(c) for c in chosen.endpoint)
        trace.append(pose)
    return log, np.asarray(trace)
