"""Trajectory-sampling local planner gated by upper-bound collision risk.

Candidates are constant (v, omega) arcs over a short horizon, in the style
of the dynamic window approach (Fox, Burgard & Thrun, 1997). Each is scored
with the 95% upper confidence bound of the intensities of the cells it
crosses; arcs whose expected momentum loss exceeds the configured maximum are
discarded, and the surviving arc closest to a user-supplied global reference
path wins. When nothing survives the robot stops: that is its only admissible
decision. A cycle sweeps the footprints of all its arcs in one pass
(``path.sweep_footprints``), and each arc's ``swept_cells`` reuses its
footprint and reads the estimates at its crossed cells alone, so a cycle
costs the cells its arcs cross, not the grid size.
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


def integrate_arc(pose: tuple[float, float, float], v: float, omega: float,
                  horizon: float, step: float) -> np.ndarray:
    """Unicycle poses for a constant (v, omega) command, sampled every
    ``step`` meters of arc length (plus the exact endpoint)."""
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


def sample_arcs(pose: tuple[float, float, float],
                config: PlannerConfig) -> list[TrajectoryCandidate]:
    """Uniform (v, omega) grid of arc candidates, in a fixed deterministic order.

    Speeds exclude zero: "do not move" is the planner's fallback, not a
    sampled candidate.
    """
    vs = config.v_max * (np.arange(1, config.v_samples + 1) / config.v_samples)
    if config.omega_samples == 1:
        omegas = np.array([0.0])
    else:
        omegas = np.linspace(-config.omega_max, config.omega_max,
                             config.omega_samples)
    out = []
    for v in vs:
        for omega in omegas:
            poses = integrate_arc(pose, float(v), float(omega),
                                  config.horizon, config.step)
            out.append(TrajectoryCandidate(float(v), float(omega), poses))
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
    so a reference with sparse waypoints must be densified first."""
    if not grid.geometry.contains(pose[0], pose[1]):
        raise ValueError("pose outside grid")
    reference = np.asarray(reference_path, dtype=np.float64)[:, :2]
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
        if cand.risk_upper > config.max_risk:
            continue
        diffs = cand.poses[:, None, :2] - reference[None, :, :]
        cand.closeness = float(np.mean(np.min(np.linalg.norm(diffs, axis=2), axis=1)))
        admissible.append(cand)
    return admissible


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
    ValueError if the reference is empty or the start or the goal lies
    outside the grid.
    """
    reference = np.asarray(reference_path, dtype=np.float64)
    if len(reference) == 0:
        raise ValueError("reference path is empty")
    goal = reference[-1, :2]
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
