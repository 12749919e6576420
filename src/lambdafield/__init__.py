"""Poisson-intensity occupancy fields with tessellation-invariant path risk."""

from .bayes import BayesGrid, bayes_scan, naive_path_probability
from .field import LambdaGrid, SensorModel, collision_probability
from .geometry import GridGeometry
from .path import (PathCrossing, RobotShape, collision_pdf, constant_velocity,
                   expected_risk, momentum_risk, path_collision_probability,
                   swept_cells)
from .planner import (PlannerConfig, TrajectoryCandidate, plan_step, run_episode,
                      sample_arcs)
from .raycast import error_region_cells, trace_beam
from .sensor import Beam, GroundTruthMap, apply_scan, simulate_scan

__all__ = [
    "BayesGrid", "Beam", "GridGeometry", "GroundTruthMap", "LambdaGrid",
    "PathCrossing", "PlannerConfig", "RobotShape", "SensorModel",
    "TrajectoryCandidate", "apply_scan", "bayes_scan", "collision_pdf",
    "collision_probability", "constant_velocity", "error_region_cells",
    "expected_risk", "momentum_risk", "naive_path_probability",
    "path_collision_probability", "plan_step", "run_episode", "sample_arcs",
    "simulate_scan", "swept_cells", "trace_beam",
]
