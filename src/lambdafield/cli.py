"""Command-line surface: build maps, evaluate path risk, plan, compare.

Scenario files are YAML, validated against a schema; command-line flags
override file values. All randomness flows from a single --seed so every
command is reproducible bit-for-bit.

Exit codes: 0 success, 2 configuration/usage error, 3 I/O failure.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from pathlib import Path

import click
import jsonschema
import numpy as np
import yaml

from . import io as lfio
from .bayes import (BayesGrid, bayes_scan, naive_path_probability,
                    naive_probability_from_occupancy)
from .field import LambdaGrid, SensorModel
from .geometry import GridGeometry
from .path import (PathCrossing, RobotShape, constant_velocity, expected_risk,
                   momentum_risk, path_collision_probability, sweep_footprint,
                   swept_cells)
from .planner import PlannerConfig, run_episode
from .sensor import GroundTruthMap, apply_scan, simulate_scan

EXIT_CONFIG = 2
EXIT_IO = 3

SCENARIO_SCHEMA = {
    "type": "object",
    "properties": {
        "grid": {
            "type": "object",
            "properties": {
                "origin": {"type": "array", "items": {"type": "number"},
                           "minItems": 2, "maxItems": 2},
                "resolution": {"type": "number", "exclusiveMinimum": 0},
                "cols": {"type": "integer", "minimum": 1},
                "rows": {"type": "integer", "minimum": 1},
            },
            "required": ["cols", "rows"],
        },
        "sensor": {
            "type": "object",
            "properties": {
                "p_hit": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "p_miss": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "error_area": {"type": "number", "exclusiveMinimum": 0},
                "max_range": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "lambda_max": {"type": "number", "exclusiveMinimum": 0},
        "ground_truth": {
            "type": "object",
            "properties": {
                "file": {"type": "string"},
                "uniform": {"type": "number", "minimum": 0},
                "blocks": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "box": {"type": "array", "items": {"type": "number"},
                                    "minItems": 4, "maxItems": 4},
                            "value": {"type": "number", "minimum": 0},
                        },
                        "required": ["box", "value"],
                    },
                },
            },
        },
        "scan": {
            "type": "object",
            "properties": {
                "poses": {"type": "array",
                          "items": {"type": "array", "items": {"type": "number"},
                                    "minItems": 3, "maxItems": 3}},
                "poses_file": {"type": "string"},
                "beams": {"type": "integer", "minimum": 1},
            },
        },
        "robot": {
            "type": "object",
            "properties": {
                "width": {"type": "number", "exclusiveMinimum": 0},
                "length": {"type": "number", "minimum": 0},
                "mass": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "bayes": {
            "type": "object",
            "properties": {
                "p_occ_given_hit": {"type": "number"},
                "p_free_given_miss": {"type": "number"},
                "clamp": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "planner": {
            "type": "object",
            "properties": {
                "v_max": {"type": "number", "exclusiveMinimum": 0},
                "omega_max": {"type": "number", "minimum": 0},
                "v_samples": {"type": "integer", "minimum": 1},
                "omega_samples": {"type": "integer", "minimum": 1},
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "max_risk": {"type": "number", "exclusiveMinimum": 0},
                "step": {"type": "number", "exclusiveMinimum": 0},
                "goal_tolerance": {"type": "number", "exclusiveMinimum": 0},
                "max_steps": {"type": "integer", "minimum": 1},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string"},
    },
    "required": ["grid"],
}

SENSOR_DEFAULTS = {"p_hit": 0.99, "p_miss": 0.9999, "error_area": 0.04,
                   "max_range": 10.0}
ROBOT_DEFAULTS = {"width": 0.4, "length": 0.6, "mass": 20.0}


class Scenario:
    """Validated scenario config with defaults applied."""

    def __init__(self, raw: dict, base_dir: Path):
        try:
            jsonschema.validate(raw, SCENARIO_SCHEMA)
        except jsonschema.ValidationError as exc:
            raise click.UsageError(f"invalid scenario: {exc.message}")
        self.raw = raw
        self.base_dir = base_dir
        grid = raw["grid"]
        origin = grid.get("origin", [0.0, 0.0])
        self.geometry = GridGeometry(origin[0], origin[1],
                                     grid.get("resolution", 0.1),
                                     grid["cols"], grid["rows"])
        sensor = {**SENSOR_DEFAULTS, **raw.get("sensor", {})}
        self.sensor = SensorModel(**{k: sensor[k] for k in SENSOR_DEFAULTS})
        self.lambda_max = raw.get("lambda_max", 100.0)
        robot = {**ROBOT_DEFAULTS, **raw.get("robot", {})}
        self.shape = RobotShape(robot["width"], robot["length"], robot["mass"])
        self.seed = raw.get("seed", 0)
        self.beams = raw.get("scan", {}).get("beams", 180)
        self.planner = PlannerConfig(**{k: v for k, v in
                                        raw.get("planner", {}).items()
                                        if k != "max_steps"})
        self.max_steps = raw.get("planner", {}).get("max_steps", 200)
        self.bayes_params = raw.get("bayes", {})

    @classmethod
    def load(cls, path: str) -> "Scenario":
        path = Path(path)
        try:
            raw = yaml.safe_load(path.read_text()) or {}
        except OSError as exc:
            _fail(EXIT_IO, f"cannot read scenario {path}: {exc}")
        except yaml.YAMLError as exc:
            raise click.UsageError(f"scenario is not valid YAML: {exc}")
        if not isinstance(raw, dict):
            raise click.UsageError("scenario must be a YAML mapping")
        return cls(raw, path.parent)

    def ground_truth(self) -> GroundTruthMap:
        spec = self.raw.get("ground_truth", {})
        if "file" in spec:
            return lfio.load_ground_truth(self.base_dir / spec["file"],
                                          self.geometry)
        truth = GroundTruthMap.uniform(self.geometry, spec.get("uniform", 0.0))
        for block in spec.get("blocks", []):
            truth.set_block(*block["box"], block["value"])
        return truth

    def scan_poses(self) -> np.ndarray:
        scan = self.raw.get("scan", {})
        if "poses_file" in scan:
            return lfio.load_path_csv(self.base_dir / scan["poses_file"])
        return np.asarray(scan.get("poses", []), dtype=np.float64).reshape(-1, 3)

    def make_bayes(self) -> BayesGrid:
        kwargs = {}
        if "p_occ_given_hit" in self.bayes_params:
            kwargs["p_occ_given_hit"] = self.bayes_params["p_occ_given_hit"]
        if "p_free_given_miss" in self.bayes_params:
            kwargs["p_free_given_miss"] = self.bayes_params["p_free_given_miss"]
        if "clamp" in self.bayes_params:
            kwargs["log_odds_clamp"] = self.bayes_params["clamp"]
        return BayesGrid(self.geometry, **kwargs)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _output_dir(explicit: str | None, scenario: Scenario | None = None) -> Path:
    if explicit:
        out = Path(explicit)
    elif scenario and "output_dir" in scenario.raw:
        out = Path(scenario.raw["output_dir"])
    else:
        out = Path(os.environ.get("LAMBDAFIELD_OUTPUT_DIR", "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot create output dir {out}: {exc}")
    return out


def _simulate_scans(scenario: Scenario, seed: int) -> list:
    """(t, pose, beams) for each scripted scan pose, in order."""
    truth = scenario.ground_truth()
    rng = np.random.default_rng(seed)
    return [(float(i), tuple(pose),
             simulate_scan(truth, tuple(pose), scenario.sensor, scenario.beams,
                           rng))
            for i, pose in enumerate(scenario.scan_poses())]


def _build_maps(scenario: Scenario, seed: int
                ) -> tuple[LambdaGrid, BayesGrid, list]:
    scans = _simulate_scans(scenario, seed)
    field = LambdaGrid(scenario.geometry, scenario.sensor, scenario.lambda_max)
    bayes = scenario.make_bayes()
    for _, _, beams in scans:
        apply_scan(field, beams, scenario.sensor)
        bayes_scan(bayes, beams, scenario.sensor)
    return field, bayes, scans


@click.group()
def main():
    """Intensity-field mapping, path risk evaluation and risk-gated planning."""


@main.command("map")
@click.argument("scenario_file", type=click.Path(exists=True))
@click.option("--seed", type=int, default=None, help="Override scenario seed.")
@click.option("--output-dir", "-o", type=click.Path(), default=None)
def cmd_map(scenario_file, seed, output_dir):
    """Simulate scans and write field + baseline dumps and renders."""
    scenario = Scenario.load(scenario_file)
    seed = scenario.seed if seed is None else seed
    out = _output_dir(output_dir, scenario)
    field, bayes, scans = _build_maps(scenario, seed)
    try:
        lfio.save_lambda_grid(field, out / "lambda_grid.dump")
        lfio.save_bayes_grid(bayes, out / "bayes_grid.dump")
        lfio.export_lambda_csv(field, out / "lambda_grid.csv")
        lfio.export_bayes_csv(bayes, out / "bayes_grid.csv")
        lfio.export_lambda_pgm(field, out / "lambda_grid.pgm")
        lfio.export_bayes_pgm(bayes, out / "bayes_grid.pgm")
        lfio.save_scan_log(out / "scans.csv", scans)
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    click.echo(f"wrote maps for {len(scans)} scans to {out}")


@main.command("simulate-scans")
@click.argument("scenario_file", type=click.Path(exists=True))
@click.option("--seed", type=int, default=None)
@click.option("--output-dir", "-o", type=click.Path(), default=None)
def cmd_simulate_scans(scenario_file, seed, output_dir):
    """Simulate lidar scans and write only the scan log."""
    scenario = Scenario.load(scenario_file)
    seed = scenario.seed if seed is None else seed
    out = _output_dir(output_dir, scenario)
    scans = _simulate_scans(scenario, seed)
    try:
        lfio.save_scan_log(out / "scans.csv", scans)
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    click.echo(f"wrote {sum(len(b) for _, _, b in scans)} beams to {out}")


@main.command("eval-path")
@click.argument("dump_file", type=click.Path(exists=True))
@click.argument("path_file", type=click.Path(exists=True))
@click.option("--engine", type=click.Choice(["lambda", "bayes"]),
              default="lambda")
@click.option("--bound", type=click.Choice(["mle", "lower", "upper"]),
              default="mle")
@click.option("--width", type=float, default=ROBOT_DEFAULTS["width"])
@click.option("--mass", type=float, default=ROBOT_DEFAULTS["mass"])
@click.option("--speed", type=float, default=1.0,
              help="Constant speed for the momentum risk.")
@click.option("--unit-risk", is_flag=True,
              help="Use r = 1, making the risk equal the collision probability.")
@click.option("--output-dir", "-o", type=click.Path(), default=None)
def cmd_eval_path(dump_file, path_file, engine, bound, width, mass, speed,
                  unit_risk, output_dir):
    """Collision probability and expected risk of a path over a saved grid."""
    out = _output_dir(output_dir)
    try:
        poses = lfio.load_path_csv(path_file)
    except (OSError, ValueError) as exc:
        _fail(EXIT_IO, f"cannot load path: {exc}")
    loader = lfio.load_bayes_grid if engine == "bayes" else lfio.load_lambda_grid
    try:
        grid = loader(dump_file)
    except (OSError, ValueError) as exc:
        _fail(EXIT_IO, f"cannot load {engine} dump: {exc}")
    try:
        shape = RobotShape(width, ROBOT_DEFAULTS["length"], mass)
        if engine == "bayes":
            cells, _ = sweep_footprint(grid.geometry, poses, shape.width)
        else:
            crossing = swept_cells(grid, poses, shape)
    except ValueError as exc:
        _fail(EXIT_CONFIG, str(exc))
    if engine == "bayes":
        p_coll = naive_path_probability(grid, cells)
        click.echo(f"P_coll {p_coll!r}")
        (out / "summary.csv").write_text(
            "engine,p_coll,expected_risk\n"
            f"bayes,{p_coll!r},\n")
        return
    p_coll = path_collision_probability(crossing, bound)
    if unit_risk:
        risk_fn = lambda a: 1.0
    else:
        risk_fn = momentum_risk(shape, constant_velocity(speed))
    risk = expected_risk(crossing, risk_fn, bound)
    try:
        lfio.save_risk_report(out / "risk_report.csv", crossing, risk_fn, bound)
        (out / "summary.csv").write_text(
            "engine,p_coll,expected_risk\n"
            f"lambda,{p_coll!r},{risk!r}\n")
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    click.echo(f"P_coll {p_coll!r}")
    click.echo(f"E_risk {risk!r}")


@main.command("plan")
@click.argument("scenario_file", type=click.Path(exists=True))
@click.argument("reference_path", type=click.Path(exists=True))
@click.option("--seed", type=int, default=None)
@click.option("--output-dir", "-o", type=click.Path(), default=None)
def cmd_plan(scenario_file, reference_path, seed, output_dir):
    """Map the scenario, then run the risk-gated planning episode."""
    scenario = Scenario.load(scenario_file)
    seed = scenario.seed if seed is None else seed
    out = _output_dir(output_dir, scenario)
    try:
        reference = lfio.load_path_csv(reference_path)
    except (OSError, ValueError) as exc:
        _fail(EXIT_IO, f"cannot load reference path: {exc}")
    field, _, _ = _build_maps(scenario, seed)
    start = tuple(reference[0])
    log, trace = run_episode(field, start, reference, scenario.shape,
                             scenario.planner, scenario.max_steps)
    try:
        lfio.save_planner_log(out / "planner_log.csv", log)
        lfio.save_path_csv(out / "trace.csv", trace)
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    stopped = any(step.stopped for step in log)
    click.echo(f"steps {len(log)} stopped {int(stopped)}")


@main.command("compare")
@click.option("--base-prob", type=float, default=0.1,
              help="Per-cell occupancy probability at the base resolution.")
@click.option("--base-resolution", type=float, default=0.2)
@click.option("--base-cells", type=int, default=4,
              help="Cells crossed at the base resolution (fixes the region).")
@click.option("--resolutions", required=True,
              help="Comma-separated cell sizes to evaluate.")
@click.option("--output-dir", "-o", type=click.Path(), default=None)
def cmd_compare(base_prob, base_resolution, base_cells, resolutions,
                output_dir):
    """Tessellation dependence: naive Bayesian vs intensity-field path
    probability for the same underlying environment."""
    if not 0 < base_prob < 1:
        raise click.UsageError("--base-prob must be in (0, 1)")
    out = _output_dir(output_dir)
    try:
        res_list = [float(tok) for tok in resolutions.split(",") if tok]
    except ValueError:
        raise click.UsageError("--resolutions must be comma-separated numbers")
    base_area = base_resolution ** 2
    region_area = base_cells * base_area
    intensity = -math.log1p(-base_prob) / base_area
    rows = []
    for res in res_list:
        area = res * res
        n_cells = max(1, round(region_area / area))
        crossing = PathCrossing.from_lambdas([intensity] * n_cells,
                                             [area] * n_cells)
        p_lambda = path_collision_probability(crossing)
        p_bayes = naive_probability_from_occupancy([base_prob] * n_cells)
        rows.append((res, p_lambda, p_bayes))
    try:
        with open(out / "compare.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["resolution", "p_lambda", "p_bayes_naive"])
            for res, p_lambda, p_bayes in rows:
                writer.writerow([repr(res), repr(p_lambda), repr(p_bayes)])
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    for res, p_lambda, p_bayes in rows:
        click.echo(f"{res!r} {p_lambda!r} {p_bayes!r}")


if __name__ == "__main__":
    main()
