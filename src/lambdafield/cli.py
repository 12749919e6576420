"""Command-line surface: build maps, evaluate path risk, plan, compare.

Scenario files are YAML, validated against a schema that rejects unknown
keys; command-line flags override file values. All randomness flows from a
single --seed so every command is reproducible bit-for-bit.

Exit codes: 0 success; 2 a bad scenario, flag or pose; 3 an input file that
is missing, unreadable or malformed, or a failed write. Every failure prints
one ``error: ...`` line to stderr. The command group's ``invoke`` is the one
place that maps exceptions to codes (``ValueError`` and click's errors for
an unparsable command line to 2, ``OSError`` to 3), and every input file is
read through ``_load``, which reports any failure to read or parse it as 3.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from pathlib import Path

import click
from click.core import ParameterSource
import jsonschema
import numpy as np
import yaml

from . import io as lfio
from .bayes import BayesGrid, bayes_scan, naive_path_probability
from .field import (DEFAULT_LAMBDA_MAX, LambdaGrid, SensorModel,
                    collision_probability)
from .geometry import GridGeometry
from .path import (RobotShape, constant_velocity, expected_risk, momentum_risk,
                   path_collision_probability, sweep_footprint, swept_cells)
from .planner import DEFAULT_MAX_STEPS, PlannerConfig, run_episode
from .sensor import GroundTruthMap, apply_scan, simulate_scan

EXIT_CONFIG = 2
EXIT_IO = 3
# libyaml's parser with the same safe constructor and resolver, if it is built
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _object(*required: str, **properties: dict) -> dict:
    """Schema of a mapping that has only the given keys."""
    schema = {"type": "object", "properties": properties,
              "additionalProperties": False}
    return {**schema, "required": list(required)} if required else schema


def _numbers(n: int) -> dict:
    return {"type": "array", "items": {"type": "number"},
            "minItems": n, "maxItems": n}


NUMBER = {"type": "number"}
POSITIVE = {"type": "number", "exclusiveMinimum": 0}
NONNEGATIVE = {"type": "number", "minimum": 0}
PROBABILITY = {"type": "number", "exclusiveMinimum": 0, "maximum": 1}
COUNT = {"type": "integer", "minimum": 1}
STRING = {"type": "string"}

SCENARIO_SCHEMA = _object(
    "grid",
    grid=_object("cols", "rows", origin=_numbers(2), resolution=POSITIVE,
                 cols=COUNT, rows=COUNT),
    sensor=_object(p_hit=PROBABILITY, p_miss=PROBABILITY,
                   error_area=POSITIVE, max_range=POSITIVE),
    lambda_max=POSITIVE,
    ground_truth=_object(
        file=STRING, uniform=NONNEGATIVE,
        blocks={"type": "array",
                "items": _object("box", "value", box=_numbers(4),
                                 value=NONNEGATIVE)}),
    scan=_object(poses={"type": "array", "items": _numbers(3)},
                 poses_file=STRING, beams=COUNT),
    robot=_object(width=POSITIVE, length=NONNEGATIVE, mass=POSITIVE),
    bayes=_object(p_occ_given_hit=NUMBER, p_free_given_miss=NUMBER,
                  clamp=POSITIVE),
    planner=_object(v_max=POSITIVE, omega_max=NONNEGATIVE, v_samples=COUNT,
                    omega_samples=COUNT, horizon=POSITIVE, max_risk=POSITIVE,
                    step=POSITIVE, goal_tolerance=POSITIVE, max_steps=COUNT),
    seed={"type": "integer", "minimum": 0},
    output_dir=STRING,
)
SCENARIO_VALIDATOR = jsonschema.validators.validator_for(SCENARIO_SCHEMA)(
    SCENARIO_SCHEMA)


class Scenario:
    """Validated scenario config. Each block goes to its library constructor
    as keyword arguments, so a key the file omits takes that default."""

    def __init__(self, raw: dict, base_dir: Path):
        error = jsonschema.exceptions.best_match(
            SCENARIO_VALIDATOR.iter_errors(raw))
        if error is not None:
            raise ValueError(f"invalid scenario: {error.message}")
        self.raw = raw
        self.base_dir = base_dir
        grid = raw["grid"]
        origin = grid.get("origin", [0.0, 0.0])
        self.geometry = GridGeometry(origin[0], origin[1],
                                     grid.get("resolution", 0.1),
                                     grid["cols"], grid["rows"])
        self.sensor = SensorModel(**raw.get("sensor", {}))
        self.lambda_max = raw.get("lambda_max", DEFAULT_LAMBDA_MAX)
        self.shape = RobotShape(**raw.get("robot", {}))
        self.seed = raw.get("seed", 0)
        self.beams = raw.get("scan", {}).get("beams", 180)
        planner = dict(raw.get("planner", {}))
        self.max_steps = planner.pop("max_steps", DEFAULT_MAX_STEPS)
        self.planner = PlannerConfig(**planner)

    @classmethod
    def load(cls, path: str) -> "Scenario":
        path = Path(path)
        text = _load(Path.read_text, path)
        try:
            raw = yaml.load(text, Loader=YAML_LOADER) or {}
        except yaml.YAMLError as exc:
            raise ValueError(f"scenario is not valid YAML: {exc}")
        if not isinstance(raw, dict):
            raise ValueError("scenario must be a YAML mapping")
        return cls(raw, path.parent)

    def ground_truth(self) -> GroundTruthMap:
        spec = self.raw.get("ground_truth", {})
        if "file" in spec:
            return _load(lfio.load_ground_truth, self.base_dir / spec["file"],
                         self.geometry)
        truth = GroundTruthMap.uniform(self.geometry, spec.get("uniform", 0.0))
        for block in spec.get("blocks", []):
            truth.set_block(*block["box"], block["value"])
        return truth

    def scan_poses(self) -> np.ndarray:
        scan = self.raw.get("scan", {})
        if "poses_file" in scan:
            return _load(lfio.load_path_csv, self.base_dir / scan["poses_file"])
        return np.asarray(scan.get("poses", []), dtype=np.float64).reshape(-1, 3)

    def make_bayes(self) -> BayesGrid:
        params = self.raw.get("bayes", {})
        return BayesGrid(self.geometry, **{
            {"clamp": "log_odds_clamp"}.get(k, k): v for k, v in params.items()})


def _fail(code: int, error) -> None:
    """Prints ``error`` (a message or an exception) as one ``error:`` line
    and exits with ``code``."""
    text = (error.format_message() if isinstance(error, click.ClickException)
            else str(error))
    click.echo("error: " + " ".join(line.strip() for line in text.splitlines()),
               err=True)
    sys.exit(code)


def _load(read, path, *args):
    """``read(path, *args)``; a file it cannot read or parse exits 3."""
    try:
        return read(path, *args)
    except (OSError, ValueError) as exc:
        _fail(EXIT_IO, f"cannot load {path}: {exc}")


class ErrorBoundary(click.Group):
    """Command group that turns what a command raises into an exit code and
    one line: ``ValueError`` (bad configuration), ``MemoryError`` (an input
    too large to allocate) and click's error for a command line it cannot
    parse exit 2, ``OSError`` (a failed read or write) exits 3."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ValueError, click.ClickException) as exc:
            _fail(EXIT_CONFIG, exc)
        except MemoryError as exc:
            _fail(EXIT_CONFIG, f"input too large to allocate: {exc}")
        except OSError as exc:
            _fail(EXIT_IO, exc)


def _output_dir(explicit: str | None, scenario: Scenario | None = None) -> Path:
    """The output directory, made; called once there is output to write."""
    out = Path(explicit or (scenario.raw.get("output_dir", ".") if scenario else "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _simulate_scans(scenario: Scenario, seed: int) -> Iterator[tuple]:
    """(t, pose, beams) for each scripted scan pose, in order; the ground
    truth and poses load at once, each scan is simulated as it is drawn."""
    truth = scenario.ground_truth()
    rng = np.random.default_rng(seed)
    return ((float(i), tuple(pose),
             simulate_scan(truth, tuple(pose), scenario.sensor, scenario.beams,
                           rng))
            for i, pose in enumerate(scenario.scan_poses()))


def _build_maps(scenario: Scenario, seed: int
                ) -> tuple[LambdaGrid, BayesGrid, list]:
    simulated = _simulate_scans(scenario, seed)
    field = LambdaGrid(scenario.geometry, scenario.sensor, scenario.lambda_max)
    bayes = scenario.make_bayes()
    scans = []
    # each scan is folded in right after it is simulated, so trace_beam
    # walks only the rows that differ from the simulator's trace
    for t, pose, beams in simulated:
        apply_scan(field, beams, scenario.sensor)
        bayes_scan(bayes, beams, scenario.sensor)
        scans.append((t, pose, beams))
    return field, bayes, scans


@click.group(cls=ErrorBoundary)
def main():
    """Intensity-field mapping, path risk evaluation and risk-gated planning."""


@main.command("map")
@click.argument("scenario_file", type=click.Path())
@click.option("--seed", type=int, default=None, help="Override scenario seed.")
@click.option("--output-dir", "-o", type=click.Path(), default=None)
def cmd_map(scenario_file, seed, output_dir):
    """Simulate scans and write field + baseline dumps and renders."""
    scenario = Scenario.load(scenario_file)
    seed = scenario.seed if seed is None else seed
    field, bayes, scans = _build_maps(scenario, seed)
    out = _output_dir(output_dir, scenario)
    lfio.save_lambda_grid(field, out / "lambda_grid.dump")
    lfio.save_bayes_grid(bayes, out / "bayes_grid.dump")
    lfio.export_lambda_csv(field, out / "lambda_grid.csv")
    lfio.export_bayes_csv(bayes, out / "bayes_grid.csv")
    lfio.export_lambda_pgm(field, out / "lambda_grid.pgm")
    lfio.export_bayes_pgm(bayes, out / "bayes_grid.pgm")
    lfio.save_scan_log(out / "scans.csv", scans)
    click.echo(f"wrote maps for {len(scans)} scans to {out}")


@main.command("simulate-scans")
@click.argument("scenario_file", type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--output-dir", "-o", type=click.Path(), default=None)
def cmd_simulate_scans(scenario_file, seed, output_dir):
    """Simulate lidar scans and write only the scan log."""
    scenario = Scenario.load(scenario_file)
    seed = scenario.seed if seed is None else seed
    scans = list(_simulate_scans(scenario, seed))
    out = _output_dir(output_dir, scenario)
    lfio.save_scan_log(out / "scans.csv", scans)
    click.echo(f"wrote {sum(len(b) for _, _, b in scans)} beams to {out}")


@main.command("eval-path")
@click.argument("dump_file", type=click.Path())
@click.argument("path_file", type=click.Path())
@click.option("--engine", type=click.Choice(["lambda", "bayes"]),
              default="lambda")
@click.option("--bound", type=click.Choice(["mle", "lower", "upper"]),
              default="mle")
@click.option("--width", type=float, default=RobotShape.width)
@click.option("--mass", type=float, default=RobotShape.mass)
@click.option("--speed", type=float, default=1.0,
              help="Constant speed for the momentum risk.")
@click.option("--unit-risk", is_flag=True,
              help="Use r = 1, making the risk equal the collision probability.")
@click.option("--output-dir", "-o", type=click.Path(), default=None)
def cmd_eval_path(dump_file, path_file, engine, bound, width, mass, speed,
                  unit_risk, output_dir):
    """Collision probability and expected risk of a path over a saved grid.
    The Bayes engine takes the footprint ``--width`` only."""
    ctx = click.get_current_context()
    unused = [p.opts[0] for p in ctx.command.params
              if p.name in ("bound", "unit_risk", "speed", "mass")
              and ctx.get_parameter_source(p.name) is not ParameterSource.DEFAULT]
    if engine == "bayes" and unused:
        raise ValueError(f"{', '.join(unused)}: not used by --engine bayes")
    poses = _load(lfio.load_path_csv, path_file)
    loader = lfio.load_bayes_grid if engine == "bayes" else lfio.load_lambda_grid
    grid = _load(loader, dump_file)
    shape = RobotShape(width=width, mass=mass)
    if engine == "bayes":
        cells, _ = sweep_footprint(grid.geometry, poses, shape.width)
        p_coll, risk = naive_path_probability(grid, cells), ""
    else:
        crossing = swept_cells(grid, poses, shape)
        p_coll = path_collision_probability(crossing, bound)
        risk_fn = ((lambda a: 1.0) if unit_risk
                   else momentum_risk(shape, constant_velocity(speed)))
        risk = f"{expected_risk(crossing, risk_fn, bound)!r}"
    out = _output_dir(output_dir)
    if engine == "lambda":
        lfio.save_risk_report(out / "risk_report.csv", crossing, risk_fn, bound)
    (out / "summary.csv").write_text(
        f"engine,p_coll,expected_risk\n{engine},{p_coll!r},{risk}\n")
    click.echo(f"P_coll {p_coll!r}")
    if risk:
        click.echo(f"E_risk {risk}")


@main.command("plan")
@click.argument("scenario_file", type=click.Path())
@click.argument("reference_path", type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--output-dir", "-o", type=click.Path(), default=None)
def cmd_plan(scenario_file, reference_path, seed, output_dir):
    """Map the scenario, then run the risk-gated planning episode."""
    scenario = Scenario.load(scenario_file)
    seed = scenario.seed if seed is None else seed
    reference = _load(lfio.load_path_csv, reference_path)
    field, _, _ = _build_maps(scenario, seed)
    # the episode starts at the reference's first pose; run_episode rejects
    # an empty reference
    start = tuple(reference[0]) if len(reference) else ()
    log, trace = run_episode(field, start, reference, scenario.shape,
                             scenario.planner, scenario.max_steps)
    out = _output_dir(output_dir, scenario)
    lfio.save_planner_log(out / "planner_log.csv", log)
    lfio.save_path_csv(out / "trace.csv", trace)
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
        raise ValueError("--base-prob must be in (0, 1)")
    res_list = [float(tok) for tok in resolutions.split(",") if tok]
    # r * r is the cell area, which must neither underflow to 0 nor overflow
    if not res_list or not all(r > 0 and 0 < r * r < math.inf
                               for r in [base_resolution, *res_list]):
        raise ValueError("--resolutions and --base-resolution must be > 0 "
                         "with a finite cell area > 0")
    if base_cells < 1:
        raise ValueError("--base-cells must be >= 1")
    base_area = base_resolution ** 2
    region_area = base_cells * base_area
    if not all(region_area / (r * r) < math.inf for r in res_list):
        raise ValueError("--resolutions: the region holds too many cells")
    intensity = -math.log1p(-base_prob) / base_area
    # closed forms over n_cells equal cells: no per-cell arrays
    n_cells = [max(1, round(region_area / (r * r))) for r in res_list]
    p_lambda = [collision_probability(n * (r * r) * intensity)
                for n, r in zip(n_cells, res_list)]
    p_bayes = [collision_probability(-n * math.log1p(-base_prob))
               for n in n_cells]
    out = _output_dir(output_dir)
    lfio._write_table(out / "compare.csv",
                      [("resolution", "p_lambda", "p_bayes_naive")],
                      [res_list, p_lambda, p_bayes])
    for res, p_l, p_b in zip(res_list, p_lambda, p_bayes):
        click.echo(f"{res} {p_l} {p_b}")


if __name__ == "__main__":
    main()
