#!/usr/bin/env python3
"""Print one line per output item of a checkout, its label and sha256 (an
exit code as it is), so that two checkouts can be compared with ``diff``:

    python3 scripts/same_bits.py --checkout ../parent > parent.txt
    python3 scripts/same_bits.py > change.txt
    diff parent.txt change.txt

The package is imported from ``<checkout>/src`` and the benchmark's seeded
world from ``<checkout>/bench``. Per ``--seeds`` seed the items are:

- ``map``: the beams, hit counts, miss counts and log-odds after ``--scans``
  scans along the world's loop, as the map-400 workload makes them;
- ``plan``: the chosen arcs of ``--cycles`` planner cycles, as the plan-400
  workload runs them, each as the hex of (v, omega, risk_upper, closeness),
  or ``stop``.

Then, for the README scenario (seed 42) and the CLI tests' scenario
(seed 11): the exit code, stdout and stderr of ``map``, ``simulate-scans``,
``plan``, ``compare`` and ``eval-path`` (``--bound mle/lower/upper``,
``--unit-risk``, ``--engine bayes``), and every file that each one wrote.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

SCENARIOS = {
    "readme": ("""\
grid: {origin: [0.0, 0.0], resolution: 0.1, cols: 60, rows: 60}
sensor: {p_hit: 0.99, p_miss: 0.9999, error_area: 0.04, max_range: 5.0}
ground_truth:
  uniform: 0.0
  blocks:
    - {box: [3.5, 2.0, 4.5, 4.0], value: 2.0}
scan:
  poses: [[2.0, 3.0, 0.0], [2.0, 1.5, 0.0]]
  beams: 90
seed: 42
robot: {width: 0.4, length: 0.6, mass: 20.0}
planner: {v_samples: 5, omega_samples: 5, max_risk: 1.0, max_steps: 100}
""", np.arange(1.0, 5.0, 0.05), 3.0),
    "test_cli": ("""\
grid: {origin: [0.0, 0.0], resolution: 0.1, cols: 40, rows: 40}
sensor: {max_range: 5.0}
ground_truth:
  uniform: 0.0
  blocks:
    - {box: [2.5, 0.0, 3.0, 4.0], value: 100.0}
scan:
  poses: [[1.0, 2.0, 0.0], [1.5, 2.0, 0.0]]
  beams: 90
seed: 11
robot: {width: 0.3, length: 0.4, mass: 20.0}
planner: {v_samples: 3, omega_samples: 3, max_steps: 40}
""", np.arange(1.0, 3.45, 0.1), 2.0),
}
EVAL_PATH = [("mle", ["--bound", "mle", "--speed", "0.5"]),
             ("lower", ["--bound", "lower", "--speed", "0.5"]),
             ("upper", ["--bound", "upper", "--speed", "0.5"]),
             ("unit-risk", ["--unit-risk"])]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def map_items(lf, W, seed: int, cells: int, scans: int):
    world = W.generate(seed, cells)
    truth, sensor = W.ground_truth(lf, world), W.sensor_model(lf)
    grid = lf.field.LambdaGrid(W.geometry(lf, world), sensor)
    bayes = lf.bayes.BayesGrid(grid.geometry)
    rng = np.random.default_rng([seed, 1])
    beams = hashlib.sha256()
    for k in range(scans):
        pose = tuple(world.loop[k % len(world.loop)])
        scan = lf.sensor.simulate_scan(truth, pose, sensor, W.BEAMS, rng)
        lf.sensor.apply_scan(grid, scan, sensor)
        lf.bayes.bayes_scan(bayes, scan, sensor)
        beams.update(np.array([(*b.origin, *b.direction, b.measured_range, b.hit)
                               for b in scan], np.float64).tobytes())
    name = f"map-{cells} seed {seed} scans {scans}"
    yield f"{name} beams", beams.hexdigest()
    yield f"{name} hits", sha(grid.hits.tobytes())
    yield f"{name} misses", sha(grid.misses.tobytes())
    yield f"{name} log_odds", sha(bayes.log_odds.tobytes())


def plan_items(lf, workloads, seed: int, cells: int, cycles: int, workdir: Path):
    class Cycles(workloads.PlanWorkload):
        def _check_cycle(self, chosen) -> bool:
            return True     # moves the robot as the workload does, unchecked

    run = Cycles(lf, seed, cells, workdir)
    run.setup()
    arcs = hashlib.sha256()
    for _ in range(cycles):
        chosen, _ = run.op()
        arcs.update(b"stop\n" if chosen is None else " ".join(
            float(x).hex() for x in (chosen.v, chosen.omega, chosen.risk_upper,
                                     chosen.closeness)).encode() + b"\n")
        run.check(chosen)
    yield f"plan-{cells} seed {seed} cycles {cycles} arcs", arcs.hexdigest()


def cli_items(lf, workdir: Path):
    from click.testing import CliRunner

    runner = CliRunner()
    cwd = os.getcwd()
    for name, (scenario, xs, y) in SCENARIOS.items():
        here = workdir / name
        here.mkdir()
        (here / "s.yaml").write_text(scenario)
        (here / "path.csv").write_text(
            "x,y,theta\n" + "".join(f"{x!r},{y!r},0.0\n" for x in xs.tolist()))
        commands = [("map", ["map", "s.yaml", "-o", "map"]),
                    ("simulate-scans", ["simulate-scans", "s.yaml", "-o", "scans"]),
                    ("plan", ["plan", "s.yaml", "path.csv", "-o", "plan"]),
                    ("compare", ["compare", "--base-prob", "0.1", "--resolutions",
                                 "0.2,0.2828427,0.05", "-o", "compare"])]
        commands += [(f"eval-path {label}",
                      ["eval-path", "map/lambda_grid.dump", "path.csv", *flags,
                       "-o", f"eval-{label}"]) for label, flags in EVAL_PATH]
        commands.append(("eval-path bayes",
                         ["eval-path", "map/bayes_grid.dump", "path.csv",
                          "--engine", "bayes", "-o", "eval-bayes"]))
        os.chdir(here)
        try:
            for label, args in commands:
                result = runner.invoke(lf.cli.main, args)
                key = f"cli {name} {label}"
                yield f"{key} exit", str(result.exit_code)
                yield f"{key} stdout", sha(result.stdout_bytes)
                yield f"{key} stderr", sha(result.stderr_bytes)
                out = Path(args[-1])
                for path in sorted(out.iterdir()) if out.is_dir() else ():
                    yield f"{key} {path.name}", sha(path.read_bytes())
        finally:
            os.chdir(cwd)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="checkout whose src/ and bench/ to run")
    parser.add_argument("--scans", type=int, default=300)
    parser.add_argument("--cycles", type=int, default=2000)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 3])
    parser.add_argument("--cells", type=int, default=400,
                        help="side of the benchmark world in cells")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import lambdafield as lf
    import lambdafield.cli  # noqa: F401  (lf.cli)
    import workloads
    import world as W

    if Path(lf.__file__).resolve().parent != checkout / "src" / "lambdafield":
        sys.exit(f"error: imported lambdafield from {lf.__file__}")
    with tempfile.TemporaryDirectory() as tmp:
        items = []
        for seed in args.seeds:
            items += map_items(lf, W, seed, args.cells, args.scans)
            items += plan_items(lf, workloads, seed, args.cells, args.cycles,
                                Path(tmp))
        items += cli_items(lf, Path(tmp))
    for label, digest in items:
        print(label, digest)


if __name__ == "__main__":
    main()
