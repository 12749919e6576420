"""The three workloads. Each has a ``setup`` (timed, repeated), an ``op``
(timed), a ``prepare_checks`` run once before the ops, a ``check`` of each
op's outputs and a ``finish`` of end-of-run checks (all three untimed), and
``quality`` figures of the field it built. The checks compare the package
with the frozen reference implementations in ``reference.py``.

All three share one seeded world (see ``world.py``). The package is reached
through its modules at call time (``lf.sensor.simulate_scan``), so the traced
run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import time
from pathlib import Path

import numpy as np

import reference as R
import world as W

REF_LENGTH = 4.0          # m of loop per planner reference
REF_STRIDE = 6            # loop poses between reference starts
REF_MAX_STEPS = 15        # planner cycles per reference, as run_episode's max_steps
PLAN_SCAN_STRIDE = 2      # plan-400 prebuilds its field from every 2nd loop pose
ROBOT_WIDTH = 0.4         # m, the CLI's default robot
ROBOT_MASS = 20.0         # kg
CLI_SCANS = 4
CLI_PATH_LENGTH = 17.0    # m
CLI_SPEED = 0.5
CHECK_SHARE = 0.5         # map-400 verifies scans while checks take at most
                          # this share of the ops' time
BAYES_LOG_ODDS = math.log(0.7 / 0.3)   # BayesGrid's default update step
BAYES_CLAMP = 10.0
CLI_OUTPUTS = {"lambda_grid.dump", "bayes_grid.dump", "lambda_grid.csv",
               "bayes_grid.csv", "lambda_grid.pgm", "bayes_grid.pgm",
               "scans.csv", "risk_report.csv", "summary.csv"}


def isclose(a: float, b: float) -> bool:
    """Equal up to summation order."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def field_quality(lf, grid, truth) -> dict[str, float]:
    """``sparse_recall``: share of observed sparse-matter cells with
    lambda_mle > 0. ``bound_coverage``: share of observed matter cells whose
    [lambda_low, lambda_high] holds the true intensity."""
    observed = (grid.hits.astype(np.int64) + grid.misses) > 0
    true = truth.intensities
    sparse = observed & (true > 0) & (true < W.HARD)
    matter = observed & (true > 0)
    lam = grid.lambda_map()
    low, high = grid.bound_maps()
    inside = (low <= true) & (true <= high)
    return {
        "sparse_recall": float((lam[sparse] > 0).mean()) if sparse.any() else 0.0,
        "bound_coverage": float(inside[matter].mean()) if matter.any() else 0.0,
    }


class Workload:
    name = ""
    unit_name = "op"
    setups = 5            # set-ups per run; setup_s is their median

    def __init__(self, lf, seed: int, cells: int, workdir: Path):
        self.lf, self.seed, self.cells = lf, seed, cells
        self.dir = workdir / self.name

    def prepare_checks(self) -> None:
        """Untimed work the checks need, done once after the set-ups."""

    def finish(self) -> list[str]:
        """End-of-run checks; returns one message per failure."""
        return []


class MapWorkload(Workload):
    """One op = one 360-beam scan at the next loop pose: simulate_scan ->
    apply_scan -> bayes_scan. Per-beam Python traversal, no whole-grid work."""

    name = "map-400"
    unit_name = "scan"

    def setup(self) -> None:
        lf = self.lf
        self.world = W.generate(self.seed, self.cells)
        self.truth = W.ground_truth(lf, self.world)
        self.sensor = W.sensor_model(lf)
        geo = W.geometry(lf, self.world)
        self.grid = lf.field.LambdaGrid(geo, self.sensor)
        self.bayes = lf.bayes.BayesGrid(geo)
        self.rng = np.random.default_rng([self.seed, 1])
        self.k = 0
        self.quality_at_lap: dict[str, float] | None = None

    def prepare_checks(self) -> None:
        self.verified = 0
        self.check_s = 0.0
        self.t0 = time.perf_counter()
        self._snapshot()

    def _snapshot(self) -> None:
        """Copies the live grids, for the reference to fold the next scan into."""
        self.before = (self.grid.hits.astype(np.int64),
                       self.grid.misses.astype(np.int64),
                       self.bayes.log_odds.copy())

    def op(self):
        lf = self.lf
        pose = tuple(self.world.loop[self.k % len(self.world.loop)])
        beams = lf.sensor.simulate_scan(self.truth, pose, self.sensor,
                                        W.BEAMS, self.rng)
        lf.sensor.apply_scan(self.grid, beams, self.sensor)
        lf.bayes.bayes_scan(self.bayes, beams, self.sensor)
        return (pose, beams), {}

    def check(self, out) -> bool:
        """The scan has one beam per bearing from the pose. If the grids were
        copied before it, folding it into the copies by the reference gives
        the live grids: counts exactly, log-odds up to rounding.

        The first scan is verified so, and each next one while the checks
        have taken at most CHECK_SHARE of the ops' time. That keeps a run's
        length and memory the same whatever the speed of the package.
        """
        t = time.perf_counter()
        pose, beams = out
        self.k += 1
        if self.k == len(self.world.loop):
            self.quality_at_lap = field_quality(self.lf, self.grid, self.truth)
        ok = self._beams_valid(pose, beams)
        if self.before is not None:
            hits, misses, log_odds = self.before
            geo = self.grid.geometry
            R.apply_scan(hits, misses, geo, beams, self.sensor)
            R.bayes_scan(log_odds, geo, beams, self.sensor, BAYES_LOG_ODDS,
                         -BAYES_LOG_ODDS, BAYES_CLAMP)
            ok = (ok and np.array_equal(self.grid.hits, hits)
                  and np.array_equal(self.grid.misses, misses)
                  and np.allclose(self.bayes.log_odds, log_odds,
                                  rtol=0.0, atol=1e-9))
            self.verified += 1
        ops_s = t - self.t0 - self.check_s
        if self.check_s + time.perf_counter() - t <= CHECK_SHARE * ops_s:
            self._snapshot()
        else:
            self.before = None
        self.check_s += time.perf_counter() - t
        return ok

    def _beams_valid(self, pose, beams) -> bool:
        x, y, theta = pose
        max_range = self.sensor.max_range
        if len(beams) != W.BEAMS:
            return False
        for k, b in enumerate(beams):
            angle = theta + 2.0 * math.pi * k / W.BEAMS
            if not (b.origin == (x, y)
                    and abs(b.direction[0] - math.cos(angle)) < 1e-12
                    and abs(b.direction[1] - math.sin(angle)) < 1e-12
                    and 0.0 < b.measured_range <= max_range
                    and (b.hit or b.measured_range == max_range)):
                return False
        return True

    def quality(self) -> dict[str, float]:
        # after the first lap, so the figure depends on the seed alone
        return self.quality_at_lap or field_quality(self.lf, self.grid, self.truth)

    def headline(self, lat_ms: list[float], parts) -> list[tuple]:
        return [("scan_ms_p50", percentile(lat_ms, 50), "ms", len(lat_ms)),
                ("scan_ms_p90", percentile(lat_ms, 90), "ms", len(lat_ms)),
                ("sparse_recall", self.quality()["sparse_recall"], "ratio",
                 min(self.k, len(self.world.loop))),
                ("scans_verified", self.verified, "count", self.k)]


class PlanWorkload(Workload):
    """One op = one plan_step (default PlannerConfig: 25 arcs, 1 s horizon)
    along reference stretches of the loop, executing each chosen arc. The
    first reference runs into a hard block, so the stop path runs."""

    name = "plan-400"
    unit_name = "cycle"
    setups = 3            # each one scans the field in, about 2.5 s

    def setup(self) -> None:
        lf = self.lf
        w = self.world = W.generate(self.seed, self.cells)
        self.truth = W.ground_truth(lf, w)
        sensor = W.sensor_model(lf)
        self.grid = lf.field.LambdaGrid(W.geometry(lf, w), sensor)
        rng = np.random.default_rng([self.seed, 2])
        scan_poses = list(w.loop[::PLAN_SCAN_STRIDE]) + [w.blocked_start]
        for pose in scan_poses:
            beams = lf.sensor.simulate_scan(self.truth, tuple(pose), sensor,
                                            W.BEAMS, rng)
            lf.sensor.apply_scan(self.grid, beams, sensor)
        blocked = W.densify(np.array([w.blocked_start[:2], w.blocked_goal]), 0.1)
        self.refs = [(tuple(w.blocked_start), blocked)]
        for i in range(0, len(w.loop), REF_STRIDE):
            self.refs.append((tuple(w.loop[i]),
                              W.densify(W.loop_stretch(w, i, REF_LENGTH), 0.1)))
        self.shape = lf.path.RobotShape(ROBOT_WIDTH, 0.6, ROBOT_MASS)
        self.config = lf.planner.PlannerConfig()
        self.ref = 0
        self.pose = self.refs[0][0]
        self.steps = 0
        self.cycles = 0
        self.blocked_stopped = False

    def prepare_checks(self) -> None:
        self.ref_high = R.upper_bound_map(self.grid.hits, self.grid.misses,
                                          self.grid.sensor)

    def op(self):
        return self.lf.planner.plan_step(self.grid, self.pose,
                                         self.refs[self.ref][1], self.shape,
                                         self.config), {}

    def check(self, chosen) -> bool:
        """The chosen arc and one more arc per cycle, in turn, are scored
        with the reference sweep and upper bounds. The chosen arc must carry
        that risk, within the budget; the other one, if the reference admits
        it, must not lie closer to the reference path (or the planner must
        not have stopped). Then moves the robot the way run_episode does: to
        the arc's end, or to the next reference on a stop, on reaching the
        goal or after REF_MAX_STEPS cycles."""
        ok = self._check_cycle(chosen)
        self.cycles += 1
        self.steps += 1
        if chosen is None:
            if self.ref == 0:
                self.blocked_stopped = True
            self._next_ref()
            return ok
        self.pose = tuple(float(c) for c in chosen.endpoint)
        goal = self.refs[self.ref][1][-1]
        if (math.hypot(self.pose[0] - goal[0], self.pose[1] - goal[1])
                <= self.config.goal_tolerance or self.steps >= REF_MAX_STEPS):
            self._next_ref()
        return ok

    def _check_cycle(self, chosen) -> bool:
        arcs = R.arcs(self.pose, self.config)
        max_risk = self.config.max_risk
        if chosen is not None:
            match = [a for a in arcs if abs(a[0] - chosen.v) < 1e-12
                     and abs(a[1] - chosen.omega) < 1e-12]
            if len(match) != 1 or not np.allclose(match[0][2], chosen.poses,
                                                  rtol=0.0, atol=1e-9):
                return False
            risk, closeness = self._score(*match[0])
            if not (risk is not None and chosen.risk_upper <= max_risk
                    and isclose(risk, chosen.risk_upper)
                    and isclose(closeness, chosen.closeness)):
                return False
        risk, closeness = self._score(*arcs[self.cycles % len(arcs)])
        if risk is None or risk >= max_risk * (1.0 - 1e-9):
            return True     # not admissible, or too close to the gate to say
        return chosen is not None and closeness >= chosen.closeness - 1e-9

    def _score(self, v, omega, poses):
        """(upper-bound momentum risk, closeness) of an arc by the
        reference; (None, None) when it leaves the grid."""
        swept = R.swept_cells(self.grid.geometry, poses, self.shape.width)
        if swept is None:
            return None, None
        cells, areas = swept
        risk = R.expected_risk(areas, self.ref_high[cells],
                               lambda a: self.shape.mass * v)
        return risk, R.closeness(poses, self.refs[self.ref][1])

    def _next_ref(self) -> None:
        self.ref = (self.ref + 1) % len(self.refs)
        self.pose = self.refs[self.ref][0]
        self.steps = 0

    def finish(self) -> list[str]:
        if not self.blocked_stopped:
            return ["planner did not stop in front of the hard block"]
        return []

    def quality(self) -> dict[str, float]:
        return field_quality(self.lf, self.grid, self.truth)

    def headline(self, lat_ms: list[float], parts) -> list[tuple]:
        return [("cycle_ms_p50", percentile(lat_ms, 50), "ms", len(lat_ms)),
                ("cycle_ms_p90", percentile(lat_ms, 90), "ms", len(lat_ms))]


class CliWorkload(Workload):
    """One op = ``lambdafield map`` on a 4-pose YAML scenario of the world,
    then ``lambdafield eval-path --bound upper --speed 0.5`` of a ~17 m path
    on the dump it wrote, both in-process, into a reused output directory."""

    name = "cli-400"
    unit_name = "round trip"
    setups = 25           # each one takes about 2 ms, so take many

    def setup(self) -> None:
        w = self.world = W.generate(self.seed, self.cells)
        n = len(w.loop)
        self.scan_poses = w.loop[[i * n // CLI_SCANS for i in range(CLI_SCANS)]]
        path = W.densify(W.loop_stretch(w, n // 8, CLI_PATH_LENGTH),
                         W.RESOLUTION)
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.out = self.dir / "out"
        self.out.mkdir(parents=True)
        self.scenario = self.dir / "scenario.yaml"
        self.scenario.write_text(W.scenario_yaml(w, self.scan_poses, self.seed))
        self.path = self.dir / "path.csv"
        self.path.write_text("x,y,theta\n" + "".join(
            f"{x!r},{y!r},{th!r}\n" for x, y, th in path.tolist()))
        self.dump = self.out / "lambda_grid.dump"
        self.poses = path

    def prepare_checks(self) -> None:
        """What ``map`` must dump and ``eval-path`` must print, by the
        reference from the scans the scenario gives (the updates draw no
        random numbers)."""
        lf, w = self.lf, self.world
        self.truth = W.ground_truth(lf, w)
        sensor = W.sensor_model(lf)
        geo = self.truth.geometry
        self.hits = np.zeros(geo.n_cells, dtype=np.int64)
        self.misses = np.zeros(geo.n_cells, dtype=np.int64)
        self.log_odds = np.zeros(geo.n_cells, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        for pose in self.scan_poses:
            beams = lf.sensor.simulate_scan(self.truth, tuple(pose), sensor,
                                            W.BEAMS, rng)
            R.apply_scan(self.hits, self.misses, geo, beams, sensor)
            R.bayes_scan(self.log_odds, geo, beams, sensor, BAYES_LOG_ODDS,
                         -BAYES_LOG_ODDS, BAYES_CLAMP)
        cells, areas = R.swept_cells(geo, self.poses, ROBOT_WIDTH)
        lam = R.upper_bound_map(self.hits, self.misses, sensor)[cells]
        self.p_coll = R.collision_probability(areas, lam)
        self.e_risk = R.expected_risk(areas, lam,
                                      lambda a: ROBOT_MASS * CLI_SPEED)

    def _run(self, args: list[str]) -> str:
        """Runs one command in-process and returns what it printed; raises
        if it exits with a code other than 0."""
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.lf.cli.main.main(args, prog_name="lambdafield",
                                             standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
        if code not in (None, 0):
            raise RuntimeError(f"lambdafield {args[0]} exited with {code!r}")
        return buf.getvalue()

    def op(self):
        t0 = time.perf_counter_ns()
        self._run(["map", str(self.scenario), "-o", str(self.out)])
        t1 = time.perf_counter_ns()
        text = self._run(["eval-path", str(self.dump), str(self.path),
                          "--bound", "upper", "--speed", repr(CLI_SPEED),
                          "-o", str(self.out)])
        t2 = time.perf_counter_ns()
        return text, {"map_ms": (t1 - t0) / 1e6, "eval_ms": (t2 - t1) / 1e6}

    def check(self, text: str) -> bool:
        """Both commands wrote every output file, the dumps hold the
        reference counts (exactly) and log-odds, and eval-path prints the
        reference P_coll and E_risk.

        Empties the output directory for the next op: on ext4, truncating a
        file and writing it again starts its writeback on close, which would
        time the disk instead of the program's write path.
        """
        written = {f.name for f in self.out.iterdir()}
        if written != CLI_OUTPUTS:
            return False
        counts = np.array("\n".join(R.read_dump_body(self.dump, "counts"))
                          .split(), dtype=np.int64).reshape(-1, 2)
        log_odds = np.array(R.read_dump_body(self.out / "bayes_grid.dump",
                                             "logodds"), dtype=np.float64)
        for f in self.out.iterdir():
            f.unlink()
        printed = dict(line.split() for line in text.splitlines())
        return (np.array_equal(counts[:, 0], self.hits)
                and np.array_equal(counts[:, 1], self.misses)
                and np.allclose(log_odds, self.log_odds, rtol=0.0, atol=1e-9)
                and printed.keys() == {"P_coll", "E_risk"}
                and isclose(float(printed["P_coll"]), self.p_coll)
                and isclose(float(printed["E_risk"]), self.e_risk))

    def quality(self) -> dict[str, float]:
        grid = self.lf.field.LambdaGrid(self.truth.geometry, W.sensor_model(self.lf))
        grid.hits, grid.misses = self.hits, self.misses
        return field_quality(self.lf, grid, self.truth)

    def headline(self, lat_ms: list[float], parts) -> list[tuple]:
        map_ms = [p["map_ms"] for p in parts]
        eval_ms = [p["eval_ms"] for p in parts]
        return [("map_cmd_s", percentile(map_ms, 50) / 1e3, "s", len(map_ms)),
                ("eval_cmd_ms", percentile(eval_ms, 50), "ms", len(eval_ms))]


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else math.nan


WORKLOADS = {w.name: w for w in (MapWorkload, PlanWorkload, CliWorkload)}
