import math

import numpy as np
import pytest

from lambdafield import (GridGeometry, LambdaGrid, PlannerConfig, RobotShape,
                         SensorModel, plan_step, run_episode, sample_arcs,
                         swept_cells)
from lambdafield import field, path, planner
from lambdafield.planner import MAX_ARC_STEPS, admissible_candidates
import oracle


@pytest.fixture
def shape():
    return RobotShape(0.4, 0.6, 20.0)


@pytest.fixture
def corridor_grid():
    geo = GridGeometry(0.0, 0.0, 0.1, 100, 40)
    grid = LambdaGrid(geo, SensorModel())
    grid.misses[:] = 100  # everything observed free
    return grid


def block(grid, x0, x1, y0, y1):
    geo = grid.geometry
    for col in range(int(x0 / 0.1), int(x1 / 0.1)):
        for row in range(int(y0 / 0.1), int(y1 / 0.1)):
            i = geo.flat(col, row)
            grid.hits[i] = 100
            grid.misses[i] = 0


class TestConfigValidation:
    @pytest.mark.parametrize("key,value", [
        ("v_max", math.inf), ("v_max", math.nan), ("omega_max", math.inf),
        ("horizon", math.inf), ("step", math.inf), ("goal_tolerance", 0.0),
        ("goal_tolerance", math.nan), ("max_risk", 0.0)])
    def test_rejects(self, key, value):
        with pytest.raises(ValueError):
            PlannerConfig(**{key: value})

    @pytest.mark.parametrize("v_max,horizon,step", [
        (1e300, 1e300, 0.05), (1.0, 1.0, 1e-300), (1e6, 1.0, 0.05),
        (MAX_ARC_STEPS * 0.05 * 1.001, 1.0, 0.05)])
    def test_rejects_arcs_of_too_many_steps(self, v_max, horizon, step):
        with pytest.raises(ValueError, match="steps per arc"):
            PlannerConfig(v_max=v_max, horizon=horizon, step=step)

    def test_longest_arc_allowed(self):
        config = PlannerConfig(v_max=MAX_ARC_STEPS * 0.05, step=0.05,
                               v_samples=1, omega_samples=1)
        arc, = sample_arcs((0.0, 0.0, 0.0), config)
        assert len(arc.poses) == MAX_ARC_STEPS + 1

    def test_infinite_max_risk_and_goal_tolerance_allowed(self):
        PlannerConfig(max_risk=math.inf, goal_tolerance=math.inf)

    @pytest.mark.parametrize("key", ["width", "length", "mass"])
    def test_shape_rejects_infinite(self, key):
        with pytest.raises(ValueError):
            RobotShape(**{key: math.inf})


class TestSampleArcs:
    def test_straight_arc_kinematics(self):
        cfg = PlannerConfig(v_max=1.0, omega_max=1.0, v_samples=1,
                            omega_samples=1)
        cands = sample_arcs((0.0, 0.0, 0.0), cfg)
        assert len(cands) == 1
        end = cands[0].endpoint
        assert end[0] == pytest.approx(1.0, abs=1e-12)
        assert end[1] == pytest.approx(0.0, abs=1e-12)

    def test_half_circle_endpoint(self):
        cfg = PlannerConfig(v_max=math.pi / 2, omega_max=math.pi, v_samples=1,
                            omega_samples=3, horizon=1.0, step=0.01)
        poses = sample_arcs((0.0, 0.0, 0.0), cfg)[-1].poses
        # half circle of radius 0.5: ends at (0, 1) heading backwards
        assert poses[-1][0] == pytest.approx(0.0, abs=1e-9)
        assert poses[-1][1] == pytest.approx(1.0, abs=1e-9)
        assert poses[-1][2] == pytest.approx(math.pi, abs=1e-9)

    def test_candidate_count(self):
        cfg = PlannerConfig(v_samples=5, omega_samples=5)
        assert len(sample_arcs((1.0, 1.0, 0.0), cfg)) == 25

    def test_arcs_start_at_pose(self):
        cfg = PlannerConfig(v_samples=3, omega_samples=3)
        for cand in sample_arcs((2.0, 1.5, 0.7), cfg):
            np.testing.assert_allclose(cand.poses[0], [2.0, 1.5, 0.7])

    def test_equals_integrate_arc_bitwise(self, rng):
        """Each arc's v, omega and pose bytes equal ``oracle.integrate_arc``
        of its (v, omega) alone: on 300 seeded poses and configs, with one omega,
        with omega_max = 0, and with arcs too short to take a step."""
        configs = [PlannerConfig(omega_samples=1), PlannerConfig(omega_max=0.0),
                   PlannerConfig(v_max=1e-300, horizon=1e-300)]
        poses = [(0.0, 0.0, 0.0), (-3.5, 2.0, -2.5), (0.0, 0.0, 0.0)]
        for _ in range(300):
            configs.append(PlannerConfig(
                v_max=float(rng.uniform(0.1, 3.0)),
                omega_max=float(rng.choice([0.0, 1e-13, rng.uniform(0.0, 4.0)])),
                v_samples=int(rng.integers(1, 7)),
                omega_samples=int(rng.integers(1, 8)),
                horizon=float(rng.uniform(0.2, 2.0)),
                step=float(rng.uniform(0.01, 0.3))))
            poses.append(tuple(rng.uniform(-50.0, 50.0, 2))
                         + (float(rng.uniform(-7.0, 7.0)),))
        for pose, config in zip(poses, configs):
            got = sample_arcs(pose, config)
            want = oracle.sample_arcs(pose, config)
            assert [(a.v.hex(), a.omega.hex()) for a in got] == [
                (a.v.hex(), a.omega.hex()) for a in want]
            for got_arc, want_arc in zip(got, want):
                assert got_arc.poses.dtype == want_arc.poses.dtype
                assert got_arc.poses.tobytes() == want_arc.poses.tobytes()


class TestPlanStep:
    def test_open_field_moves_toward_reference(self, corridor_grid, shape):
        cfg = PlannerConfig()
        ref = np.array([[x, 2.0, 0.0] for x in np.arange(1.0, 9.0, 0.1)])
        chosen = plan_step(corridor_grid, (1.0, 2.0, 0.0), ref, shape, cfg)
        assert chosen is not None
        assert chosen.risk_upper <= cfg.max_risk
        assert abs(chosen.omega) < 1e-9  # straight arc hugs the straight path

    def test_blocked_returns_stop(self, corridor_grid, shape):
        # wall right in front: every sampled arc must cross saturated cells
        block(corridor_grid, 2.0, 2.6, 0.0, 4.0)
        cfg = PlannerConfig()
        ref = np.array([[x, 2.0, 0.0] for x in np.arange(1.0, 9.0, 0.1)])
        chosen = plan_step(corridor_grid, (1.95, 2.0, 0.0), ref, shape, cfg)
        assert chosen is None

    def test_gate_soundness_and_stop_completeness(self, corridor_grid, shape):
        from lambdafield.planner import admissible_candidates, sample_arcs
        block(corridor_grid, 2.0, 2.6, 1.0, 3.0)
        cfg = PlannerConfig()
        ref = np.array([[x, 2.0, 0.0] for x in np.arange(1.0, 9.0, 0.1)])
        pose = (1.5, 2.0, 0.0)
        admissible = admissible_candidates(corridor_grid, pose, ref, shape, cfg)
        chosen = plan_step(corridor_grid, pose, ref, shape, cfg)
        assert all(c.risk_upper <= cfg.max_risk for c in admissible)
        assert (chosen is None) == (len(admissible) == 0)

    def test_prefers_low_risk_corridor_over_closeness(self):
        # three arcs: straight (on the reference, risk ~2), up (walled off),
        # down (risk ~0.5). The gate must force the farther, safer arc.
        geo = GridGeometry(0.0, 0.0, 0.1, 40, 40)
        grid = LambdaGrid(geo, SensorModel())
        grid.misses[:] = 100

        def paint(x0, x1, y0, y1, hits, misses):
            for col in range(int(round(x0 / 0.1)), int(round(x1 / 0.1))):
                for row in range(int(round(y0 / 0.1)), int(round(y1 / 0.1))):
                    i = geo.flat(col, row)
                    grid.hits[i] = hits
                    grid.misses[i] = misses

        paint(1.7, 2.1, 1.9, 2.1, 150, 1000)   # straight corridor: risk ~2
        paint(1.0, 2.1, 2.25, 3.2, 100, 0)     # up: saturated wall
        paint(1.3, 2.1, 1.0, 1.75, 35, 1000)   # down corridor: risk ~0.5
        shape = RobotShape(0.1, 0.2, 20.0)
        cfg = PlannerConfig(v_max=1.0, v_samples=1, omega_samples=3,
                            omega_max=1.0, max_risk=1.0)
        ref = np.array([[x, 2.05, 0.0] for x in np.arange(1.0, 3.5, 0.1)])
        chosen = plan_step(grid, (1.0, 2.0, 0.0), ref, shape, cfg)
        assert chosen is not None
        assert chosen.omega < 0  # swings down through the safe corridor
        assert 0.1 < chosen.risk_upper <= cfg.max_risk

    def test_determinism(self, corridor_grid, shape):
        cfg = PlannerConfig()
        ref = np.array([[x, 2.0, 0.0] for x in np.arange(1.0, 9.0, 0.1)])
        a = plan_step(corridor_grid, (1.0, 2.0, 0.0), ref, shape, cfg)
        b = plan_step(corridor_grid, (1.0, 2.0, 0.0), ref, shape, cfg)
        assert (a.v, a.omega) == (b.v, b.omega)
        np.testing.assert_array_equal(a.poses, b.poses)

    @pytest.mark.parametrize("reference", [
        np.zeros((0, 3)), np.zeros(3), np.zeros((4, 1)),
        [[1.0, 2.0, 0.0], [math.nan, 2.0, 0.0]],
        [[1.0, 2.0, 0.0], [1.1, math.inf, 0.0]],
        [[1.0, 2.0, -math.inf]]],
        ids=["empty", "1-D", "one-column", "nan", "inf", "inf-heading"])
    def test_bad_reference_rejected_before_any_sweep(self, corridor_grid,
                                                     shape, reference,
                                                     monkeypatch):
        def no_sweep(*args):
            raise AssertionError("swept before checking the reference")

        monkeypatch.setattr(planner, "sweep_footprints", no_sweep)
        for call in (plan_step, admissible_candidates):
            with pytest.raises(ValueError, match="reference path must be"):
                call(corridor_grid, (1.0, 2.0, 0.0), reference, shape,
                     PlannerConfig())
        with pytest.raises(ValueError, match="reference path must be"):
            run_episode(corridor_grid, (1.0, 2.0, 0.0), reference, shape,
                        PlannerConfig())

    def test_pose_outside_grid_rejected(self, corridor_grid, shape):
        with pytest.raises(ValueError):
            plan_step(corridor_grid, (-5.0, 0.0, 0.0), np.zeros((2, 3)),
                      shape, PlannerConfig())

    def test_unobserved_space_blocks_fast_arcs(self, shape):
        geo = GridGeometry(0.0, 0.0, 0.1, 100, 40)
        grid = LambdaGrid(geo, SensorModel())
        grid.misses[: geo.n_cols * 20] = 100  # only the lower half observed
        ref = np.array([[2.0, y, 0.0] for y in np.arange(1.0, 3.9, 0.1)])
        cfg = PlannerConfig()
        # heading straight into unobserved space: upper bounds saturate, so
        # no surviving arc may plough into the unknown half at speed
        chosen = plan_step(grid, (2.0, 1.9, math.pi / 2), ref, shape, cfg)
        if chosen is not None:
            assert chosen.risk_upper <= cfg.max_risk
            assert chosen.endpoint[1] < 2.1


def _scores(candidates):
    """(v, omega, risk_upper, closeness) of each arc, floats as hex."""
    return [(c.v.hex(), c.omega.hex(), c.risk_upper.hex(), c.closeness.hex())
            for c in candidates]


class TestAdmissibleCandidates:
    def test_matches_per_arc_oracle(self, rng):
        """Over 40 seeded poses and configs on a random field, the cycle
        admits the arcs of the per-arc oracle with bit-equal upper-bound
        risk and closeness, also in cycles where arcs leave the grid."""
        geo = GridGeometry(-1.0, 0.5, 0.05, 90, 70)
        grid = LambdaGrid(geo, SensorModel())
        grid.misses[:] = rng.integers(0, 200, geo.n_cells)
        grid.hits[:] = rng.integers(0, 3, geo.n_cells) * (rng.random(geo.n_cells) < 0.2)
        shape = RobotShape(0.4, 0.6, 20.0)
        left = out_of_grid = over_budget = 0
        for k in range(40):
            config = PlannerConfig(max_risk=(0.5, 2.0, math.inf)[k % 3],
                                   v_samples=int(rng.integers(1, 6)),
                                   omega_samples=int(rng.integers(1, 6)))
            pose = (geo.origin_x + rng.random() * geo.width,
                    geo.origin_y + rng.random() * geo.height,
                    rng.random() * 2 * math.pi)
            ref = np.column_stack([pose[0] + np.linspace(0.0, 3.0, 30),
                                   np.full(30, pose[1]), np.zeros(30)])
            got = admissible_candidates(grid, pose, ref, shape, config)
            want = oracle.admissible_candidates(grid, pose, ref, shape, config)
            assert _scores(got) == _scores(want)
            for got_arc, want_arc in zip(got, want):
                np.testing.assert_array_equal(got_arc.poses, want_arc.poses)
            arcs = sample_arcs(pose, config)
            in_grid = 0
            for arc in arcs:
                try:
                    swept_cells(grid, arc.poses, shape)
                    in_grid += 1
                except ValueError:
                    pass
            left += in_grid < len(arcs)
            out_of_grid += in_grid == 0
            over_budget += len(want) < in_grid
        # the poses cover cycles with some and with all arcs off the grid,
        # and cycles where the gate drops arcs
        assert left >= 5 and out_of_grid >= 1 and over_budget >= 5

    def test_sweeps_once_and_reads_each_arc_at_its_cells(self, monkeypatch):
        """On a 2000 x 2000 grid one cycle sweeps its 25 arcs' footprints in
        one sampling pass (about 60 000 samples, below ``SWEEP_SAMPLES``).
        Per arc that stays on the grid, in arc order, it calls the bounds
        once and the count kernel three times (both bounds and the MLE),
        with the counts of exactly the cells that arc crosses."""
        geo = GridGeometry(0.0, 0.0, 0.05, 2000, 2000)
        grid = LambdaGrid(geo, SensorModel())
        rng = np.random.default_rng(7)
        grid.hits[:] = rng.integers(0, 1000, geo.n_cells)
        grid.misses[:] = rng.integers(0, 1000, geo.n_cells)
        seen = {"_from_counts": [], "_bounds": []}
        for name in seen:
            def spy(a, b, *args, real=getattr(field, name), calls=seen[name]):
                calls.append((a.copy(), b.copy()))
                return real(a, b, *args)
            monkeypatch.setattr(field, name, spy)
        passes = []
        real_flat = GridGeometry.flat_or_outside

        def flat_spy(self, xs, ys):
            passes.append(np.size(xs))
            return real_flat(self, xs, ys)

        monkeypatch.setattr(GridGeometry, "flat_or_outside", flat_spy)
        monkeypatch.setattr(path, "_last", (None, math.nan, {}))
        # heading west from near the edge: the slow arcs stay on the grid,
        # the fast ones leave it
        pose = (0.6, 50.0, math.pi)
        shape = RobotShape(0.4, 0.6, 20.0)
        config = PlannerConfig(max_risk=math.inf)
        cells = []
        for arc in sample_arcs(pose, config):
            try:
                cells.append(oracle.sweep_footprint(geo, arc.poses,
                                                    shape.width)[0])
            except ValueError:
                pass
        assert 0 < len(cells) < config.v_samples * config.omega_samples
        passes.clear()
        admissible_candidates(grid, pose, np.zeros((1, 3)), shape, config)
        assert len(passes) == 1
        bounds, kernel = seen["_bounds"], seen["_from_counts"]
        assert len(bounds) == len(cells) and len(kernel) == 3 * len(cells)
        for i, arc_cells in enumerate(cells):
            h = grid.hits[arc_cells].astype(np.float64)
            m = grid.misses[arc_cells]
            np.testing.assert_array_equal(bounds[i][0], h)
            np.testing.assert_array_equal(bounds[i][1], m)
            for _, total in kernel[3 * i:3 * i + 3]:
                np.testing.assert_array_equal(total, h + m)


class TestRunEpisode:
    def test_open_episode_reaches_goal(self, corridor_grid, shape):
        cfg = PlannerConfig()
        ref = np.array([[x, 2.0, 0.0] for x in np.arange(1.0, 6.01, 0.1)])
        log, trace = run_episode(corridor_grid, (1.0, 2.0, 0.0), ref, shape,
                                 cfg, max_steps=60)
        goal = ref[-1, :2]
        assert np.hypot(*(trace[-1][:2] - goal)) <= cfg.goal_tolerance
        assert all(s.risk_upper <= cfg.max_risk for s in log if not s.stopped)

    def test_blocked_episode_stops(self, corridor_grid, shape):
        block(corridor_grid, 2.0, 2.6, 0.0, 4.0)
        cfg = PlannerConfig()
        ref = np.array([[x, 2.0, 0.0] for x in np.arange(1.7, 9.0, 0.1)])
        log, trace = run_episode(corridor_grid, (1.7, 2.0, 0.0), ref, shape,
                                 cfg, max_steps=10)
        assert log[-1].stopped
