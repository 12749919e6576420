import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import crossing_of
from lambdafield import (GridGeometry, LambdaGrid, RobotShape,
                         SensorModel, collision_pdf, constant_velocity,
                         expected_risk, momentum_risk,
                         path_collision_probability, swept_cells)
from lambdafield import field, path
from lambdafield.path import sweep_footprint, sweep_footprints
import oracle


def straight_poses(x0, x1, y, step=0.05):
    return [(x, y, 0.0) for x in np.arange(x0, x1 + step / 2, step)]


class TestSweptCells:
    def test_axis_aligned_narrow_footprint(self, observed_free_grid):
        shape = RobotShape(0.1, 0.2, 20.0)
        crossing = swept_cells(observed_free_grid,
                               straight_poses(0.5, 1.5, 0.55), shape)
        assert len(crossing) == 10
        np.testing.assert_allclose(crossing.areas, 0.01, atol=1e-12)

    def test_zero_length_path(self, observed_free_grid):
        shape = RobotShape(0.1, 0.2, 20.0)
        crossing = swept_cells(observed_free_grid, [(1.0, 1.0, 0.0)], shape)
        assert len(crossing) == 0
        assert path_collision_probability(crossing) == 0.0

    def test_total_area_matches_width_times_length(self, observed_free_grid, rng):
        shape = RobotShape(0.35, 0.2, 20.0)
        for _ in range(10):
            # random gentle polyline away from the border
            n = 12
            xs = np.linspace(0.8, 3.0, n) + rng.normal(0, 0.01, n)
            ys = 2.0 + np.cumsum(rng.normal(0, 0.02, n))
            poses = list(zip(xs, ys, np.zeros(n)))
            length = float(np.sum(np.hypot(np.diff(xs), np.diff(ys))))
            crossing = swept_cells(observed_free_grid, poses, shape)
            assert crossing.areas.sum() == pytest.approx(
                shape.width * length, rel=0.02)

    def test_reentered_cell_counted_once(self, observed_free_grid):
        shape = RobotShape(0.1, 0.2, 20.0)
        there = straight_poses(0.5, 1.5, 0.55)
        back = straight_poses(0.5, 1.5, 0.55)[::-1]
        crossing = swept_cells(observed_free_grid, there + back, shape)
        assert len(crossing) == len(set(crossing.cells.tolist()))

    def test_path_exits_grid_rejected(self, observed_free_grid):
        shape = RobotShape(0.1, 0.2, 20.0)
        with pytest.raises(ValueError):
            swept_cells(observed_free_grid, straight_poses(3.5, 4.5, 0.55), shape)

    def test_geometry_sweep_matches_swept_cells(self, observed_free_grid):
        shape = RobotShape(0.35, 0.2, 20.0)
        xs = np.arange(0.6, 3.2, 0.04)
        poses = [(x, 2.0 + 0.6 * math.sin(2.0 * x), 0.0) for x in xs]
        cells, areas = sweep_footprint(observed_free_grid.geometry, poses,
                                       shape.width)
        crossing = swept_cells(observed_free_grid, poses, shape)
        assert cells.tolist() == crossing.cells.tolist()
        assert areas.tolist() == crossing.areas.tolist()

    def test_cumulative_area_strictly_increasing(self, observed_free_grid):
        shape = RobotShape(0.3, 0.2, 20.0)
        crossing = swept_cells(observed_free_grid,
                               straight_poses(0.5, 2.5, 1.17), shape)
        assert (np.diff(crossing.cumulative_areas()) > 0).all()


@st.composite
def polylines(draw):
    """A walk of up to 15 poses from a start inside, on or beyond the edge of
    a 4 m x 3 m grid; a quarter of the steps repeat the previous pose."""
    x, y = draw(st.floats(-0.5, 4.5)), draw(st.floats(-0.5, 3.5))
    poses = []
    for _ in range(draw(st.integers(0, 15))):
        poses.append((x, y, 0.0))
        if draw(st.integers(0, 3)):
            x += draw(st.floats(-0.15, 0.15))
            y += draw(st.floats(-0.15, 0.15))
    return poses


def no_kept_sweeps():
    """Patches away ``sweep_footprints``' kept results, so that every path
    is swept."""
    return mock.patch.object(path, "_last", (None, math.nan, {}))


def _sweep_outcome(sweep, geometry, poses, width):
    try:
        result = sweep(geometry, poses, width)
    except ValueError as err:
        return str(err)
    return _outcome(result)


def _outcome(sweep):
    """Dtypes and bytes of a sweep's cells and areas; for None, the error a
    one-path sweep raises."""
    if sweep is None:
        return "swept path exits grid"
    cells, areas = sweep
    return cells.dtype, cells.tobytes(), areas.dtype, areas.tobytes()


class TestSweepFootprint:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([0.05, 0.1, 0.2]), polylines(),
           st.floats(0.05, 0.8))
    @example(0.1, [], 0.4)
    @example(0.1, [(1.0, 1.0, 0.0)], 0.4)
    @example(0.1, [(1.0, 1.0, 0.0)] * 3 + [(1.05, 1.0, 0.0)] * 2, 0.4)
    @example(0.1, [(3.9, 1.0, 0.0), (4.0, 1.0, 0.0), (4.1, 1.0, 0.0)], 0.4)
    def test_matches_per_step_oracle(self, resolution, poses, width):
        """Same cells, order and areas bitwise, or the same ValueError."""
        geometry = GridGeometry(0.0, 0.0, resolution, round(4.0 / resolution),
                                round(3.0 / resolution))
        with no_kept_sweeps():
            got = _sweep_outcome(sweep_footprint, geometry, poses, width)
        assert got == _sweep_outcome(oracle.sweep_footprint, geometry, poses,
                                     width)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([0.05, 0.1, 0.2]), st.lists(polylines(), max_size=6),
           st.floats(0.05, 0.8), st.sampled_from([1, 400, path.SWEEP_SAMPLES]))
    @example(0.1, [], 0.4, path.SWEEP_SAMPLES)
    @example(0.1, [[], [(1.0, 1.0, 0.0)], [(3.9, 1.0, 0.0), (4.1, 1.0, 0.0)],
                   [(1.0, 1.0, 0.0), (1.1, 1.0, 0.0)]], 0.4, path.SWEEP_SAMPLES)
    @example(0.1, [[(1.0, 1.0, 0.0), (1.5, 1.0, 0.0)], [(1.0, 1.0, 0.0)] * 2,
                   []], 10.0, path.SWEEP_SAMPLES)  # wider than the diagonal:
    @example(0.1, [[(1.0, 1.0, 0.0), (1.5, 1.0, 0.0)], [(1.0, 1.0, 0.0)] * 2,
                   []], 10.5, path.SWEEP_SAMPLES)  # 10.0 sampled, 10.5 not
    def test_batch_matches_per_step_oracle(self, resolution, paths, width,
                                           batch):
        """Each path of one call gives the oracle's cells, order and area
        bytes, or None where the oracle raises, however many paths share a
        pass (``SWEEP_SAMPLES`` of 1 sweeps every path alone)."""
        geometry = GridGeometry(0.0, 0.0, resolution, round(4.0 / resolution),
                                round(3.0 / resolution))
        with mock.patch.object(path, "SWEEP_SAMPLES", batch), no_kept_sweeps():
            sweeps = sweep_footprints(geometry, paths, width)
        assert ([_outcome(sweep) for sweep in sweeps]
                == [_sweep_outcome(oracle.sweep_footprint, geometry, poses, width)
                    for poses in paths])

    @pytest.mark.parametrize("side", [2 ** 26, 10 ** 9])
    def test_huge_grid_batch_matches_per_step_oracle(self, side):
        """25 overlapping paths near the origin of a grid of side**2 cells,
        swept in one call, give the oracle's bytes. With 2**52 cells one
        cell's (path, cell) keys differ by multiples of 2**52, so shifted
        left by 12 or more bits to make room for a run-head position (from
        2048 heads on), they would wrap to one int64; with 10**18 cells the
        keys of 25 paths do not fit one."""
        geometry = GridGeometry(0.0, 0.0, 0.05, side, side)
        paths = [straight_poses(1.0, 2.0 + 0.01 * k, 1.0 + 0.1 * k)
                 for k in range(25)]
        with no_kept_sweeps():
            sweeps = sweep_footprints(geometry, paths, 0.4)
        assert ([_outcome(sweep) for sweep in sweeps]
                == [_sweep_outcome(oracle.sweep_footprint, geometry, poses, 0.4)
                    for poses in paths])

    def test_far_off_grid_path_in_batch_dropped_before_allocating(self):
        """A path whose step ends 1000 m off the grid gives None without
        building its samples; the paths around it are still swept."""
        geometry = GridGeometry(0.0, 0.0, 0.05, 80, 80)
        near = straight_poses(1.0, 1.5, 2.0)
        far = [(2.0, 2.0, 0.0), (1004.0, 2.0, 0.0)]
        with no_kept_sweeps():
            tracemalloc.start()
            try:
                sweeps = sweep_footprints(geometry, [near, far, near], 0.4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1e6, peak
        assert sweeps[1] is None
        alone = _sweep_outcome(oracle.sweep_footprint, geometry, near, 0.4)
        assert len(sweeps[0][0]) > 0
        assert _outcome(sweeps[0]) == _outcome(sweeps[2]) == alone

    def test_batch_temporaries_bounded(self):
        """Paths are sampled ``SWEEP_SAMPLES`` at a time: 60 paths of 2000
        samples each peak near one pass of 4096 samples, not 120 000."""
        geometry = GridGeometry(0.0, 0.0, 0.05, 80, 80)
        paths = [straight_poses(1.0, 1.5, 1.0 + 0.02 * k) for k in range(60)]
        with mock.patch.object(path, "SWEEP_SAMPLES", 1 << 12), no_kept_sweeps():
            tracemalloc.start()
            try:
                sweeps = sweep_footprints(geometry, paths, 0.4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert all(sweep is not None for sweep in sweeps)
        assert peak < 1e6, peak

    def test_far_off_grid_pose_rejected_before_allocating(self):
        """A step that ends 1000 m off the grid is rejected without building
        its samples (about 156 MB of them)."""
        geometry = GridGeometry(0.0, 0.0, 0.05, 80, 80)
        with no_kept_sweeps():
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="exits grid"):
                    sweep_footprint(geometry,
                                    [(2.0, 2.0, 0.0), (1004.0, 2.0, 0.0)], 0.4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1e6, peak

    def test_footprint_wider_than_the_grid_rejected_before_allocating(self):
        """A footprint 100 m wide on a 4 m grid is rejected without building
        its 10 000 offsets or its million samples; a path that does not move
        still sweeps no cell."""
        geometry = GridGeometry(0.0, 0.0, 0.05, 80, 80)
        still = [(2.0, 2.0, 0.0)] * 2
        with no_kept_sweeps():
            tracemalloc.start()
            try:
                sweeps = sweep_footprints(
                    geometry, [straight_poses(1.0, 2.0, 2.0), still], 100.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            narrow = sweep_footprint(geometry, still, 0.4)
        assert peak < 1e6, peak
        assert sweeps[0] is None and _outcome(sweeps[1]) == _outcome(narrow)

    def test_sweeps_only_paths_the_last_sweep_lacks(self, monkeypatch):
        """A call whose paths the last call that swept also swept, on the
        same geometry and width, sweeps nothing; any other call sweeps its
        distinct paths, all of them, and keeps only those; an empty call
        sweeps nothing and keeps what was kept. Each result is the bytes of
        the oracle, in fresh arrays."""
        real, swept = path._sweep, []

        def counted(geometry, pts, width):
            swept.append(len(pts))
            return real(geometry, pts, width)

        monkeypatch.setattr(path, "_sweep", counted)
        monkeypatch.setattr(path, "_last", (None, math.nan, {}))
        geometry = GridGeometry(0.0, 0.0, 0.05, 80, 80)
        finer = GridGeometry(0.0, 0.0, 0.025, 160, 160)
        a, b, c = (straight_poses(1.0, 1.5, y) for y in (2.0, 2.2, 2.4))
        far = [(2.0, 2.0, 0.0), (1004.0, 2.0, 0.0)]
        calls = [(geometry, [], 0.4, []),                # nothing to sweep
                 (geometry, [a, b, far, a], 0.4, [3]),  # a repeated path once
                 (geometry, [np.array(b), far], 0.4, []),  # same bits, kept
                 (geometry, [a], 0.3, [1]),              # another width
                 (geometry, [b], 0.4, [1]),              # gone with that call
                 (finer, [b], 0.4, [1]),                 # another geometry
                 (finer, [a, b], 0.4, [2]),              # b swept again with a
                 (finer, [b, a], 0.4, []),
                 (finer, [c, b], 0.4, [2]),              # keeps c and b only
                 (geometry, [], 0.3, []),                # keeps c and b
                 (finer, [b, c, b], 0.4, []),
                 (finer, [a], 0.4, [1])]
        for geo, paths, width, sizes in calls:
            swept.clear()
            got = sweep_footprints(geo, paths, width)
            assert swept == sizes
            assert ([_outcome(sweep) for sweep in got]
                    == [_sweep_outcome(oracle.sweep_footprint, geo, poses, width)
                        for poses in paths])
            for sweep in filter(None, got):
                sweep[0][:], sweep[1][:] = -1, 0.0  # the kept copy stays

    def test_swept_cells_reads_only_crossed_cells(self, monkeypatch):
        """On a 2000 x 2000 grid the estimators see the crossed cells alone,
        not whole-grid arrays: the bounds, the count kernel for each bound,
        and the count kernel for the MLE."""
        grid = LambdaGrid(GridGeometry(0.0, 0.0, 0.05, 2000, 2000),
                          SensorModel())
        seen = []
        for name in ("_from_counts", "_bounds"):
            def spy(a, b, *args, real=getattr(field, name)):
                seen.append(max(len(a), len(b)))
                return real(a, b, *args)
            monkeypatch.setattr(field, name, spy)
        crossing = swept_cells(grid, straight_poses(10.0, 12.0, 50.0),
                               RobotShape(0.4))
        assert len(crossing) > 0
        assert seen == [len(crossing)] * 4


class TestCollisionPdf:
    def test_density_at_origin_is_lambda(self):
        crossing = crossing_of([2.0], [0.04])
        assert collision_pdf(crossing, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_integrates_to_collision_probability(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 12))
            crossing = crossing_of(rng.random(n) * 5.0,
                                   rng.random(n) * 0.05 + 0.005)
            cum = crossing.cumulative_areas()
            total = sum(quad(lambda a: collision_pdf(crossing, a),
                             cum[i], cum[i + 1])[0] for i in range(n))
            assert total == pytest.approx(path_collision_probability(crossing),
                                          abs=1e-8)

    def test_cdf_jumps_through_dense_cell(self):
        # a dense cell in the middle drives the CDF close to one
        crossing = crossing_of([0.1, 200.0, 0.1], [0.04] * 3)
        cum = crossing.cumulative_areas()
        cdf_before = quad(lambda a: collision_pdf(crossing, a), 0, cum[1])[0]
        cdf_after = quad(lambda a: collision_pdf(crossing, a), 0, cum[2])[0]
        assert cdf_before < 0.01
        assert cdf_after > 0.99

    def test_out_of_range_rejected(self):
        crossing = crossing_of([1.0], [0.04])
        with pytest.raises(ValueError):
            collision_pdf(crossing, -0.01)
        with pytest.raises(ValueError):
            collision_pdf(crossing, 0.05)


class TestPathCollisionProbability:
    def test_four_small_cells(self):
        lam = -math.log(0.9) / 0.04
        crossing = crossing_of([lam] * 4, [0.04] * 4)
        assert path_collision_probability(crossing) == pytest.approx(
            1.0 - 0.9 ** 4, abs=1e-12)

    def test_two_double_cells_same_intensity(self):
        lam = -math.log(0.9) / 0.04
        fine = crossing_of([lam] * 4, [0.04] * 4)
        coarse = crossing_of([lam] * 2, [0.08] * 2)
        assert path_collision_probability(coarse) == pytest.approx(
            path_collision_probability(fine), abs=1e-12)

    def test_monotone_under_appending_cells(self, rng):
        lam = rng.random(15) * 3.0
        areas = rng.random(15) * 0.05 + 0.001
        probs = [path_collision_probability(
            crossing_of(lam[:n], areas[:n]))
            for n in range(16)]
        assert all(a <= b for a, b in zip(probs, probs[1:]))


class TestExpectedRisk:
    def test_unit_risk_equals_collision_probability(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 30))
            crossing = crossing_of(rng.random(n) * 4.0,
                                   rng.random(n) * 0.05 + 0.001)
            assert expected_risk(crossing, lambda a: 1.0) == pytest.approx(
                path_collision_probability(crossing), abs=1e-12)

    def test_zero_intensity_gives_zero(self):
        crossing = crossing_of([0.0] * 5, [0.04] * 5)
        assert expected_risk(crossing, lambda a: 10.0) == 0.0

    def test_bounded_by_max_risk_times_probability(self, rng):
        crossing = crossing_of(rng.random(10) * 3.0,
                               rng.random(10) * 0.04 + 0.001)
        risk = expected_risk(crossing, lambda a: 2.0 + a)
        cap = (2.0 + crossing.areas.sum()) * path_collision_probability(crossing)
        assert 0.0 <= risk <= cap

    def test_array_risk_equals_per_cell_scalar_sum(self, rng):
        """A ramp speed profile, called once on the array of left-edge
        areas, gives the per-cell scalar sum bit for bit."""
        shape = RobotShape(0.4, 0.6, 20.0)
        risk = momentum_risk(shape, lambda s: np.minimum(s, 1.0))
        crossing = crossing_of(rng.random(300) * 4.0,
                               rng.random(300) * 0.01 + 0.001)
        _, cum, survive, hit = path.risk_terms(crossing)
        terms = np.array([risk(float(a)) for a in cum[:-1]]) * survive * hit
        assert cum[-2] / shape.width > 1.0  # the ramp saturates on the way
        assert expected_risk(crossing, risk) == float(np.sum(terms))

    def test_left_edge_rule_within_its_bound_of_monte_carlo(self, rng):
        """10^6 first-collision locations drawn by inverse transform, on
        cells of up to 80 /m^2 under a speed ramp 0.3 + 0.2 s: their mean
        risk exceeds ``expected_risk`` by 0 to the docstring's bound, within
        a 4 sigma Monte Carlo margin."""
        shape = RobotShape(width=0.4, length=0.5, mass=20.0)
        risk = momentum_risk(shape, lambda s: 0.3 + 0.2 * s)
        crossing = crossing_of(rng.uniform(0.0, 80.0, 40),
                               rng.uniform(0.001, 0.01, 40))
        _, cum, survive, hit = path.risk_terms(crossing)
        exposure = np.concatenate(([0.0], np.cumsum(crossing.areas
                                                     * crossing.lam_mle)))
        drawn = -np.log1p(-rng.random(1_000_000))  # exposure at the collision
        collided = drawn < exposure[-1]
        cell = np.searchsorted(exposure, drawn[collided], side="right") - 1
        at = cum[cell] + (drawn[collided] - exposure[cell]) / crossing.lam_mle[cell]
        samples = np.zeros(len(drawn))
        samples[collided] = risk(at)
        mc, se = samples.mean(), samples.std() / math.sqrt(len(samples))
        gap = mc - expected_risk(crossing, risk)
        step = np.diff(risk(cum))
        bound = float(np.sum(survive * hit * step))
        assert bound <= step.max() * path_collision_probability(crossing)
        assert -4 * se <= gap <= bound + 4 * se, (gap, bound, se)

    def test_bound_choice_is_monotone_for_constant_risk(self, observed_free_grid):
        observed_free_grid.hits[400:440] = 2
        shape = RobotShape(0.3, 0.2, 20.0)
        crossing = swept_cells(observed_free_grid,
                               straight_poses(0.5, 3.0, 1.05), shape)
        risks = [expected_risk(crossing, lambda a: 1.0, b)
                 for b in ("lower", "mle", "upper")]
        assert risks[0] <= risks[1] <= risks[2]


class TestMomentumRisk:
    def test_constant_speed(self):
        shape = RobotShape(0.4, 0.6, 20.0)
        risk = momentum_risk(shape, constant_velocity(0.5))
        assert risk(0.0) == pytest.approx(10.0)
        assert risk(0.3) == pytest.approx(10.0)

    def test_abscissa_conversion(self):
        shape = RobotShape(0.4, 0.6, 20.0)
        ramp = lambda s: min(s, 1.0)  # 0 -> 1 over one meter
        risk = momentum_risk(shape, ramp)
        assert risk(0.4 * 0.5) == pytest.approx(20.0 * 0.5)

    def test_single_hazard_cell_pipeline(self):
        # constant speed through one cell: E[risk] = m v P(coll)
        shape = RobotShape(0.4, 0.6, 20.0)
        crossing = crossing_of([3.0], [0.08])
        risk = expected_risk(crossing,
                             momentum_risk(shape, constant_velocity(0.7)))
        assert risk == pytest.approx(
            20.0 * 0.7 * path_collision_probability(crossing), abs=1e-12)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            constant_velocity(-0.1)
