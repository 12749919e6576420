import math

import numpy as np
import pytest

from lambdafield import (Beam, GridGeometry, GroundTruthMap, LambdaGrid,
                         SensorModel, apply_scan, lambda_mle, simulate_scan)


def make_hit_beam(distance, origin=(0.05, 2.05)):
    return Beam(origin, (1.0, 0.0), distance, True)


class TestApplyBeam:
    def test_hit_beam_cell_partition(self, grid, sensor):
        # endpoint at a cell center: disk of radius ~0.1128 covers 5 cells,
        # misses stop strictly before the first disk cell on the ray
        apply_scan(grid, [make_hit_beam(2.0)], sensor)
        assert int(grid.hits.sum()) == 5
        assert int(grid.misses.sum()) == 19
        hit_cells = np.nonzero(grid.hits)[0]
        miss_cells = np.nonzero(grid.misses)[0]
        assert set(hit_cells) & set(miss_cells) == set()

    def test_count_mass_per_beam(self, grid, sensor, rng):
        from lambdafield import error_region_cells, trace_beam
        for _ in range(20):
            before = int(grid.hits.sum()) + int(grid.misses.sum())
            distance = 0.5 + rng.random() * 1.5
            angle = rng.random() * 2 * math.pi
            beam = Beam((2.0, 2.0), (math.cos(angle), math.sin(angle)),
                        distance, True)
            region = set(error_region_cells(grid.geometry, beam.endpoint(),
                                            sensor.error_radius))
            misses = 0
            row, = trace_beam(grid.geometry, beam.origin, beam.endpoint())
            for idx, _ in row:
                if idx in region:
                    break
                misses += 1
            apply_scan(grid, [beam], sensor)
            after = int(grid.hits.sum()) + int(grid.misses.sum())
            assert after - before == misses + len(region)

    def test_no_return_marks_all_traversed_missed(self, grid, sensor):
        beam = Beam((0.05, 2.05), (1.0, 0.0), sensor.max_range, False)
        apply_scan(grid, [beam], sensor)
        assert int(grid.hits.sum()) == 0
        # ray clipped at the grid border: 40 cells crossed
        assert int(grid.misses.sum()) == 40

    def test_replayed_hits_match_closed_form(self, grid, sensor):
        n = 25
        for _ in range(n):
            apply_scan(grid, [make_hit_beam(2.0)], sensor)
        geo = grid.geometry
        center = geo.flat(*geo.cell_of(2.05, 2.05))
        stats = grid.stats(center)
        assert stats.hits == n and stats.misses == 0
        first_miss = grid.stats(geo.flat(0, 20))
        assert first_miss.misses == n
        expected = math.log1p(stats.hits / stats.misses) / sensor.error_area \
            if stats.misses else grid.lambda_max
        assert lambda_mle(stats, sensor) == expected


class TestSimulateScan:
    def test_empty_world_all_no_return(self, geometry, sensor):
        truth = GroundTruthMap.uniform(geometry, 0.0)
        perfect = SensorModel(p_hit=1.0, p_miss=1.0, error_area=0.04,
                              max_range=sensor.max_range)
        beams = simulate_scan(truth, (2.0, 2.0, 0.0), perfect, 36, 0)
        assert all(not b.hit for b in beams)
        assert all(b.measured_range == perfect.max_range for b in beams)

    def test_wall_reported_near_true_range(self):
        from lambdafield import GridGeometry
        geo = GridGeometry(0.0, 0.0, 0.1, 60, 10)
        truth = GroundTruthMap.uniform(geo, 0.0)
        truth.set_block(3.0, 0.0, 6.0, 1.0, 100.0)
        perfect = SensorModel(p_hit=1.0, p_miss=1.0, error_area=1e-12,
                              max_range=5.0)
        beams = simulate_scan(truth, (0.5, 0.5, 0.0), perfect, 1, 3)
        assert beams[0].hit
        assert beams[0].measured_range == pytest.approx(3.0 - 0.5, abs=0.5)

    def test_seeded_runs_identical(self, geometry, sensor, rng):
        truth = GroundTruthMap.uniform(geometry, 0.5)
        a = simulate_scan(truth, (2.0, 2.0, 0.3), sensor, 90, 42)
        b = simulate_scan(truth, (2.0, 2.0, 0.3), sensor, 90, 42)
        assert a == b

    def test_pose_outside_rejected(self, geometry, sensor):
        truth = GroundTruthMap.uniform(geometry, 0.0)
        with pytest.raises(ValueError):
            simulate_scan(truth, (99.0, 0.0, 0.0), sensor, 10, 0)


@pytest.mark.parametrize("field", ["error_area", "max_range"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
def test_sensor_model_rejects_non_finite_or_nonpositive(field, value):
    with pytest.raises(ValueError, match=field):
        SensorModel(**{field: value})


def simulated_beams(resolution: float, lam: float, sensor: SensorModel,
                    seed: int) -> list[Beam]:
    """20 scans of 360 beams from random poses near the middle of a 20 m
    square of uniform true intensity ``lam``, which every beam stays in."""
    side = round(20.0 / resolution)
    truth = GroundTruthMap.uniform(GridGeometry(0.0, 0.0, resolution, side, side),
                                   lam)
    rng = np.random.default_rng(seed)
    beams = []
    for _ in range(20):
        x, y = rng.uniform(9.5, 10.5, 2)
        beams += simulate_scan(truth, (x, y, rng.uniform(0.0, 2 * math.pi)),
                               sensor, 360, rng)
    return beams


def assert_share(share: float, model: float, n: int, what) -> None:
    """``share`` of n independent beams lies within 4 standard errors of
    the ``model`` probability."""
    assert abs(share - model) < 4 * math.sqrt(model * (1 - model) / n), \
        (what, share, model)


# resolution * lambda = 0.1 per m in both: the same model on two grids
@pytest.mark.parametrize("resolution, lam", [(0.05, 2.0), (0.5, 0.2)])
class TestSimulatorModel:
    """The simulator's statistics, whatever order it draws in."""

    def test_ranges_are_exponential(self, resolution, lam):
        # every beam stops inside its cell with probability
        # 1 - exp(-chord * resolution * lam), so P(range >= d) is
        # exp(-resolution * lam * d); no noise and a tiny error disk
        exact = SensorModel(p_hit=1.0, p_miss=1.0, error_area=1e-12,
                            max_range=9.0)
        beams = simulated_beams(resolution, lam, exact, 11)
        ranges = np.array([b.measured_range for b in beams])
        for d in (0.5, 2.0, 4.0, 8.0):
            assert_share(float(np.mean(ranges >= d)),
                         math.exp(-resolution * lam * d), len(ranges), d)

    def test_hit_share_follows_the_noise_model(self, resolution, lam):
        # a spurious return, or a true stop within range that is not dropped
        noisy = SensorModel(p_hit=0.9, p_miss=0.8, max_range=9.0)
        beams = simulated_beams(resolution, lam, noisy, 12)
        p_stop = -math.expm1(-resolution * lam * noisy.max_range)
        assert_share(float(np.mean([b.hit for b in beams])),
                     (1 - noisy.p_hit) + noisy.p_hit * p_stop * noisy.p_miss,
                     len(beams), "hit share")


class TestGroundTruthMap:
    def test_negative_intensity_rejected(self, geometry):
        with pytest.raises(ValueError):
            GroundTruthMap(geometry, np.full(geometry.n_cells, -1.0))

    def test_set_block_by_cell_centers(self, geometry):
        truth = GroundTruthMap.uniform(geometry, 0.0)
        truth.set_block(1.0, 1.0, 1.2, 1.2, 7.0)
        marked = np.nonzero(truth.intensities)[0]
        assert len(marked) == 4  # centers at 1.05 and 1.15 on both axes
        assert all(truth.intensities[marked] == 7.0)

    def test_set_block_equals_whole_grid_mask(self, rng):
        geo = GridGeometry(-0.3, 0.2, 0.1, 23, 17)
        lo = np.array([geo.origin_x, geo.origin_y])
        size = np.array([geo.width, geo.height])
        centres = [(geo.origin_x + (i % geo.n_cols + 0.5) * geo.resolution,
                    geo.origin_y + (i // geo.n_cols + 0.5) * geo.resolution)
                   for i in range(geo.n_cells)]
        cx, cy = np.array(centres).T
        boxes = [tuple(lo + rng.uniform(-0.5, 1.5, 2) * size)
                 + tuple(lo + rng.uniform(-0.5, 1.5, 2) * size)
                 for _ in range(150)]                    # some inverted
        boxes += [tuple(np.array(centres)[rng.integers(geo.n_cells, size=2)]
                        .ravel()) for _ in range(100)]   # corners on centres
        boxes += [(-math.inf, -math.inf, math.inf, math.inf),
                  (-5.0, -5.0, -1.0, 9.0), (5.0, 0.0, math.inf, 1.0),
                  (0.15, 0.0, 0.15, 9.0), (-9.0, 0.75, 9.0, 0.75)]
        for x0, y0, x1, y1 in boxes:
            truth = GroundTruthMap.uniform(geo, 0.0)
            truth.set_block(x0, y0, x1, y1, 2.0)
            inside = (cx >= x0) & (cx <= x1) & (cy >= y0) & (cy <= y1)
            assert np.array_equal(truth.intensities == 2.0, inside), (x0, y0)
