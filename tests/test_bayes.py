import math
import tracemalloc

import numpy as np
import pytest

from lambdafield import (Beam, BayesGrid, GridGeometry, SensorModel, bayes_scan,
                         naive_path_probability, raycast)


def hit_beam(x, y, distance):
    return Beam((x, y), (1.0, 0.0), distance, True)


class TestBayesUpdate:
    def test_single_hit_from_prior(self, geometry, sensor):
        grid = BayesGrid(geometry, p_occ_given_hit=0.7)
        bayes_scan(grid, [hit_beam(1.05, 2.05, 1.0)], sensor)
        occupied = geometry.flat(*geometry.cell_of(2.05, 2.05))
        assert grid.occupancy()[occupied] == pytest.approx(0.7, abs=1e-12)

    def test_symmetric_updates_cancel(self, geometry, sensor):
        grid = BayesGrid(geometry, p_occ_given_hit=0.7, p_free_given_miss=0.7)
        target = geometry.flat(*geometry.cell_of(2.05, 2.05))
        for _ in range(5):
            bayes_scan(grid, [hit_beam(1.95, 2.05, 0.1)], sensor)
        # five misses through the same cell from a beam ending past it
        for _ in range(5):
            bayes_scan(grid, [Beam((1.95, 2.05), (1.0, 0.0), 1.0, True)], sensor)
        assert grid.occupancy()[target] == pytest.approx(0.5, abs=1e-12)

    def test_traversed_cells_go_toward_free(self, geometry, sensor):
        grid = BayesGrid(geometry)
        bayes_scan(grid, [hit_beam(0.05, 2.05, 2.0)], sensor)
        free_cell = geometry.flat(5, 20)
        assert grid.occupancy()[free_cell] < 0.5

    def test_log_odds_clamped(self, geometry, sensor):
        grid = BayesGrid(geometry, log_odds_clamp=2.0)
        for _ in range(50):
            bayes_scan(grid, [hit_beam(1.05, 2.05, 1.0)], sensor)
        assert np.abs(grid.log_odds).max() <= 2.0
        assert (0 < grid.occupancy()).all() and (grid.occupancy() < 1).all()

    def test_occupancy_of_cells_equals_whole_grid(self, geometry, rng):
        grid = BayesGrid(geometry)
        grid.log_odds[:] = rng.uniform(-10.0, 10.0, geometry.n_cells)
        whole = grid.occupancy()
        cells = rng.integers(geometry.n_cells, size=50)
        for pick in (cells, slice(7, 300), np.array([], np.int64)):
            assert grid.occupancy(pick).tobytes() == whole[pick].tobytes()

    def test_fold_memory_is_bounded(self, monkeypatch, rng):
        """3600 beams from one point on a 400 x 400 grid of distinct
        log-odds: the run fold holds a few arrays of the scan's steps, so the
        scan peaks at about the trace's own size."""
        monkeypatch.setattr(raycast, "_last", raycast._last)  # restored afterwards
        geo = GridGeometry(0.0, 0.0, 0.05, 400, 400)
        angles = 2 * math.pi * np.arange(3600) / 3600
        beams = [Beam((10.0, 10.0), (math.cos(a), math.sin(a)), float(r), True)
                 for a, r in zip(angles, rng.uniform(0.5, 8.0, 3600))]
        grid = BayesGrid(geo)
        grid.log_odds[:] = rng.uniform(-10.0, 10.0, geo.n_cells)
        tracemalloc.start()
        try:
            bayes_scan(grid, beams, SensorModel())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60e6

    def test_invalid_model_rejected(self, geometry):
        with pytest.raises(ValueError):
            BayesGrid(geometry, p_occ_given_hit=0.4)


class TestNaivePathProbability:
    def test_four_cells_at_point_one(self, geometry):
        grid = BayesGrid(geometry)
        cells = [0, 1, 2, 3]
        grid.log_odds[cells] = np.log(0.1 / 0.9)
        assert naive_path_probability(grid, cells) == pytest.approx(
            0.3439, abs=1e-12)

    def test_two_cells_at_point_one(self, geometry):
        grid = BayesGrid(geometry)
        grid.log_odds[[0, 1]] = np.log(0.1 / 0.9)
        assert naive_path_probability(grid, [0, 1]) == pytest.approx(
            0.19, abs=1e-12)

    def test_empty_crossing(self, geometry):
        grid = BayesGrid(geometry)
        p = naive_path_probability(grid, [])
        assert p == 0.0 and math.copysign(1.0, p) == 1.0
