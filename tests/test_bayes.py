import numpy as np
import pytest

from lambdafield import Beam, BayesGrid, bayes_scan, naive_path_probability
from lambdafield.bayes import naive_probability_from_occupancy


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

    def test_free_cells_give_zero(self):
        assert naive_probability_from_occupancy([0.0, 0.0, 0.0]) == 0.0

    def test_empty_crossing(self, geometry):
        grid = BayesGrid(geometry)
        assert naive_path_probability(grid, []) == 0.0
