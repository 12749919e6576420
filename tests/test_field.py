import math

import numpy as np
import pytest

from lambdafield import (CellStats, GridGeometry, LambdaGrid, PathCrossing,
                         SensorModel, collision_probability, confidence_bounds,
                         lambda_from_count, lambda_mle,
                         path_collision_probability)
from lambdafield.field import COUNT_MAX, DEFAULT_LAMBDA_MAX


class TestLambdaMle:
    def test_no_hits_gives_zero(self, sensor):
        assert lambda_mle(CellStats(0, 10), sensor) == 0.0

    def test_closed_form_value(self, sensor):
        # 25 * ln(40/39) for one hit in forty readings
        got = lambda_mle(CellStats(1, 39), sensor)
        assert got == pytest.approx(25.0 * math.log(40.0 / 39.0), abs=1e-12)
        assert got == pytest.approx(0.632945, abs=5e-6)

    def test_no_misses_clamps(self, sensor):
        assert lambda_mle(CellStats(5, 0), sensor) == DEFAULT_LAMBDA_MAX

    def test_unobserved_is_zero_and_flagged(self, sensor):
        stats = CellStats(0, 0)
        assert not stats.observed
        assert lambda_mle(stats, sensor) == 0.0

    def test_scale_consistency_in_error_area(self):
        small = SensorModel(error_area=0.04)
        big = SensorModel(error_area=0.08)
        stats = CellStats(3, 17)
        assert lambda_mle(stats, small) == pytest.approx(
            2.0 * lambda_mle(stats, big), rel=1e-15)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CellStats(-1, 0)


class TestLambdaFromCount:
    def test_endpoints(self):
        assert lambda_from_count(0, 40, 0.04) == 0.0
        assert lambda_from_count(40, 40, 0.04) == DEFAULT_LAMBDA_MAX

    def test_midpoint_value(self):
        assert lambda_from_count(20, 40, 0.04) == pytest.approx(
            25.0 * math.log(2.0), abs=1e-12)

    def test_monotone_around_midpoint(self):
        vals = [lambda_from_count(k, 40, 0.04) for k in (19, 20, 21)]
        assert vals[0] < vals[1] < vals[2]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lambda_from_count(-1, 40, 0.04)
        with pytest.raises(ValueError):
            lambda_from_count(41, 40, 0.04)
        with pytest.raises(ValueError):
            lambda_from_count(0, 0, 0.04)


class TestConfidenceBounds:
    def test_single_miss_lower_bound_clamps_to_zero(self, sensor):
        ci = confidence_bounds(CellStats(0, 1), sensor)
        # mean count 1e-4 is far below 1.96 sigma, so the low count clamps
        assert ci.lambda_low == 0.0
        assert ci.lambda_high > 0.0

    def test_all_hits_upper_bound_saturates(self, sensor):
        ci = confidence_bounds(CellStats(12, 0), sensor)
        assert ci.lambda_high == DEFAULT_LAMBDA_MAX

    def test_unobserved_vacuous_interval(self, sensor):
        ci = confidence_bounds(CellStats(0, 0), sensor)
        assert (ci.lambda_low, ci.lambda_high) == (0.0, DEFAULT_LAMBDA_MAX)

    def test_interval_ordering(self, sensor):
        for h, m in [(0, 5), (1, 39), (10, 10), (50, 1)]:
            ci = confidence_bounds(CellStats(h, m), sensor)
            assert 0.0 <= ci.lambda_low <= ci.lambda_high <= DEFAULT_LAMBDA_MAX

    def test_misread_widens_then_reconverges(self, sensor):
        """Replaying miss readings with one injected hit: the interval
        inflates at the misread and narrows again as evidence accumulates."""
        widths = []
        hits, misses = 0, 0
        for reading in range(1, 101):
            if reading == 40:
                hits += 1
            else:
                misses += 1
            widths.append(confidence_bounds(CellStats(hits, misses), sensor).width)
        assert widths[38] < widths[40]
        assert widths[99] < widths[40]


class TestIntegratedLambda:
    """The area-weighted intensity sum, as ``path_collision_probability``
    takes it over a ``PathCrossing``."""

    def test_uniform_example(self):
        lam = np.full(59, 0.1)
        lam[58] = 2.0
        crossing = PathCrossing.from_lambdas(lam, np.full(59, 0.04))
        assert path_collision_probability(crossing) == pytest.approx(
            collision_probability(0.312), abs=1e-12)

    def test_empty_cell_list(self):
        crossing = PathCrossing.from_lambdas([], [])
        assert path_collision_probability(crossing) == 0.0

    def test_subdivision_preserves_sum(self):
        whole = PathCrossing.from_lambdas([0.7], [0.04])
        split = PathCrossing.from_lambdas([0.7] * 4, [0.01] * 4)
        assert path_collision_probability(whole) == pytest.approx(
            path_collision_probability(split), abs=1e-15)


class TestCollisionProbability:
    def test_zero(self):
        assert collision_probability(0.0) == 0.0

    def test_paper_figure_value(self):
        assert collision_probability(0.312) == pytest.approx(0.27, abs=0.005)
        assert collision_probability(0.312) == pytest.approx(0.2680, abs=5e-5)

    def test_half(self):
        assert collision_probability(math.log(2.0)) == pytest.approx(0.5, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            collision_probability(-1e-9)


class TestLambdaGrid:
    @staticmethod
    def _random_counts(grid, rng):
        """Random counts, plus saturated cells (hits only) and cells near
        the 32-bit count limit; returns the probed indices."""
        n = grid.geometry.n_cells
        grid.hits[:] = rng.integers(0, 5, n)
        grid.misses[:] = rng.integers(0, 50, n)
        grid.misses[:20] = 0
        grid.hits[20:40] = COUNT_MAX - rng.integers(0, 3, 20)
        grid.misses[40:60] = COUNT_MAX - rng.integers(0, 3, 20)
        return np.concatenate([np.arange(60), rng.integers(60, n, 200)])

    def test_lambda_map_matches_scalar(self, grid, sensor, rng):
        probes = self._random_counts(grid, rng)
        lam = grid.lambda_map()
        for i in probes:
            assert lam[i] == lambda_mle(grid.stats(i), sensor)

    def test_bound_maps_match_scalar(self, grid, sensor, rng):
        probes = self._random_counts(grid, rng)
        low, high = grid.bound_maps()
        for i in probes:
            ci = confidence_bounds(grid.stats(i), sensor)
            assert (low[i], high[i]) == (ci.lambda_low, ci.lambda_high)

    def test_maps_at_cells_equal_full_maps(self, grid, rng):
        """Estimates read at given cells equal the whole-grid maps there,
        for saturated, near-2^32, unobserved and no cells."""
        probes = self._random_counts(grid, rng)
        grid.hits[60:70] = grid.misses[60:70] = 0
        probes = np.concatenate([probes, np.arange(60, 70)])
        lam = grid.lambda_map()
        low, high = grid.bound_maps()
        for cells in (probes, rng.permutation(probes),
                      np.array([], dtype=np.int64)):
            got_low, got_high = grid.bound_maps(cells)
            assert np.array_equal(grid.lambda_map(cells), lam[cells])
            assert np.array_equal(got_low, low[cells])
            assert np.array_equal(got_high, high[cells])

    def test_lambda_zero_iff_no_hits(self, grid, rng):
        n = grid.geometry.n_cells
        grid.hits[:] = rng.integers(0, 3, n)
        grid.misses[:] = rng.integers(0, 20, n)
        lam = grid.lambda_map()
        np.testing.assert_array_equal(lam == 0.0, grid.hits == 0)

    def test_count_saturation(self, geometry, sensor):
        grid = LambdaGrid(geometry, sensor)
        grid.hits[0] = np.iinfo(np.uint32).max
        grid.add_hits(np.array([0]))
        assert grid.hits[0] == np.iinfo(np.uint32).max
