import math

import numpy as np
import pytest

from conftest import counts_grid, crossing_of
from lambdafield import (LambdaGrid, SensorModel, collision_probability,
                         path_collision_probability)
from lambdafield import field
from lambdafield.field import COUNT_MAX, DEFAULT_LAMBDA_MAX


class TestLambdaMle:
    def test_no_hits_gives_zero(self, sensor):
        assert counts_grid(0, 10, sensor).lambda_map()[0] == 0.0

    def test_closed_form_value(self, sensor):
        # 25 * ln(40/39) for one hit in forty readings
        got = counts_grid(1, 39, sensor).lambda_map()[0]
        assert got == pytest.approx(25.0 * math.log(40.0 / 39.0), abs=1e-12)
        assert got == pytest.approx(0.632945, abs=5e-6)

    def test_no_misses_clamps(self, sensor):
        assert counts_grid(5, 0, sensor).lambda_map()[0] == DEFAULT_LAMBDA_MAX

    def test_unobserved_is_zero_and_flagged(self, sensor):
        assert counts_grid(0, 0, sensor).lambda_map()[0] == 0.0

    def test_scale_consistency_in_error_area(self):
        small = counts_grid(3, 17, SensorModel(error_area=0.04)).lambda_map()
        big = counts_grid(3, 17, SensorModel(error_area=0.08)).lambda_map()
        assert small[0] == pytest.approx(2.0 * big[0], rel=1e-15)


class TestLambdaFromCount:
    """k hits out of 40 readings, through the MLE of k hits and 40 - k misses."""

    def test_endpoints(self):
        lam = counts_grid([0, 40], [40, 0]).lambda_map()
        assert lam[0] == 0.0
        assert lam[1] == DEFAULT_LAMBDA_MAX

    def test_midpoint_value(self):
        assert counts_grid(20, 20).lambda_map()[0] == pytest.approx(
            25.0 * math.log(2.0), abs=1e-12)

    def test_monotone_around_midpoint(self):
        vals = counts_grid([19, 20, 21], [21, 20, 19]).lambda_map()
        assert vals[0] < vals[1] < vals[2]

    @pytest.mark.parametrize("error_area,lambda_max", [
        (0.04, DEFAULT_LAMBDA_MAX), (1e-3, 1e300), (3.0, 0.5)])
    def test_kernel_equals_where_formula(self, rng, error_area, lambda_max):
        """The count kernel gives the bytes of the plain formula with the
        k = 0 and k = total > 0 cases patched in: on seeded whole and
        fractional counts, with k = 0, k = total and total = 0."""
        total = rng.integers(0, 5, 6000) * rng.integers(0, 1000, 6000) * 1.0
        k = total * rng.random(6000)
        k[::3] = np.floor(k[::3])
        k[1::7] = 0.0
        k[2::7] = total[2::7]
        assert (total == 0).any() and ((0 < k) & (k == total)).any()
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.log1p(k / (total - k)) / error_area
        want = np.where(k <= 0, 0.0, want)
        want = np.where((total > 0) & (k >= total), lambda_max, want)
        want = np.minimum(want, lambda_max)
        got = field._from_counts(k, total, error_area, lambda_max)
        assert got.tobytes() == want.tobytes()


class TestConfidenceBounds:
    def test_single_miss_lower_bound_clamps_to_zero(self, sensor):
        (low,), (high,) = counts_grid(0, 1, sensor).bound_maps()
        # mean count 1e-4 is far below 1.96 sigma, so the low count clamps
        assert low == 0.0
        assert high > 0.0

    def test_all_hits_upper_bound_saturates(self, sensor):
        _, (high,) = counts_grid(12, 0, sensor).bound_maps()
        assert high == DEFAULT_LAMBDA_MAX

    def test_unobserved_vacuous_interval(self, sensor):
        (low,), (high,) = counts_grid(0, 0, sensor).bound_maps()
        assert (low, high) == (0.0, DEFAULT_LAMBDA_MAX)

    def test_interval_ordering(self, sensor):
        low, high = counts_grid([0, 1, 10, 50], [5, 39, 10, 1],
                                sensor).bound_maps()
        assert ((0.0 <= low) & (low <= high)
                & (high <= DEFAULT_LAMBDA_MAX)).all()

    def test_misread_widens_then_reconverges(self, sensor):
        """Replaying miss readings with one injected hit: the interval
        inflates at the misread and narrows again as evidence accumulates.
        Cell i holds the counts after reading i + 1."""
        readings = np.arange(1, 101)
        hits = (readings >= 40).astype(np.int64)
        low, high = counts_grid(hits, readings - hits, sensor).bound_maps()
        widths = high - low
        assert widths[38] < widths[40]
        assert widths[99] < widths[40]


class TestIntegratedLambda:
    """The area-weighted intensity sum, as ``path_collision_probability``
    takes it over a ``PathCrossing``."""

    def test_uniform_example(self):
        lam = np.full(59, 0.1)
        lam[58] = 2.0
        crossing = crossing_of(lam, np.full(59, 0.04))
        assert path_collision_probability(crossing) == pytest.approx(
            collision_probability(0.312), abs=1e-12)

    def test_empty_cell_list(self):
        crossing = crossing_of([], [])
        assert path_collision_probability(crossing) == 0.0

    def test_subdivision_preserves_sum(self):
        whole = crossing_of([0.7], [0.04])
        split = crossing_of([0.7] * 4, [0.01] * 4)
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

    def test_lambda_map_matches_closed_form(self, grid, sensor, rng):
        """The map is, byte for byte, (1/e) * ln(1 + h/m), with h = 0 giving
        0 and m = 0 < h giving lambda_max, also for saturated, near-2^32 and
        unobserved cells."""
        probes = self._random_counts(grid, rng)
        grid.hits[60:70] = grid.misses[60:70] = 0
        probes = np.concatenate([probes, np.arange(60, 70)])
        h = grid.hits[probes].astype(np.float64)
        m = grid.misses[probes].astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.log1p(h / m) / sensor.error_area
        want[h == 0] = 0.0
        want[(m == 0) & (h > 0)] = grid.lambda_max
        want = np.minimum(want, grid.lambda_max)
        assert grid.lambda_map()[probes].tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("add", ["add_hits", "add_misses"])
    def test_repeated_index_counts_each_occurrence(self, geometry, sensor, add):
        grid = LambdaGrid(geometry, sensor)
        counts = grid.hits if add == "add_hits" else grid.misses
        counts[[3, 7]] = COUNT_MAX - 1
        getattr(grid, add)(np.array([5, 3, 5, 7, 5, 3]))
        assert counts[5] == 3
        assert counts[3] == COUNT_MAX and counts[7] == COUNT_MAX
        assert counts.sum() == 3 + 2 * COUNT_MAX
        getattr(grid, add)(np.array([], dtype=np.int64))
        assert counts.sum() == 3 + 2 * COUNT_MAX
