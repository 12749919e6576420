"""The scan functions trace every beam of a call at once and rasterise all
of its error disks in one call; these tests hold them to the per-beam
oracles in ``oracle.py``, bit for bit."""

import math
import warnings

import numpy as np
import pytest

import lambdafield
from lambdafield import (Beam, BayesGrid, GridGeometry, GroundTruthMap,
                         LambdaGrid, SensorModel, apply_scan, bayes_scan,
                         error_region_cells, simulate_scan)
import oracle

GEOMETRIES = [GridGeometry(0.0, 0.0, 0.1, 40, 40),
              GridGeometry(-1.25, 0.5, 0.05, 97, 31),
              GridGeometry(0.3, -2.0, 0.37, 13, 29)]
IDS = ["0.1", "0.05", "0.37"]


def random_scan(geometry: GridGeometry, rng, n: int = 150) -> list[Beam]:
    """Beams from several origins (random points, a cell corner, a cell
    centre), hits and no-returns mixed: random directions and ranges, ends
    on cell corners and on cell edges, ends far off the grid, and one
    no-return beam with a NaN end."""
    lo = np.array([geometry.origin_x, geometry.origin_y])
    size = np.array([geometry.width, geometry.height])
    res = geometry.resolution
    cell = rng.integers([geometry.n_cols, geometry.n_rows])
    origins = [tuple(lo + rng.random(2) * size) for _ in range(3)]
    origins += [tuple(lo + cell * res), geometry.cell_center(*cell)]
    beams = []
    for k in range(n):
        origin = np.array(origins[k % len(origins)])
        hit = bool(rng.random() < 0.6)
        kind = k % 4
        if kind == 0:
            angle = rng.random() * 2 * math.pi
            beams.append(Beam(tuple(origin), (math.cos(angle), math.sin(angle)),
                              float(rng.random() * 1.5 * size.max()), hit))
            continue
        if kind == 1:    # a cell corner
            end = lo + rng.integers(0, [geometry.n_cols + 1,
                                        geometry.n_rows + 1]) * res
        elif kind == 2:  # a point on a cell edge
            end = lo + np.array([rng.integers(0, geometry.n_cols + 1),
                                 rng.random() * geometry.n_rows]) * res
        else:            # far off the grid
            end = lo + rng.uniform(-2.0, 3.0, 2) * size
        beams.append(Beam(tuple(origin), tuple(end - origin), 1.0, hit))
    beams.append(Beam(origins[0], (math.nan, 0.0), 1.0, False))
    return beams


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=IDS)
def test_counts_equal_per_beam_oracle(geometry, rng):
    sensor = SensorModel()
    grid, expected = LambdaGrid(geometry, sensor), LambdaGrid(geometry, sensor)
    for _ in range(3):
        beams = random_scan(geometry, rng)
        apply_scan(grid, beams, sensor)
        for beam in beams:
            oracle.apply_beam(expected, beam, sensor)
    assert grid.hits.sum() > 0 and grid.misses.sum() > 0
    assert np.array_equal(grid.hits, expected.hits)
    assert np.array_equal(grid.misses, expected.misses)


@pytest.mark.parametrize("clamp", [1.5, 10.0])
@pytest.mark.parametrize("geometry", GEOMETRIES, ids=IDS)
def test_log_odds_equal_per_beam_oracle(geometry, clamp, rng):
    sensor = SensorModel()
    grid = BayesGrid(geometry, 0.8, 0.6, log_odds_clamp=clamp)
    expected = BayesGrid(geometry, 0.8, 0.6, log_odds_clamp=clamp)
    for _ in range(3):
        beams = random_scan(geometry, rng)
        beams.append(Beam(beams[0].origin, (math.nan, 1.0), 1.0, True))
        bayes_scan(grid, beams, sensor)
        for beam in beams:
            oracle.bayes_update(expected, beam)
    assert (np.abs(grid.log_odds) == clamp).any()
    assert grid.log_odds.tobytes() == expected.log_odds.tobytes()


def test_nan_hit_beam_raises_before_any_count(grid, sensor):
    for bad in (math.nan, math.inf):  # an inf end too, with no warning
        beams = [Beam((2.0, 2.0), (1.0, 0.0), 1.0, True),
                 Beam((2.0, 2.0), (bad, 0.0), 1.0, True)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                apply_scan(grid, beams, sensor)
        assert grid.hits.sum() == 0 and grid.misses.sum() == 0


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=IDS)
@pytest.mark.parametrize("window_cells", [1 << 16, 200, 1])  # chunks of disks
def test_error_disks_equal_per_centre_oracle(monkeypatch, geometry, rng, window_cells):
    monkeypatch.setattr(lambdafield.raycast, "DISK_WINDOW_CELLS", window_cells)
    lo = np.array([geometry.origin_x, geometry.origin_y])
    size = np.array([geometry.width, geometry.height])
    res = geometry.resolution
    n_cells = np.array([geometry.n_cols, geometry.n_rows])
    centres = np.concatenate([
        lo + rng.uniform(-0.2, 1.2, (60, 2)) * size,           # on and off
        lo + rng.integers(0, n_cells + 1, (20, 2)) * res,       # cell corners
        lo + (rng.integers(0, n_cells, (20, 2)) + 0.5) * res,   # cell centres
        lo + [[0, 0.5], [1, 0.5], [0.5, 0], [0.5, 1], [0, 0], [1, 1]] * size,
        lo + [[0, 0.5], [1, 0.5], [0.5, 0], [0.5, 1]] * size    # just outside
        + np.array([[-0.4, 0], [0.4, 0], [0, -0.4], [0, 0.4]]) * res,
        lo + [[-3.0, 0.5], [0.5, 4.0], [-1.0, -1.0]] * size])   # far off
    for radius_in_cells in (0.3, 0.5, 0.71, 1.0, 1.5, 2.2, 3.0, 5.0):
        radius = radius_in_cells * res
        got = error_region_cells(geometry, centres, radius)
        want = np.concatenate([oracle.error_region_cells(geometry, c, radius)
                               for c in centres])
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist(), radius_in_cells
        assert error_region_cells(geometry, centres[0], radius).tolist() == \
            oracle.error_region_cells(geometry, centres[0], radius).tolist()


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=IDS)
def test_simulated_beams_equal_per_beam_oracle(geometry):
    truth = GroundTruthMap.uniform(geometry, 0.2)
    x0, y0 = geometry.origin_x, geometry.origin_y
    truth.set_block(x0 + 1.0, y0 + 0.5, x0 + 1.6, y0 + 1.4, 40.0)
    truth.set_block(x0 + 0.2, y0 + 1.0, x0 + 0.9, y0 + 1.3, 3.0)
    sensor = SensorModel(p_hit=0.9, p_miss=0.8, max_range=2.5)
    for seed, beam_count in [(0, 90), (1, 360), (2, 7), (3, 1), (4, 0)]:
        pose = (x0 + 0.7 + 0.1 * seed, y0 + 0.8, 0.3 * seed)
        got = simulate_scan(truth, pose, sensor, beam_count, seed)
        want = oracle.simulate_scan(truth, pose, sensor, beam_count, seed)
        assert len(got) == beam_count
        assert repr(got) == repr(want)
        if beam_count > 1:
            assert any(b.hit for b in got) and not all(b.hit for b in got)


def test_each_scan_function_traces_once(monkeypatch, geometry, sensor, rng):
    """One trace per scan function, and each scan's segments are walked
    once: the simulator walks every beam, ``apply_scan`` only the beams
    below the maximum range and ``bayes_scan`` none of the same beams."""
    calls, walked = [], []
    real = lambdafield.raycast.trace_beam
    real_disks = lambdafield.raycast.error_region_cells
    real_walk = lambdafield.raycast._walk

    def counted(*args):
        calls.append(len(np.reshape(args[2], (-1, 2))))
        return real(*args)

    def counted_disks(*args):
        calls.append(("disks", len(args[1])))
        return real_disks(*args)

    def counted_walk(*args):
        walked.append(len(args[1]))
        return real_walk(*args)

    for module in (lambdafield.sensor, lambdafield.bayes):
        monkeypatch.setattr(module, "trace_beam", counted)
    monkeypatch.setattr(lambdafield.sensor, "error_region_cells", counted_disks)
    monkeypatch.setattr(lambdafield.raycast, "_walk", counted_walk)
    monkeypatch.setattr(lambdafield.raycast, "_last",
                        (None,) + lambdafield.raycast._last[1:])
    truth = GroundTruthMap.uniform(geometry, 0.5)
    beams = simulate_scan(truth, (2.0, 2.0, 0.0), sensor, 90, 0)
    assert calls == [90] and walked == [90]
    hits = sum(b.hit for b in beams)
    returned = sum(b.measured_range < sensor.max_range for b in beams)
    assert 0 < hits < 90 and 0 < returned < 90
    apply_scan(LambdaGrid(geometry, sensor), beams, sensor)
    assert calls == [90, 90, ("disks", hits)] and walked == [90, returned]
    bayes_scan(BayesGrid(geometry), beams, sensor)
    assert calls == [90, 90, ("disks", hits), 90]
    assert walked == [90, returned, 0]
    bayes_scan(BayesGrid(geometry), random_scan(geometry, rng), sensor)
    assert calls == [90, 90, ("disks", hits), 90, 151]
    assert walked == [90, returned, 0, 151]
