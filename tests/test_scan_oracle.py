"""The scan functions trace every beam of a call at once; these tests hold
them to the per-beam oracles in ``oracle.py``, bit for bit."""

import math

import numpy as np
import pytest

import lambdafield
from lambdafield import (Beam, BayesGrid, GridGeometry, GroundTruthMap,
                         LambdaGrid, SensorModel, apply_scan, bayes_scan,
                         simulate_scan)
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
    beams = [Beam((2.0, 2.0), (1.0, 0.0), 1.0, True),
             Beam((2.0, 2.0), (math.nan, 0.0), 1.0, True)]
    with pytest.raises(ValueError):
        apply_scan(grid, beams, sensor)
    assert grid.hits.sum() == 0 and grid.misses.sum() == 0


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=IDS)
def test_simulated_beams_equal_per_beam_oracle(geometry):
    truth = GroundTruthMap.uniform(geometry, 0.2)
    x0, y0 = geometry.origin_x, geometry.origin_y
    truth.set_block(x0 + 1.0, y0 + 0.5, x0 + 1.6, y0 + 1.4, 40.0)
    truth.set_block(x0 + 0.2, y0 + 1.0, x0 + 0.9, y0 + 1.3, 3.0)
    sensor = SensorModel(p_hit=0.9, p_miss=0.8, max_range=2.5)
    for seed, beam_count in [(0, 90), (1, 360), (2, 7)]:
        pose = (x0 + 0.7 + 0.1 * seed, y0 + 0.8, 0.3 * seed)
        got = simulate_scan(truth, pose, sensor, beam_count, seed)
        want = oracle.simulate_scan(truth, pose, sensor, beam_count, seed)
        assert repr(got) == repr(want)
        assert any(b.hit for b in got) and not all(b.hit for b in got)


def test_each_scan_function_traces_once(monkeypatch, geometry, sensor, rng):
    calls = []
    real = lambdafield.raycast.trace_beam

    def counted(*args):
        calls.append(len(np.reshape(args[2], (-1, 2))))
        return real(*args)

    for module in (lambdafield.sensor, lambdafield.bayes):
        monkeypatch.setattr(module, "trace_beam", counted)
    truth = GroundTruthMap.uniform(geometry, 0.5)
    beams = simulate_scan(truth, (2.0, 2.0, 0.0), sensor, 90, 0)
    assert calls == [90]
    apply_scan(LambdaGrid(geometry, sensor), beams, sensor)
    assert calls == [90, 90]
    bayes_scan(BayesGrid(geometry), random_scan(geometry, rng), sensor)
    assert calls == [90, 90, 151]
