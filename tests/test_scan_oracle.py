"""The scan functions trace every beam of a call at once and rasterise all
of its error disks in one call; these tests hold them to the per-beam
oracles in ``oracle.py``, bit for bit."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat
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


def flicker_scan(geometry: GridGeometry, rng, n: int = 300) -> list[Beam]:
    """Short spurious returns along a few bearings from one origin, hits and
    no-returns mixed: a cell on such a bearing is crossed by some beams and
    holds the return of others, so its steps change sign many times within
    the scan."""
    origin = (geometry.origin_x + 0.37 * geometry.width,
              geometry.origin_y + 0.61 * geometry.height)
    angles = rng.random(4) * 2 * math.pi
    reach = 8 * geometry.resolution
    return [Beam(origin, (math.cos(a), math.sin(a)), float(r), bool(h))
            for a, r, h in zip(rng.choice(angles, n), rng.random(n) * reach,
                               rng.random(n) < 0.7)]


def sign_runs(geometry: GridGeometry, beams: list[Beam]) -> int:
    """The most runs of one sign that the per-beam rule gives one cell."""
    signs: dict[int, list[bool]] = {}
    for beam in beams:
        end = beam.endpoint()
        occupied = int(geometry.flat_or_outside(*end)) if beam.hit else -1
        cells = [c for c, _ in oracle.incremental_walk(geometry, beam.origin, end)]
        for c in cells:
            signs.setdefault(c, []).append(c == occupied)
        if cells and occupied >= 0 and occupied not in cells:
            signs.setdefault(occupied, []).append(True)
    return max((1 + sum(a != b for a, b in zip(s, s[1:])) for s in signs.values()),
               default=0)


def assert_fold_equals_oracle(geometry, scans, clamp, p_occ, p_free, start):
    grid = BayesGrid(geometry, p_occ, p_free, log_odds_clamp=clamp)
    grid.log_odds[:] = start
    expected = BayesGrid(geometry, p_occ, p_free, log_odds_clamp=clamp)
    expected.log_odds[:] = start
    for beams in scans:
        bayes_scan(grid, beams, SensorModel())
        for beam in beams:
            oracle.bayes_update(expected, beam)
        assert grid.log_odds.tobytes() == expected.log_odds.tobytes()
    return grid


@pytest.mark.parametrize("p_occ, p_free", [(0.7, 0.7), (0.97, 0.55), (0.52, 0.9)])
@pytest.mark.parametrize("clamp", [0.5, 1.0, 3.3, 10.0])
def test_log_odds_fold_equals_oracle_through_sign_changes(clamp, p_occ, p_free, rng):
    """Cells whose steps change sign many times within one scan, from start
    values inside and beyond the clamp and from start values that many cells
    share, with asymmetric steps."""
    geometry = GEOMETRIES[1]
    scans = [flicker_scan(geometry, rng) for _ in range(3)]
    assert min(sign_runs(geometry, beams) for beams in scans) >= 6
    # 3.0: start values up to three clamps away
    starts = [rng.uniform(-spread, spread, geometry.n_cells) * clamp
              for spread in (0.0, 3.0)]
    starts.append(np.round(rng.uniform(-2.0, 2.0, geometry.n_cells), 1))
    for start in starts:
        assert_fold_equals_oracle(geometry, scans, clamp, p_occ, p_free, start)


def test_log_odds_fold_of_a_run_that_never_reaches_the_clamp(rng):
    """400 beams from one cell centre at p_occ = p_free = 0.5005: the origin
    cell gets one run of 400 steps of about 0.002, which stays inside the
    clamp, so the fold takes a pass per step."""
    geometry = GEOMETRIES[0]
    origin = geometry.cell_center(7, 9)
    angles = 2 * math.pi * np.arange(400) / 400
    beams = [Beam(origin, (math.cos(a), math.sin(a)), float(r), bool(h))
             for a, r, h in zip(angles, rng.uniform(0.2, 2.0, 400),
                                rng.random(400) < 0.5)]
    start = rng.uniform(-2.0, 2.0, geometry.n_cells)
    grid = assert_fold_equals_oracle(geometry, [beams], 10.0, 0.5005, 0.5005,
                                     start)
    cell = flat(geometry, 7, 9)
    assert grid.log_odds[cell] == pytest.approx(start[cell] + 400 * grid.l_free)


def test_log_odds_fold_with_int64_keys(rng):
    """A scan whose step keys do not fit in int32 (cells << beam bits) is
    sorted as int64 and folds to the same bits."""
    geometry = GridGeometry(0.0, 0.0, 0.05, 500, 500)
    beams = flicker_scan(geometry, rng, 4100)
    cells = [c for c, _ in oracle.incremental_walk(geometry, beams[0].origin,
                                                   beams[0].endpoint())]
    assert max(cells) << len(beams).bit_length() + 1 > np.iinfo(np.int32).max
    start = rng.uniform(-2.0, 2.0, geometry.n_cells)
    assert_fold_equals_oracle(geometry, [beams], 2.0, 0.8, 0.6, start)


@pytest.mark.parametrize("beams", [
    [], [Beam((1.05, 2.05), (1.0, 0.3), 1.7, True)],
    [Beam((1.05, 2.05), (math.nan, 0.0), 1.0, True)],
    [Beam((1.05, 2.05), (1.0, 0.0), 0.0, True)]],
    ids=["no beam", "one beam", "NaN beam", "zero-length beam"])
def test_log_odds_fold_of_tiny_scans(geometry, beams, rng):
    start = rng.uniform(-12.0, 12.0, geometry.n_cells)
    assert_fold_equals_oracle(geometry, [beams], 10.0, 0.7, 0.7, start)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), clamp=st.floats(0.5, 10.0),
       p_occ=st.floats(0.501, 0.999), p_free=st.floats(0.501, 0.999),
       spread=st.floats(0.0, 3.0), n=st.integers(0, 40))
def test_log_odds_fold_equals_oracle_property(seed, clamp, p_occ, p_free,
                                              spread, n):
    geometry = GEOMETRIES[2]
    rng = np.random.default_rng(seed)
    scans = [flicker_scan(geometry, rng, n), random_scan(geometry, rng, n)]
    start = rng.uniform(-spread, spread, geometry.n_cells) * clamp
    assert_fold_equals_oracle(geometry, scans, clamp, p_occ, p_free, start)


def test_nan_hit_beam_raises_before_any_count(grid, sensor):
    for bad in (math.nan, math.inf):  # an inf end too, with no warning
        beams = [Beam((2.0, 2.0), (1.0, 0.0), 1.0, True),
                 Beam((2.0, 2.0), (bad, 0.0), 1.0, True)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                apply_scan(grid, beams, sensor)
        assert grid.hits.sum() == 0 and grid.misses.sum() == 0


def window_scan(geometry: GridGeometry, rng, radius: float,
                n: int = 160) -> list[Beam]:
    """Hit beams, with a few no-returns, that probe ``apply_scan``'s disk
    window: diagonal and near-diagonal beams, whose first cell in the disk
    lies farthest back from the return; returns on cell corners, on or off
    the grid, and far off it (clipped rows); and returns within a few cells
    of the origin (rows shorter than the window)."""
    lo = np.array([geometry.origin_x, geometry.origin_y])
    size = np.array([geometry.width, geometry.height])
    res = geometry.resolution
    corner = lo + rng.integers([geometry.n_cols, geometry.n_rows]) * res
    origins = [lo + rng.random(2) * size for _ in range(3)]
    origins += [corner, corner + 0.5 * res]
    beams = []
    for k in range(n):
        origin = origins[k % len(origins)]
        kind = k % 4
        if kind == 0:    # diagonal, give or take a little
            angle = (math.pi / 4 * rng.choice([1, 3, 5, 7])
                     + rng.choice([0.0, 1e-9, -1e-3, 0.05]))
            end = origin + rng.random() * 1.2 * size.max() * np.array(
                [math.cos(angle), math.sin(angle)])
        elif kind == 1:  # a cell corner, on or off the grid
            end = lo + rng.integers(-3, [geometry.n_cols + 4,
                                         geometry.n_rows + 4]) * res
        elif kind == 2:  # far off the grid
            end = lo + rng.uniform(-2.0, 3.0, 2) * size
        else:            # within a few cells, or a radius, of the origin
            angle = rng.random() * 2 * math.pi
            reach = rng.uniform(0.0, 1.5) * rng.choice([res, radius])
            end = origin + reach * np.array([math.cos(angle), math.sin(angle)])
        beams.append(Beam(tuple(origin), tuple(end - origin), 1.0,
                          bool(k % 11)))
    return beams


@pytest.mark.parametrize("radius_in_cells", [0.3, 1.0, 2.5, 5.0, 8.3])
@pytest.mark.parametrize("geometry", GEOMETRIES, ids=IDS)
def test_disk_window_equals_whole_row_rule(geometry, radius_in_cells, rng):
    """``apply_scan`` tests the disk against the last cells of each hit row
    only; its counts equal the per-beam rule, which tests the whole row."""
    radius = radius_in_cells * geometry.resolution
    sensor = SensorModel(error_area=math.pi * radius * radius)
    grid, expected = LambdaGrid(geometry, sensor), LambdaGrid(geometry, sensor)
    for _ in range(2):
        beams = window_scan(geometry, rng, sensor.error_radius)
        apply_scan(grid, beams, sensor)
        for beam in beams:
            oracle.apply_beam(expected, beam, sensor)
    assert grid.hits.sum() > 0 and grid.misses.sum() > 0
    assert np.array_equal(grid.hits, expected.hits)
    assert np.array_equal(grid.misses, expected.misses)
    # a NaN return among them raises before any count changes
    hits, misses = grid.hits.copy(), grid.misses.copy()
    beams.insert(5, Beam(beams[0].origin, (math.nan, 1.0), 1.0, True))
    with pytest.raises(ValueError):
        apply_scan(grid, beams, sensor)
    assert np.array_equal(grid.hits, hits) and np.array_equal(grid.misses, misses)


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


def test_simulated_beams_of_a_trace_of_width_0():
    """A beam from the grid's lower-left corner that points out of the grid
    crosses no cell: a scan of that beam alone has a trace of width 0, and
    one of four beams has empty rows among others. Both equal the per-beam
    oracle."""
    geometry = GEOMETRIES[2]
    truth = GroundTruthMap.uniform(geometry, 5.0)
    sensor = SensorModel(p_hit=0.9, p_miss=0.8, max_range=2.5)
    pose = (geometry.origin_x, geometry.origin_y, math.pi)
    end = (pose[0] - sensor.max_range, pose[1] + 0.0)
    assert lambdafield.trace_beam(geometry, pose[:2], end).shape == (1, 0)
    for beam_count in (1, 4):
        for seed in range(3):
            got = simulate_scan(truth, pose, sensor, beam_count, seed)
            want = oracle.simulate_scan(truth, pose, sensor, beam_count, seed)
            assert len(got) == beam_count and repr(got) == repr(want)


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
    assert walked == [90, returned]  # every row reused: no walk at all
    bayes_scan(BayesGrid(geometry), random_scan(geometry, rng), sensor)
    assert calls == [90, 90, ("disks", hits), 90, 151]
    assert walked == [90, returned, 151]
