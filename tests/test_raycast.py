import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lambdafield import GridGeometry, error_region_cells, raycast, trace_beam
from oracle import incremental_walk

GEOMETRIES = [GridGeometry(0.0, 0.0, 0.1, 40, 40),
              GridGeometry(-1.25, 0.5, 0.05, 97, 31),
              GridGeometry(0.3, -2.0, 0.37, 13, 29)]
IDS = ["0.1", "0.05", "0.37"]


class TestTraceBeam:
    def test_axis_aligned_unit_segment(self, geometry):
        cells, = trace_beam(geometry, (0.0, 0.05), (1.0, 0.05))
        assert len(cells) == 10
        for i, (idx, chord) in enumerate(cells):
            assert idx == i
            assert chord == pytest.approx(0.1, abs=1e-12)

    def test_zero_length_segment(self, geometry):
        assert trace_beam(geometry, (0.5, 0.5), (0.5, 0.5)).shape == (1, 0)

    def test_diagonal_chord(self, geometry):
        cells, = trace_beam(geometry, (0.2, 0.2), (0.3, 0.3))
        assert len(cells) == 1
        assert cells[0][1] == pytest.approx(0.1 * math.sqrt(2.0), abs=1e-12)

    def test_origin_outside_raises(self, geometry):
        with pytest.raises(ValueError):
            trace_beam(geometry, (-1.0, 0.5), (1.0, 0.5))
        with pytest.raises(ValueError):  # one bad origin among several
            trace_beam(geometry, [(0.5, 0.5), (0.5, 4.0), (1.0, 1.0)],
                       (1.0, 0.5))

    def test_endpoint_clipped_to_grid(self, geometry):
        cells, = trace_beam(geometry, (3.95, 2.05), (20.0, 2.05))
        total = sum(c for _, c in cells)
        assert total == pytest.approx(0.05, abs=1e-9)

    def test_chords_sum_to_segment_length(self, geometry, rng):
        origins = rng.random((200, 2)) * 3.9 + 0.05
        ends = rng.random((200, 2)) * 3.9 + 0.05
        rows = trace_beam(geometry, origins, ends)
        assert len(rows) == 200
        for (ox, oy), (ex, ey), cells in zip(origins, ends, rows):
            total = sum(c for _, c in cells)
            assert all(c >= 0 for _, c in cells)
            assert total == pytest.approx(math.hypot(ex - ox, ey - oy), abs=1e-9)

    def test_rows_are_padded(self, geometry):
        rows = trace_beam(geometry, (0.05, 0.05), [(0.35, 0.05), (0.05, 0.05),
                                                    (0.05, 0.15)])
        assert rows.shape == (3, 4)
        assert rows["cell"].tolist() == [[0, 1, 2, 3], [-1] * 4,
                                         [0, 40, -1, -1]]
        assert (rows["chord"][rows["cell"] == -1] == 0).all()
        assert trace_beam(geometry, (0.5, 0.5), []).shape == (0, 0)

    def test_cells_ordered_from_origin(self, geometry):
        cells, = trace_beam(geometry, (0.05, 0.05), (3.95, 3.95))
        # cells advance monotonically away from the origin
        prev = None
        for idx, _ in cells:
            col, row = geometry.unflat(idx)
            if prev is not None:
                dcol, drow = col - prev[0], row - prev[1]
                assert dcol in (0, 1) and drow in (0, 1) and dcol + drow >= 1
            prev = (col, row)


def oracle_beams(geometry: GridGeometry, rng) -> list:
    """(origin, endpoint) pairs: random segments, beams at whole degrees and
    at multiples of 45 degrees from cell corners and cell centres, beams
    that leave the grid, zero-length, huge and non-finite segments."""
    lo = np.array([geometry.origin_x, geometry.origin_y])
    size = np.array([geometry.width, geometry.height])
    beams = [(tuple(lo + rng.random(2) * size),
              tuple(lo + rng.uniform(-0.5, 1.5, 2) * size)) for _ in range(300)]
    for k in range(360):
        cell = rng.integers([geometry.n_cols, geometry.n_rows])
        corner = tuple(lo + cell * geometry.resolution)
        centre = geometry.cell_center(*cell)
        for origin in (corner, centre):
            for angle in (k * 2 * math.pi / 360, k % 8 * math.pi / 4):
                length = rng.random() * 1.5 * size.max()
                beams.append((origin, (origin[0] + math.cos(angle) * length,
                                       origin[1] + math.sin(angle) * length)))
    centre = geometry.cell_center(0, 0)
    beams.append((centre, centre))
    for end in ((math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan),
                (math.inf, 1.0), (1.0, -math.inf), (-math.inf, math.nan),
                (math.inf, math.inf), (1e308, 1.0), (-1.7e308, 1e307)):
        beams.append((centre, end))
    return beams


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=IDS)
def test_trace_beam_equals_incremental_walk(geometry, rng):
    beams = oracle_beams(geometry, rng)
    rows = trace_beam(geometry, [o for o, _ in beams], [e for _, e in beams])
    assert len(rows) == len(beams)
    for (origin, end), row in zip(beams, rows):
        walk = incremental_walk(geometry, origin, end)
        cells, pad = row[:len(walk)], row[len(walk):]
        assert cells["cell"].tolist() == [i for i, _ in walk], (origin, end)
        assert cells["chord"].tolist() == [c for _, c in walk], (origin, end)
        assert (pad["cell"] == -1).all() and (pad["chord"] == 0).all()
    for origin, end in beams[::50]:  # a one-beam call gives the same row
        row, = trace_beam(geometry, origin, end)
        assert row.tolist() == [tuple(c) for c in incremental_walk(
            geometry, origin, end)]


def segment_arrays(beams) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([o for o, _ in beams], np.float64),
            np.array([e for _, e in beams], np.float64))


def test_trace_beam_reuses_rows_byte_for_byte(monkeypatch, geometry, rng):
    """Under full, partial and no reuse, a changed geometry and a changed row
    count, with NaN and infinite rows among them, ``trace_beam`` returns the
    bytes of a fresh walk, and walks exactly the rows whose segment bits (or
    geometry) differ from its previous call's. A call that reuses every row
    of a call with as many rows, or no row, restacks nothing."""
    real, walked, stacked = raycast._walk, [], []
    real_stack = raycast._stack

    def counted(geo, o, e):
        walked.append(len(o))
        return real(geo, o, e)

    def counted_stack(n, parts):
        stacked.append(n)
        return real_stack(n, parts)

    monkeypatch.setattr(raycast, "_walk", counted)
    monkeypatch.setattr(raycast, "_stack", counted_stack)
    monkeypatch.setattr(raycast, "WALK_CROSSINGS", 1 << 30)  # one call, no chunks
    monkeypatch.setattr(raycast, "_last", (None,) + raycast._last[1:])
    o, e = segment_arrays(oracle_beams(geometry, rng))
    n, half = len(o), len(o) // 2
    shifted = e.copy()
    shifted[::3] += 0.01  # NaN rows stay bit-equal, so they are reused
    differs = (shifted.view(np.uint64) != e.view(np.uint64)).any(axis=1)
    moved = o.copy()
    moved[1::4] += 1e-3  # other origins, the same endpoints
    finer = GridGeometry(geometry.origin_x, geometry.origin_y,
                         geometry.resolution / 2, 2 * geometry.n_cols,
                         2 * geometry.n_rows)
    calls = [(geometry, o, e, n, False),                   # no reuse
             (geometry, o, e, 0, False),                   # full reuse
             (geometry, o, shifted, differs.sum(), True),  # partial reuse
             (geometry, o, shifted, 0, False),             # full reuse of a stack
             (geometry, o[:half], shifted[:half], 0, True),  # fewer rows
             (geometry, o, e, differs[:half].sum() + n - half, True),  # more rows
             (geometry, moved, e, len(moved[1::4]), True),
             (finer, o, e, n, False)]                      # another geometry
    assert 0 < differs.sum() < n and np.isnan(e).any() and np.isinf(e).any()
    for geo, origins, ends, rows_walked, restacked in calls:
        walked.clear()
        stacked.clear()
        got = trace_beam(geo, origins, ends)
        # a restack walks its new rows, even none; a fast path walks all or none
        assert walked == ([rows_walked] if restacked or rows_walked else [])
        assert stacked == ([len(origins)] if restacked else [])
        want = real(geo, origins, ends)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_trace_beam_returns_a_fresh_array(monkeypatch, geometry, rng):
    monkeypatch.setattr(raycast, "_last", raycast._last)  # restored afterwards
    o, e = segment_arrays(oracle_beams(geometry, rng))
    first = trace_beam(geometry, o, e)
    first["cell"], first["chord"] = 7, -1.0
    again = trace_beam(geometry, o, e)
    assert again.flags.writeable and not np.shares_memory(first, again)
    assert again.tobytes() == raycast._walk(geometry, o, e).tobytes()


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=IDS)
@pytest.mark.parametrize("crossings", [1000, 1])  # down to one row per chunk
def test_chunked_walk_equals_unchunked(monkeypatch, geometry, rng, crossings):
    o, e = segment_arrays(oracle_beams(geometry, rng))
    whole = raycast._walk(geometry, o, e)
    monkeypatch.setattr(raycast, "WALK_CROSSINGS", crossings)
    chunked = raycast._walk(geometry, o, e)
    assert chunked.shape == whole.shape and chunked.tobytes() == whole.tobytes()


def test_trace_memory_is_bounded(monkeypatch):
    """3600 beams of 8 m on a 400 x 400 grid at 0.05 m: the padded crossings
    are walked in chunks (99 MB peak when walked at once)."""
    monkeypatch.setattr(raycast, "_last", raycast._last)  # restored afterwards
    geo = GridGeometry(0.0, 0.0, 0.05, 400, 400)
    angles = 2 * math.pi * np.arange(3600) / 3600
    ends = np.stack([10 + 8 * np.cos(angles), 10 + 8 * np.sin(angles)], axis=1)
    tracemalloc.start()
    try:
        rows = trace_beam(geo, (10.0, 10.0), ends)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape[0] == 3600 and np.allclose(rows["chord"].sum(axis=1), 8.0)
    assert peak < 40e6


class TestErrorRegion:
    def test_disk_covers_plus_neighborhood(self, geometry):
        # edge neighbors at 0.1 < 0.1128, diagonals at 0.1414 excluded
        center = geometry.cell_center(5, 5)
        cells = set(error_region_cells(geometry, center, 0.1128))
        expected = {geometry.flat(5, 5), geometry.flat(4, 5), geometry.flat(6, 5),
                    geometry.flat(5, 4), geometry.flat(5, 6)}
        assert cells == expected

    def test_centre_on_the_rim_is_inside(self):
        # binary-exact centres: the four edge neighbours lie exactly on the rim
        geo = GridGeometry(0.0, 0.0, 0.5, 8, 8)
        cells = set(error_region_cells(geo, geo.cell_center(3, 3), 0.5))
        assert cells == {geo.flat(3, 3), geo.flat(2, 3), geo.flat(4, 3),
                         geo.flat(3, 2), geo.flat(3, 4)}

    def test_tiny_disk_single_cell(self, geometry):
        center = geometry.cell_center(2, 7)
        cells = error_region_cells(geometry, center, 0.04)
        assert list(cells) == [geometry.flat(2, 7)]

    def test_disk_fully_outside_grid(self, geometry):
        assert len(error_region_cells(geometry, (50.0, 50.0), 0.2)) == 0

    def test_no_centres_no_cells(self, geometry):
        for empty in ([], np.empty((0, 2))):
            cells = error_region_cells(geometry, empty, 0.2)
            assert cells.dtype == np.int64 and cells.shape == (0,)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_centre_rejected_without_warning(self, geometry, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for centres in [(bad, 1.0), [(1.0, 1.0), (1.0, bad)]]:
                with pytest.raises(ValueError, match="not finite"):
                    error_region_cells(geometry, centres, 0.2)

    def test_far_off_finite_centre_no_cells_without_warning(self, geometry):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for centre in [(1e200, 1.0), (-1.7e308, 2.0), (1e300, -1e300)]:
                assert len(error_region_cells(geometry, centre, 0.2)) == 0

    def test_nonpositive_radius_rejected(self, geometry):
        with pytest.raises(ValueError):
            error_region_cells(geometry, (1.0, 1.0), 0.0)

    def test_membership_by_center_distance(self, geometry, rng):
        for _ in range(20):
            cx, cy = rng.random(2) * 4.0
            radius = 0.05 + rng.random() * 0.3
            cells = set(error_region_cells(geometry, (cx, cy), radius))
            for i in range(geometry.n_cells):
                x, y = geometry.cell_center(*geometry.unflat(i))
                inside = (x - cx) ** 2 + (y - cy) ** 2 <= radius ** 2
                assert (i in cells) == inside
