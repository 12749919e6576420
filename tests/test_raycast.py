import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import flat
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
            row, col = divmod(idx, geometry.n_cols)
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


def assert_rows_equal_walk(geometry, o, e, rows):
    """Each row of a trace holds ``incremental_walk``'s records bit for bit,
    then padding, and the trace is as wide as its longest row."""
    assert rows.shape[0] == len(o)
    widths = []
    for origin, end, row in zip(o.tolist(), e.tolist(), rows):
        walk = incremental_walk(geometry, origin, end)
        assert row[:len(walk)].tolist() == walk, (origin, end)
        assert (row[len(walk):]["cell"] == -1).all()
        assert (row[len(walk):]["chord"] == 0).all()
        widths.append(len(walk))
    assert rows.shape[1] == max(widths, default=0)


def diagonal_segments(geometry, rng, n: int = 120):
    """Segments at multiples of 45 degrees from cell corners and cell
    centres of a grid of binary-exact coordinates: each crosses cell corners
    exactly, where its x and y crossings tie and a zero chord lies between
    two kept cells."""
    res = geometry.resolution
    o, e = [], []
    for k in range(n):
        cell = rng.integers([geometry.n_cols, geometry.n_rows])
        corner = np.array([geometry.origin_x, geometry.origin_y]) + cell * res
        origin = corner + (0.5 * res if k % 2 else 0.0)
        direction = np.array([[1, 0], [1, 1], [0, 1], [-1, 1], [-1, 0],
                              [-1, -1], [0, -1], [1, -1]][k % 8])
        o.append(origin)
        e.append(origin + direction * res * rng.integers(1, 2 * geometry.n_cols))
    return np.array(o), np.array(e)


BINARY = GridGeometry(-2.0, 1.0, 0.125, 40, 24)
FAR = GridGeometry(1e5 + 0.3, -7e4, 0.037, 50, 60)  # crossings round off


@pytest.mark.parametrize("rows", ["diagonal", "diagonal among others"])
def test_corner_ties_equal_incremental_walk(rows, rng):
    """Segments through exact cell corners have zero chords between kept
    cells, which the walk drops and closes up (a row's kept cells are then
    no prefix of its crossings); beside them, rows whose kept cells are a
    prefix. Both equal the incremental walk, one row or many at a call."""
    o, e = diagonal_segments(BINARY, rng)
    if rows != "diagonal":
        lo = np.array([BINARY.origin_x, BINARY.origin_y])
        size = np.array([BINARY.width, BINARY.height])
        o = np.concatenate([o, lo + rng.random((60, 2)) * size])
        e = np.concatenate([e, lo + rng.uniform(-0.5, 1.5, (60, 2)) * size])
    # a cell dropped between two kept cells: they are diagonal neighbours
    cells = [np.array([c for c, _ in incremental_walk(BINARY, a, b)])
             for a, b in zip(o.tolist(), e.tolist())]
    gaps = [np.any((np.abs(np.diff(c % BINARY.n_cols)) == 1)
                   & (np.abs(np.diff(c // BINARY.n_cols)) == 1)) for c in cells]
    assert sum(gaps) > 40
    assert_rows_equal_walk(BINARY, o, e, raycast._walk(BINARY, o, e)[0])
    for k in range(0, len(o), 17):
        assert_rows_equal_walk(BINARY, o[k:k + 1], e[k:k + 1],
                               raycast._walk(BINARY, o[k:k + 1], e[k:k + 1])[0])


def test_crossings_past_the_grid_edge_equal_incremental_walk(rng):
    """On a grid far from the origin with a resolution that is not binary,
    a segment's crossing of the grid edge often rounds to before t_end: its
    cells past that crossing lie off the grid and are dropped, as the
    incremental walk drops them."""
    lo = np.array([FAR.origin_x, FAR.origin_y])
    size = np.array([FAR.width, FAR.height])
    o = lo + rng.random((400, 2)) * size
    e = lo + rng.uniform(-0.5, 1.5, (400, 2)) * size
    e[::2] = np.where(rng.random((200, 1)) < 0.5, lo, lo + size)  # to a corner
    rows, per_row = raycast._walk(FAR, o, e)
    assert_rows_equal_walk(FAR, o, e, rows)
    assert per_row.tolist() == (rows["cell"] >= 0).sum(axis=1).tolist()


def test_flat_indices_beyond_int32(rng):
    """On a grid of more than 2**31 cells the walk's indices are int64; on
    one of fewer they fit int32. Both equal the incremental walk."""
    for geometry in (GridGeometry(0.0, 0.0, 1.0, 70000, 40000),
                     GridGeometry(0.0, 0.0, 1.0, 46000, 46000)):
        top = np.array([geometry.width, geometry.height]) - 3.5
        o = top + rng.random((20, 2))
        e = o + rng.uniform(-40.0, 40.0, (20, 2))
        assert geometry.n_cells > np.iinfo(np.int32).max // 2
        assert_rows_equal_walk(geometry, o, e, raycast._walk(geometry, o, e)[0])


def test_rows_that_cross_no_cell(geometry):
    """Zero-length and non-finite segments give empty rows: a call of only
    such rows gives a trace of width 0, one row or several."""
    centre = geometry.cell_center(3, 4)
    ends = [centre, (math.nan, 1.0), (math.inf, math.inf), (1.0, -math.inf),
            (math.nan, math.nan)]
    for k in (1, len(ends)):
        rows, per_row = raycast._walk(geometry, np.array([centre] * k),
                                      np.array(ends[:k]))
        assert rows.shape == (k, 0) and per_row.tolist() == [0] * k
    got = trace_beam(geometry, centre, ends + [(2.0, 2.0)])
    assert got.shape[1] > 0 and (got["cell"][:-1] == -1).all()
    assert_rows_equal_walk(geometry, np.array([centre] * 6),
                           np.array(ends + [(2.0, 2.0)]), got)


def test_trace_beam_reuses_rows_byte_for_byte(monkeypatch, geometry, rng):
    """Under full, partial and no reuse, a changed geometry and a changed row
    count, with NaN and infinite rows among them, ``trace_beam`` returns the
    bytes of a fresh walk. After a call on the same geometry with as many
    rows it walks exactly the rows whose segment bits differ from that
    call's, and after any other call every row. A call that reuses every
    row, or no row, restacks nothing."""
    real, walked, stacked = raycast._walk, [], []
    real_stack = raycast._stack

    def counted(geo, o, e):
        walked.append(len(o))
        return real(geo, o, e)

    def counted_stack(per_row, parts):
        stacked.append(len(per_row))
        return real_stack(per_row, parts)

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
             (geometry, o[:half], shifted[:half], half, False),  # fewer rows
             (geometry, o, e, n, False),                   # more rows
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
        want, _ = real(geo, origins, ends)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_partial_reuse_restacks_wider_and_narrower_rows(monkeypatch, rng):
    """A partial reuse whose walked rows are wider than the kept rows, then
    one whose walked rows are narrower (the kept rows set the width), then
    one whose rows all shrink: each equals the incremental walk."""
    monkeypatch.setattr(raycast, "_last", (None,) + raycast._last[1:])
    geometry = GEOMETRIES[1]
    lo = np.array([geometry.origin_x, geometry.origin_y])
    o = lo + rng.random((90, 2)) * [geometry.width, geometry.height]
    angle = rng.random(90) * 2 * math.pi
    ray = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    short, far = o + 0.2 * ray, o + 6.0 * ray
    calls = [short,                                     # a fresh walk
             np.where(np.arange(90)[:, None] % 3 == 0, far, short),  # wider
             np.where(np.arange(90)[:, None] % 3 == 1, short, far),  # mixed
             np.where(np.arange(90)[:, None] % 3 == 2, short, far),  # narrower
             np.where(np.arange(90)[:, None] == 5, far, short)]      # shrinks
    widths = []
    for e in calls:
        rows = trace_beam(geometry, o, e)
        assert_rows_equal_walk(geometry, o, e, rows)
        widths.append(rows.shape[1])
    assert widths[0] < widths[1] and widths[4] < widths[3]


def test_trace_beam_lends_its_kept_rows_read_only(monkeypatch, geometry, rng):
    """A write into a trace raises, a later call still gives the bytes of a
    fresh walk, and a call that reuses every row of a 360-beam scan on a
    400 x 400 grid allocates under 5% of the trace's bytes."""
    monkeypatch.setattr(raycast, "_last", raycast._last)  # restored afterwards
    o, e = segment_arrays(oracle_beams(geometry, rng))
    first = trace_beam(geometry, o, e)
    for name, value in (("cell", 7), ("chord", -1.0)):
        with pytest.raises(ValueError, match="read-only"):
            first[name] = value
    again = trace_beam(geometry, o, e)
    assert not again.flags.writeable
    assert again.tobytes() == raycast._walk(geometry, o, e)[0].tobytes()
    geo = GridGeometry(0.0, 0.0, 0.05, 400, 400)
    angles = 2 * math.pi * np.arange(360) / 360
    ends = np.stack([10 + 8 * np.cos(angles), 10 + 8 * np.sin(angles)], axis=1)
    rows = trace_beam(geo, (10.0, 10.0), ends)
    tracemalloc.start()
    try:
        trace_beam(geo, (10.0, 10.0), ends)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.nbytes > 1e6 and peak < 0.05 * rows.nbytes


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=IDS)
@pytest.mark.parametrize("crossings", [1000, 1])  # down to one row per chunk
def test_chunked_walk_equals_unchunked(monkeypatch, geometry, rng, crossings):
    o, e = segment_arrays(oracle_beams(geometry, rng))
    whole, per_row = raycast._walk(geometry, o, e)
    monkeypatch.setattr(raycast, "WALK_CROSSINGS", crossings)
    chunked, chunked_rows = raycast._walk(geometry, o, e)
    assert chunked.shape == whole.shape and chunked.tobytes() == whole.tobytes()
    assert per_row.tolist() == (whole["cell"] >= 0).sum(axis=1).tolist()
    assert chunked_rows.tolist() == per_row.tolist()


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
        expected = {flat(geometry, 5, 5), flat(geometry, 4, 5),
                    flat(geometry, 6, 5), flat(geometry, 5, 4),
                    flat(geometry, 5, 6)}
        assert cells == expected

    def test_centre_on_the_rim_is_inside(self):
        # binary-exact centres: the four edge neighbours lie exactly on the rim
        geo = GridGeometry(0.0, 0.0, 0.5, 8, 8)
        cells = set(error_region_cells(geo, geo.cell_center(3, 3), 0.5))
        assert cells == {flat(geo, 3, 3), flat(geo, 2, 3), flat(geo, 4, 3),
                         flat(geo, 3, 2), flat(geo, 3, 4)}

    def test_tiny_disk_single_cell(self, geometry):
        center = geometry.cell_center(2, 7)
        cells = error_region_cells(geometry, center, 0.04)
        assert list(cells) == [flat(geometry, 2, 7)]

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
                x, y = geometry.cell_center(*divmod(i, geometry.n_cols)[::-1])
                inside = (x - cx) ** 2 + (y - cy) ** 2 <= radius ** 2
                assert (i in cells) == inside
