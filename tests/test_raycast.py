import math

import numpy as np
import pytest

from lambdafield import GridGeometry, error_region_cells, trace_beam


class TestTraceBeam:
    def test_axis_aligned_unit_segment(self, geometry):
        cells = trace_beam(geometry, (0.0, 0.05), (1.0, 0.05))
        assert len(cells) == 10
        for i, (idx, chord) in enumerate(cells):
            assert idx == i
            assert chord == pytest.approx(0.1, abs=1e-12)

    def test_zero_length_segment(self, geometry):
        assert len(trace_beam(geometry, (0.5, 0.5), (0.5, 0.5))) == 0

    def test_diagonal_chord(self, geometry):
        cells = trace_beam(geometry, (0.2, 0.2), (0.3, 0.3))
        assert len(cells) == 1
        assert cells[0][1] == pytest.approx(0.1 * math.sqrt(2.0), abs=1e-12)

    def test_origin_outside_raises(self, geometry):
        with pytest.raises(ValueError):
            trace_beam(geometry, (-1.0, 0.5), (1.0, 0.5))

    def test_endpoint_clipped_to_grid(self, geometry):
        cells = trace_beam(geometry, (3.95, 2.05), (20.0, 2.05))
        total = sum(c for _, c in cells)
        assert total == pytest.approx(0.05, abs=1e-9)

    def test_chords_sum_to_segment_length(self, geometry, rng):
        for _ in range(200):
            ox, oy = rng.random(2) * 3.9 + 0.05
            ex, ey = rng.random(2) * 3.9 + 0.05
            cells = trace_beam(geometry, (ox, oy), (ex, ey))
            total = sum(c for _, c in cells)
            assert all(c >= 0 for _, c in cells)
            assert total == pytest.approx(math.hypot(ex - ox, ey - oy), abs=1e-9)

    def test_cells_ordered_from_origin(self, geometry):
        cells = trace_beam(geometry, (0.05, 0.05), (3.95, 3.95))
        # cells advance monotonically away from the origin
        prev = None
        for idx, _ in cells:
            col, row = geometry.unflat(idx)
            if prev is not None:
                dcol, drow = col - prev[0], row - prev[1]
                assert dcol in (0, 1) and drow in (0, 1) and dcol + drow >= 1
            prev = (col, row)


def incremental_walk(geometry: GridGeometry, origin: tuple[float, float],
                     endpoint: tuple[float, float]) -> list[tuple[int, float]]:
    """Oracle: the incremental line-through-grid walk (one boundary crossing
    per step) that ``trace_beam`` must equal bit for bit."""
    ox, oy = origin
    ex, ey = endpoint
    if not geometry.contains(ox, oy):
        raise ValueError(f"beam origin ({ox}, {oy}) outside grid")
    dx = ex - ox
    dy = ey - oy
    seg_len = math.hypot(dx, dy)
    if seg_len == 0.0:
        return []

    # clip the parameter range [0, t_end] to the grid box
    t_end = 1.0
    if dx > 0:
        t_end = min(t_end, (geometry.origin_x + geometry.width - ox) / dx)
    elif dx < 0:
        t_end = min(t_end, (geometry.origin_x - ox) / dx)
    if dy > 0:
        t_end = min(t_end, (geometry.origin_y + geometry.height - oy) / dy)
    elif dy < 0:
        t_end = min(t_end, (geometry.origin_y - oy) / dy)
    if t_end <= 0.0:
        return []

    col, row = geometry.cell_of(ox, oy)
    res = geometry.resolution

    step_col = 1 if dx > 0 else -1
    step_row = 1 if dy > 0 else -1
    t_delta_x = res / abs(dx) if dx != 0 else math.inf
    t_delta_y = res / abs(dy) if dy != 0 else math.inf

    if dx > 0:
        t_max_x = (geometry.origin_x + (col + 1) * res - ox) / dx
    elif dx < 0:
        t_max_x = (geometry.origin_x + col * res - ox) / dx
    else:
        t_max_x = math.inf
    if dy > 0:
        t_max_y = (geometry.origin_y + (row + 1) * res - oy) / dy
    elif dy < 0:
        t_max_y = (geometry.origin_y + row * res - oy) / dy
    else:
        t_max_y = math.inf

    out: list[tuple[int, float]] = []
    t_prev = 0.0
    while True:
        t_next = min(t_max_x, t_max_y, t_end)
        chord = (t_next - t_prev) * seg_len
        if chord > 1e-12 * seg_len:  # drop degenerate slivers at boundaries
            out.append((row * geometry.n_cols + col, chord))
        if t_next >= t_end:
            break
        if t_max_x <= t_max_y:
            col += step_col
            t_max_x += t_delta_x
        else:
            row += step_row
            t_max_y += t_delta_y
        if not (0 <= col < geometry.n_cols and 0 <= row < geometry.n_rows):
            break
        t_prev = t_next
    return out


def oracle_beams(geometry: GridGeometry, rng) -> list:
    """(origin, endpoint) pairs: random segments, beams at whole degrees and
    at multiples of 45 degrees from cell corners and cell centres, beams
    that leave the grid, zero-length and non-finite segments."""
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
                (math.inf, math.inf)):
        beams.append((centre, end))
    return beams


@pytest.mark.parametrize("geometry", [
    GridGeometry(0.0, 0.0, 0.1, 40, 40),
    GridGeometry(-1.25, 0.5, 0.05, 97, 31),
    GridGeometry(0.3, -2.0, 0.37, 13, 29)], ids=["0.1", "0.05", "0.37"])
def test_trace_beam_equals_incremental_walk(geometry, rng):
    for origin, end in oracle_beams(geometry, rng):
        walk = incremental_walk(geometry, origin, end)
        traced = trace_beam(geometry, origin, end)
        assert traced["cell"].tolist() == [i for i, _ in walk], (origin, end)
        assert traced["chord"].tolist() == [c for _, c in walk], (origin, end)


class TestErrorRegion:
    def test_disk_covers_plus_neighborhood(self, geometry):
        # edge neighbors at 0.1 < 0.1128, diagonals at 0.1414 excluded
        center = geometry.cell_center(5, 5)
        cells = set(error_region_cells(geometry, center, 0.1128))
        expected = {geometry.flat(5, 5), geometry.flat(4, 5), geometry.flat(6, 5),
                    geometry.flat(5, 4), geometry.flat(5, 6)}
        assert cells == expected

    def test_tiny_disk_single_cell(self, geometry):
        center = geometry.cell_center(2, 7)
        cells = error_region_cells(geometry, center, 0.04)
        assert list(cells) == [geometry.flat(2, 7)]

    def test_disk_fully_outside_grid(self, geometry):
        assert len(error_region_cells(geometry, (50.0, 50.0), 0.2)) == 0

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
