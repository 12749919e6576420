import math

import numpy as np
import pytest

from conftest import flat
from lambdafield import GridGeometry
from lambdafield.geometry import COORD_MAX


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        GridGeometry(0.0, 0.0, 0.0, 4, 4)
    with pytest.raises(ValueError):
        GridGeometry(0.0, 0.0, 0.1, 0, 4)


@pytest.mark.parametrize("cols,rows", [(4e9, 4e9), (4.0, 4), (4, "4"),
                                       (None, 4), (2, 2 ** 62), (2 ** 62, 2),
                                       (2 ** 32, 2 ** 31)])
def test_sizes_it_cannot_index_rejected(cols, rows):
    """A size that is not an integer, or n_cols * n_rows cells above the
    largest int64, raises ValueError."""
    with pytest.raises(ValueError):
        GridGeometry(0.0, 0.0, 0.05, cols, rows)


@pytest.mark.parametrize("resolution,cols,rows", [
    (math.inf, 20, 20), (math.nan, 20, 20), (-math.inf, 20, 20),
    (1e300, 10 ** 9, 10 ** 9), (1e300, 1, 10 ** 9), (1e300, 10 ** 9, 1)])
def test_non_finite_resolution_or_extent_rejected(resolution, cols, rows):
    with pytest.raises(ValueError):
        GridGeometry(0.0, 0.0, resolution, cols, rows)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x,y", [(1.7e308, 0.0), (0.0, 1.7e308), (math.nan, 0.0),
                                 (0.0, math.inf), (-math.inf, 0.0)])
def test_far_edge_must_be_finite(x, y):
    """An origin that is not finite, or a finite origin whose far edge
    overflows, raises ValueError and no warning; a box with its edges at
    +-COORD_MAX is accepted."""
    with pytest.raises(ValueError, match="far edges"):
        GridGeometry(x, y, 1e306, 20, 20)
    assert GridGeometry(-COORD_MAX, COORD_MAX - 2 ** 480, 2 ** 475, 32, 32).contains(
        -COORD_MAX, COORD_MAX - 2 ** 480)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x,y,resolution", [
    (1e200, 0.0, 1e190), (0.0, -1e200, 1e190), (COORD_MAX, 0.0, 2 ** 450),
    (-COORD_MAX * (1 + 2 ** -52), 0.0, 1.0), (0.0, COORD_MAX - 2 ** 480, 2 ** 476)])
def test_edges_beyond_coord_max_rejected(x, y, resolution):
    """A box with its origin or a far edge beyond +-COORD_MAX, where the
    square of a difference of coordinates may overflow, raises ValueError
    and no warning."""
    with pytest.raises(ValueError, match="far edges within"):
        GridGeometry(x, y, resolution, 40, 40)


def test_numpy_and_largest_sizes_accepted():
    geo = GridGeometry(0.0, 0.0, 0.1, np.int64(4), np.uint8(3))
    assert geo.n_cells == 12
    assert GridGeometry(0.0, 0.0, 0.05, 2, 2 ** 62 - 1).n_cells == 2 ** 63 - 2
    assert GridGeometry(0.0, 0.0, 0.05, 1, 2 ** 63 - 1).n_cells == 2 ** 63 - 1


def test_cell_center_on_arrays_equals_scalar_calls():
    """``cell_center`` of arrays, with broadcasting, equals its calls on
    each (col, row) bit for bit, also for the -1 padding cell that
    ``apply_scan`` passes to ``raycast.centre_in_disk``."""
    geo = GridGeometry(-1.3, 0.7, 0.37, 13, 29)
    cells = np.array([-1, 0, 1, 12, 13, 200, geo.n_cells - 1])
    got = geo.cell_center(cells % geo.n_cols, cells // geo.n_cols)
    want = [geo.cell_center(c % geo.n_cols, c // geo.n_cols)
            for c in cells.tolist()]
    assert np.transpose(got).tobytes() == np.array(want).tobytes()
    cols, rows = np.arange(geo.n_cols)[:, None], np.arange(geo.n_rows)
    xs, ys = np.broadcast_arrays(*geo.cell_center(cols, rows))
    want = [[geo.cell_center(c, r) for r in range(geo.n_rows)]
            for c in range(geo.n_cols)]
    assert np.stack([xs, ys], axis=2).tobytes() == np.array(want).tobytes()


def test_world_cell_round_trip():
    geo = GridGeometry(-1.0, 2.0, 0.1, 30, 20)
    for col, row in [(0, 0), (7, 3), (29, 19)]:
        x, y = geo.cell_center(col, row)
        assert geo.flat_of_points(x, y) == flat(geo, col, row)


def test_point_outside_raises():
    geo = GridGeometry(0.0, 0.0, 0.1, 10, 10)
    with pytest.raises(ValueError):
        geo.flat_of_points(1.5, 0.5)
    assert geo.flat_or_outside(1.5, 0.5) == -1
    assert not geo.contains(-0.01, 0.5)
    assert geo.contains(0.0, 0.0)


def test_flat_of_points_vectorized_matches_scalar():
    """Inside, a point's cell is its offset from the origin in cells,
    truncated; the vectorized lookups equal their scalar calls."""
    geo = GridGeometry(0.5, -0.5, 0.2, 12, 9)
    rng = np.random.default_rng(0)
    xs = geo.origin_x + rng.random(50) * geo.width * 0.999
    ys = geo.origin_y + rng.random(50) * geo.height * 0.999
    got = geo.flat_of_points(xs, ys)
    assert got.tolist() == geo.flat_or_outside(xs, ys).tolist()
    for x, y, f in zip(xs.tolist(), ys.tolist(), got.tolist()):
        assert f == flat(geo, int((x - geo.origin_x) / geo.resolution),
                         int((y - geo.origin_y) / geo.resolution))
        assert geo.flat_of_points(x, y) == geo.flat_or_outside(x, y) == f
    with pytest.raises(ValueError):
        geo.flat_of_points(np.array([0.0]), np.array([0.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("geo", [GridGeometry(0.0, 0.0, 0.13, 88, 4),
                                 GridGeometry(-1.3, -1.3, 0.05, 42, 42)])
def test_one_point_to_cell_rule(geo):
    """``contains``, ``flat_or_outside`` and ``flat_of_points`` agree one ulp
    below each upper edge, on each lower and upper edge, and on NaN and
    infinite coordinates, which are outside and raise no warning. The ulp
    below an upper edge lies in the last cell."""
    x_top = np.nextafter(geo.origin_x + geo.width, -np.inf)
    y_top = np.nextafter(geo.origin_y + geo.height, -np.inf)
    mid_col, mid_row = geo.n_cols // 2, geo.n_rows // 2
    last_col, last_row = geo.n_cols - 1, geo.n_rows - 1
    x_mid, y_mid = geo.cell_center(mid_col, mid_row)
    inside = {(x_top, y_mid): (last_col, mid_row),
              (x_mid, y_top): (mid_col, last_row),
              (x_top, y_top): (last_col, last_row),
              (geo.origin_x, y_mid): (0, mid_row),
              (x_mid, geo.origin_y): (mid_col, 0),
              (geo.origin_x, geo.origin_y): (0, 0)}
    odd = [np.nan, np.inf, -np.inf]
    outside = ([(v, y_mid) for v in odd] + [(x_mid, v) for v in odd]
               + [(geo.origin_x + geo.width, y_mid),
                  (x_mid, geo.origin_y + geo.height)])
    for (x, y), (col, row) in inside.items():
        xs, ys = np.array([x]), np.array([y])
        assert geo.flat_or_outside(xs, ys).tolist() == [flat(geo, col, row)]
        assert geo.flat_of_points(xs, ys).tolist() == [flat(geo, col, row)]
    for x, y in outside:
        xs, ys = np.array([x]), np.array([y])
        assert geo.flat_or_outside(xs, ys).tolist() == [-1]
        with pytest.raises(ValueError):
            geo.flat_of_points(xs, ys)
    assert geo.contains(*np.transpose(list(inside))).all()
    assert not geo.contains(*np.transpose(outside)).any()
