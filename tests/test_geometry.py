import numpy as np
import pytest

from lambdafield import GridGeometry


def test_cell_area_is_resolution_squared():
    geo = GridGeometry(0.0, 0.0, 0.25, 4, 3)
    assert geo.cell_area == 0.25 ** 2


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        GridGeometry(0.0, 0.0, 0.0, 4, 4)
    with pytest.raises(ValueError):
        GridGeometry(0.0, 0.0, 0.1, 0, 4)


def test_world_cell_round_trip():
    geo = GridGeometry(-1.0, 2.0, 0.1, 30, 20)
    for col, row in [(0, 0), (7, 3), (29, 19)]:
        x, y = geo.cell_center(col, row)
        assert geo.cell_of(x, y) == (col, row)


def test_point_outside_raises():
    geo = GridGeometry(0.0, 0.0, 0.1, 10, 10)
    with pytest.raises(ValueError):
        geo.cell_of(1.5, 0.5)
    assert not geo.contains(-0.01, 0.5)
    assert geo.contains(0.0, 0.0)


def test_flat_round_trip():
    geo = GridGeometry(0.0, 0.0, 0.1, 7, 5)
    for i in range(geo.n_cells):
        col, row = geo.unflat(i)
        assert geo.flat(col, row) == i
    with pytest.raises(IndexError):
        geo.flat(7, 0)
    with pytest.raises(IndexError):
        geo.unflat(35)


def test_flat_of_points_vectorized_matches_scalar():
    geo = GridGeometry(0.5, -0.5, 0.2, 12, 9)
    rng = np.random.default_rng(0)
    xs = geo.origin_x + rng.random(50) * geo.width * 0.999
    ys = geo.origin_y + rng.random(50) * geo.height * 0.999
    flat = geo.flat_of_points(xs, ys)
    for x, y, f in zip(xs, ys, flat):
        assert geo.flat(*geo.cell_of(x, y)) == f
    with pytest.raises(ValueError):
        geo.flat_of_points(np.array([0.0]), np.array([0.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("geo", [GridGeometry(0.0, 0.0, 0.13, 88, 4),
                                 GridGeometry(-1.3, -1.3, 0.05, 42, 42)])
def test_one_point_to_cell_rule(geo):
    """``contains``, ``cell_of``, ``flat_or_outside`` and ``flat_of_points``
    agree one ulp below each upper edge, on each lower and upper edge, and
    on NaN and infinite coordinates, which are outside and raise no
    warning."""
    x_top = np.nextafter(geo.origin_x + geo.width, -np.inf)
    y_top = np.nextafter(geo.origin_y + geo.height, -np.inf)
    x_mid, y_mid = geo.cell_center(geo.n_cols // 2, geo.n_rows // 2)
    inside = [(x_top, y_mid), (x_mid, y_top), (x_top, y_top),
              (geo.origin_x, y_mid), (x_mid, geo.origin_y),
              (geo.origin_x, geo.origin_y)]
    odd = [np.nan, np.inf, -np.inf]
    outside = ([(v, y_mid) for v in odd] + [(x_mid, v) for v in odd]
               + [(geo.origin_x + geo.width, y_mid),
                  (x_mid, geo.origin_y + geo.height)])
    for x, y in inside + outside:
        xs, ys = np.array([x]), np.array([y])
        flat = geo.flat_or_outside(xs, ys)
        if geo.contains(x, y):
            assert flat.tolist() == [geo.flat(*geo.cell_of(x, y))]
            assert geo.flat_of_points(xs, ys).tolist() == flat.tolist()
        else:
            assert flat.tolist() == [-1]
            with pytest.raises(ValueError):
                geo.cell_of(x, y)
            with pytest.raises(ValueError):
                geo.flat_of_points(xs, ys)
    assert geo.contains(*np.transpose(inside)).all()
    assert not geo.contains(*np.transpose(outside)).any()
    assert geo.cell_of(x_top, y_top) == (geo.n_cols - 1, geo.n_rows - 1)
