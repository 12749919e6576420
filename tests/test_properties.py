"""Property-based checks of the numerical invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import counts_grid, crossing_of
from lambdafield import (BayesGrid, GridGeometry, LambdaGrid, PathCrossing,
                         RobotShape, SensorModel, expected_risk,
                         naive_path_probability, path_collision_probability,
                         swept_cells, trace_beam)
from lambdafield.field import _from_counts

lambdas = st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12)
areas = st.lists(st.floats(1e-3, 0.1), min_size=1, max_size=12)


def crossing_from(lams, ars):
    n = min(len(lams), len(ars))
    return crossing_of(lams[:n], ars[:n])


@given(lambdas, areas, st.integers(2, 5))
def test_subdivision_invariance(lams, ars, k):
    """k-fold uniform subdivision with preserved intensity leaves the
    integrated intensity and collision probability unchanged."""
    coarse = crossing_from(lams, ars)
    fine = crossing_of(np.repeat(coarse.lam_mle, k),
                       np.repeat(coarse.areas / k, k))
    a = float(np.dot(coarse.areas, coarse.lam_mle))
    b = float(np.dot(fine.areas, fine.lam_mle))
    assert abs(a - b) < 1e-12 * max(1.0, a)
    assert abs(path_collision_probability(coarse)
               - path_collision_probability(fine)) < 1e-12


@given(st.integers(1, 200), st.floats(0.001, 1.0))
def test_lambda_from_count_strictly_increasing(total, error_area):
    ks = np.linspace(0.0, total - 1e-9, 25)
    vals = _from_counts(ks, np.full(25, float(total)), error_area, 1e9)
    assert all(a < b for a, b in zip(vals, vals[1:]))


@given(st.integers(0, 50), st.integers(1, 50))
def test_interval_ordering_follows_count_ordering(h, m):
    (low,), (high,) = counts_grid(h, m).bound_maps()
    assert low <= high


@given(lambdas, areas)
def test_pdf_nonnegative_cdf_bounded(lams, ars):
    from lambdafield import collision_pdf
    crossing = crossing_from(lams, ars)
    cum = crossing.cumulative_areas()
    cap = path_collision_probability(crossing)
    probes = np.linspace(0.0, cum[-1], 30)
    densities = [collision_pdf(crossing, float(a)) for a in probes]
    assert all(d >= 0.0 for d in densities)
    # CDF via the per-cell closed form is nondecreasing and below the cap
    exponents = crossing.areas * crossing.lam_mle
    survive = np.exp(-np.concatenate(([0.0], np.cumsum(exponents[:-1]))))
    cdf = np.cumsum(survive * -np.expm1(-exponents))
    assert (np.diff(cdf) >= -1e-15).all()
    assert cdf[-1] <= cap + 1e-12


@given(lambdas, areas, st.floats(0.0, 5.0))
def test_expected_risk_bounded_by_max_risk(lams, ars, r_const):
    crossing = crossing_from(lams, ars)
    risk = expected_risk(crossing, lambda a: r_const)
    cap = r_const * path_collision_probability(crossing)
    assert -1e-12 <= risk <= cap + 1e-12


@given(lambdas, areas, st.floats(0.0, 2.0))
def test_collision_probability_pointwise_monotone_in_lambda(lams, ars, bump):
    crossing = crossing_from(lams, ars)
    bumped = crossing_of(crossing.lam_mle + bump, crossing.areas)
    assert path_collision_probability(bumped) >= \
        path_collision_probability(crossing) - 1e-15


@given(lambdas, areas, st.floats(0.1, 3.0))
def test_constant_risk_monotone_in_bound(lams, ars, r_const):
    crossing = crossing_from(lams, ars)
    widened = PathCrossing(crossing.cells, crossing.areas,
                           crossing.lam_mle, crossing.lam_mle * 0.5,
                           crossing.lam_mle * 2.0 + 0.1)
    risks = [expected_risk(widened, lambda a: r_const, b)
             for b in ("lower", "mle", "upper")]
    assert risks[0] <= risks[1] + 1e-12
    assert risks[1] <= risks[2] + 1e-12


@settings(max_examples=50)
@given(st.floats(0.05, 3.95), st.floats(0.05, 3.95),
       st.floats(0.05, 3.95), st.floats(0.05, 3.95))
def test_trace_chords_sum_to_length(ox, oy, ex, ey):
    geo = GridGeometry(0.0, 0.0, 0.1, 40, 40)
    cells, = trace_beam(geo, (ox, oy), (ex, ey))
    total = sum(c for _, c in cells)
    assert all(c >= 0.0 for _, c in cells)
    assert abs(total - math.hypot(ex - ox, ey - oy)) < 1e-9


def refined_copy(grid):
    """Half-resolution grid with every parent's counts copied to its four
    children (identical intensity field, finer tessellation)."""
    geo = grid.geometry
    fine_geo = GridGeometry(geo.origin_x, geo.origin_y, geo.resolution / 2,
                            geo.n_cols * 2, geo.n_rows * 2)
    fine = LambdaGrid(fine_geo, grid.sensor, grid.lambda_max)
    h = grid.hits.reshape(geo.n_rows, geo.n_cols)
    m = grid.misses.reshape(geo.n_rows, geo.n_cols)
    fine.hits = np.repeat(np.repeat(h, 2, axis=0), 2, axis=1).reshape(-1).copy()
    fine.misses = np.repeat(np.repeat(m, 2, axis=0), 2, axis=1).reshape(-1).copy()
    return fine


def test_end_to_end_tessellation_invariance(rng):
    geo = GridGeometry(0.0, 0.0, 0.1, 40, 40)
    grid = LambdaGrid(geo, SensorModel())
    grid.hits[:] = rng.integers(0, 4, geo.n_cells)
    grid.misses[:] = rng.integers(1, 40, geo.n_cells)
    fine = refined_copy(grid)
    shape = RobotShape(0.3, 0.2, 20.0)
    poses = [(x, 1.37, 0.0) for x in np.arange(0.5, 3.0, 0.02)]
    p_coarse = path_collision_probability(swept_cells(grid, poses, shape))
    p_fine = path_collision_probability(swept_cells(fine, poses, shape))
    assert abs(p_coarse - p_fine) < 1e-9
    risk_fn = lambda a: 1.0 + a  # continuous risk profile
    r_coarse = expected_risk(swept_cells(grid, poses, shape), risk_fn)
    r_fine = expected_risk(swept_cells(fine, poses, shape), risk_fn)
    assert r_coarse == pytest.approx(r_fine, rel=0.01)


def test_bayes_depends_on_resolution_lambda_does_not():
    """The headline pairing: the naive product probability moves with the
    cell size while the intensity-field probability stays put."""
    p_cell = 0.1
    base_area = 0.04
    intensity = -math.log1p(-p_cell) / base_area
    region = 8 * base_area
    baseline = BayesGrid(GridGeometry(0.0, 0.0, 0.2, 16, 1))
    baseline.log_odds[:] = math.log(p_cell / (1.0 - p_cell))
    probs_naive = []
    probs_lambda = []
    for k in (1, 2):
        area = base_area / k
        n = int(round(region / area))
        crossing = crossing_of([intensity] * n, [area] * n)
        probs_lambda.append(path_collision_probability(crossing))
        probs_naive.append(naive_path_probability(baseline, np.arange(n)))
    assert abs(probs_lambda[0] - probs_lambda[1]) < 1e-9
    assert abs(probs_naive[0] - probs_naive[1]) > 0.05
