"""End-to-end acceptance checks.

Each test prints a single pass/fail line on the terminal (bypassing capture)
so a plain pytest run doubles as an acceptance report.
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.optimize import minimize_scalar

from conftest import counts_grid, crossing_of, flat
from lambdafield import (BayesGrid, GridGeometry, GroundTruthMap, LambdaGrid,
                         PlannerConfig, RobotShape, SensorModel, apply_scan,
                         bayes_scan, collision_pdf, expected_risk,
                         momentum_risk, naive_path_probability,
                         path_collision_probability, plan_step, run_episode,
                         simulate_scan)
from lambdafield.cli import main as cli_main


@pytest.fixture
def report(capsys):
    def _report(number, label, ok, detail=""):
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            print(f"[acceptance {number:2d}] {status}  {label}  {detail}")
        assert ok, f"criterion {number} ({label}): {detail}"
    return _report


def random_crossing(rng, max_cells=15):
    n = int(rng.integers(1, max_cells + 1))
    lam = rng.uniform(0.1, 8.0, n)
    areas = rng.uniform(0.005, 0.08, n)
    return crossing_of(lam, areas)


def test_01_naive_probability_depends_on_tessellation(report):
    start = time.perf_counter()
    p_cell = 0.1
    base_area = 0.04
    intensity = -math.log1p(-p_cell) / base_area
    # same physical region carved into 4 cells vs 2 coarser cells; the
    # baseline re-estimates occupancy 0.1 per cell at either size
    baseline = BayesGrid(GridGeometry(0.0, 0.0, 0.2, 4, 1))
    baseline.log_odds[:] = math.log(p_cell / (1.0 - p_cell))
    p_naive_4 = naive_path_probability(baseline, [0, 1, 2, 3])
    p_naive_2 = naive_path_probability(baseline, [0, 1])
    four = crossing_of([intensity] * 4, [base_area] * 4)
    two = crossing_of([intensity] * 2, [2 * base_area] * 2)
    p_field_4 = path_collision_probability(four)
    p_field_2 = path_collision_probability(two)
    elapsed = time.perf_counter() - start
    ok = (abs(p_naive_4 - 0.3439) < 1e-6 and abs(p_naive_2 - 0.19) < 1e-6
          and abs(p_field_4 - p_field_2) < 1e-9 and elapsed < 1.0)
    report(1, "tessellation dependence of the naive baseline", ok,
           f"naive {p_naive_4:.4f}/{p_naive_2:.4f}, "
           f"field delta {abs(p_field_4 - p_field_2):.1e}, {elapsed:.3f}s")


def test_02_uniform_path_collision_probability(report):
    start = time.perf_counter()
    lam = np.full(59, 0.1)
    lam[58] = 2.0
    crossing = crossing_of(lam, np.full(59, 0.04))
    p = path_collision_probability(crossing)
    elapsed = time.perf_counter() - start
    expected = -math.expm1(-0.312)
    ok = (abs(p - expected) < 1e-12 and abs(p - 0.27) <= 0.005
          and elapsed < 1.0)
    report(2, "59-cell path probability", ok,
           f"P = {p:.4f} vs 0.2680, {elapsed:.3f}s")


def test_03_closed_form_matches_numeric_maximization(report):
    """Closed-form per-cell estimate vs bounded numeric maximization of the
    separable approximate log-likelihood, plus its derivative at the optimum."""
    rng = np.random.default_rng(7)
    sensor = SensorModel()
    e = sensor.error_area
    area = 0.01   # of a cell
    worst_gap = 0.0
    worst_grad = 0.0
    scenarios = 0
    while scenarios < 100:
        n_cells = int(rng.integers(1, 6))
        n_beams = int(rng.integers(n_cells + 1, 51))
        hits = np.zeros(n_cells, dtype=int)
        misses = np.zeros(n_cells, dtype=int)
        for _ in range(n_beams):
            depth = int(rng.integers(1, n_cells + 1))
            misses[: depth - 1] += 1
            if rng.random() < 0.4:
                hits[depth - 1] += 1
            else:
                misses[depth - 1] += 1
        if (hits == 0).any() or (misses == 0).any():
            continue  # keep the optimum interior so the gradient vanishes
        scenarios += 1
        for h, m, closed in zip(hits, misses,
                                counts_grid(hits, misses, sensor).lambda_map()):
            def neg_loglik(lam):
                return (m * area * lam
                        - h * (area / e) * math.log(-math.expm1(-e * lam)))

            res = minimize_scalar(neg_loglik, bounds=(1e-9, 200.0),
                                  method="bounded",
                                  options={"xatol": 1e-10})
            grad = -m * area + h * area / math.expm1(e * closed)
            worst_gap = max(worst_gap, abs(res.x - closed))
            worst_grad = max(worst_grad, abs(grad))
    ok = worst_gap < 1e-6 and worst_grad < 1e-9
    report(3, "closed-form estimate vs numeric maximization", ok,
           f"max |gap| {worst_gap:.2e}, max |grad| {worst_grad:.2e}")


def test_04_interval_widens_at_misread_then_reconverges(report):
    start = time.perf_counter()
    sensor = SensorModel(0.99, 0.9999, 0.04)
    # cell i holds the counts after reading i + 1
    readings = np.arange(1, 101)
    hits = (readings >= 40).astype(np.int64)
    low, high = counts_grid(hits, readings - hits, sensor).bound_maps()
    widths = high - low
    elapsed = time.perf_counter() - start
    ok = widths[38] < widths[40] and widths[99] < widths[40] and elapsed < 1.0
    report(4, "interval widens at misread and re-converges", ok,
           f"w39 {widths[38]:.3f} < w41 {widths[40]:.3f} > w100 "
           f"{widths[99]:.3f}, {elapsed:.3f}s")


def test_05_density_integrates_to_collision_probability(report):
    from scipy.integrate import quad
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        crossing = random_crossing(rng)
        cum = crossing.cumulative_areas()
        total = 0.0
        # integrate the piecewise exponential cell by cell
        for lo, hi in zip(cum[:-1], cum[1:]):
            val, _ = quad(lambda a: collision_pdf(crossing, a), lo, hi,
                          epsabs=1e-13, epsrel=1e-13)
            total += val
        worst = max(worst, abs(total - path_collision_probability(crossing)))
    ok = worst < 1e-8
    report(5, "density quadrature equals collision probability", ok,
           f"max |error| {worst:.2e}")


def test_06_unit_risk_equals_collision_probability(report):
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        crossing = random_crossing(rng)
        gap = abs(expected_risk(crossing, lambda a: 1.0)
                  - path_collision_probability(crossing))
        worst = max(worst, gap)
    ok = worst < 1e-12
    report(6, "unit risk reduces to collision probability", ok,
           f"max |gap| {worst:.2e}")


def test_07_monte_carlo_matches_expected_momentum_risk(report):
    start = time.perf_counter()
    rng = np.random.default_rng(17)
    shape = RobotShape(0.4, 0.5, 20.0)
    risk_fn = momentum_risk(shape, lambda s: 0.3 + 0.2 * s)
    n_draws = 1_000_000
    chunk = 100_000
    worst_sigmas = 0.0
    for _ in range(20):
        crossing = random_crossing(rng)
        closed = expected_risk(crossing, risk_fn)
        cum = crossing.cumulative_areas()
        p_stop = -np.expm1(-crossing.areas * crossing.lam_mle)
        r_at = np.array([risk_fn(float(a)) for a in cum[:-1]])
        total = 0.0
        total_sq = 0.0
        for _ in range(n_draws // chunk):
            u = rng.random((chunk, len(crossing)))
            hit = u < p_stop
            collided = hit.any(axis=1)
            samples = np.where(collided, r_at[hit.argmax(axis=1)], 0.0)
            total += samples.sum()
            total_sq += (samples * samples).sum()
        mean = total / n_draws
        var = max(total_sq / n_draws - mean * mean, 0.0)
        se = math.sqrt(var / n_draws)
        worst_sigmas = max(worst_sigmas, abs(closed - mean) / max(se, 1e-300))
    elapsed = time.perf_counter() - start
    ok = worst_sigmas <= 3.0 and elapsed < 30.0
    report(7, "closed-form risk vs Monte-Carlo simulation", ok,
           f"worst deviation {worst_sigmas:.2f} sigma, {elapsed:.1f}s")


def test_08_sparse_obstacle_retained_where_baseline_erases_it(report):
    geo = GridGeometry(0.0, 0.0, 0.1, 60, 60)
    sensor = SensorModel(max_range=5.0)
    truth = GroundTruthMap.uniform(geo, 0.0)
    truth.set_block(3.5, 2.0, 4.5, 4.0, 2.0)  # semi-transparent matter
    grid = LambdaGrid(geo, sensor)
    bayes = BayesGrid(geo)
    rng = np.random.default_rng(19)
    vantage = [(2.0, 3.0, 0.0), (4.0, 1.2, 0.0), (4.0, 4.8, 0.0),
               (5.5, 3.0, 0.0), (2.0, 1.5, 0.0)]
    for s in range(500):
        beams = simulate_scan(truth, vantage[s % len(vantage)], sensor, 90, rng)
        apply_scan(grid, beams, sensor)
        bayes_scan(bayes, beams, sensor)
    region = np.nonzero(truth.intensities == 2.0)[0]
    observed = region[(grid.hits[region] + grid.misses[region]) > 0]
    retained = float((grid.lambda_map()[observed] > 0.5).mean())
    erased = float((bayes.occupancy()[observed] < 0.5).mean())
    ok = retained > 0.9 and erased > 0.5
    report(8, "sparse obstacle retained against averaging baseline", ok,
           f"intensity kept {retained:.1%}, baseline below 0.5 for "
           f"{erased:.1%} of {len(observed)} observed cells")


def test_09_planner_stops_when_blocked_and_stays_under_budget(report):
    geo = GridGeometry(0.0, 0.0, 0.1, 100, 40)
    shape = RobotShape(0.4, 0.6, 20.0)
    cfg = PlannerConfig(max_risk=1.0)
    ref = np.array([[x, 2.0, 0.0] for x in np.arange(1.0, 6.01, 0.1)])

    blocked = LambdaGrid(geo, SensorModel())
    blocked.misses[:] = 100
    for col in range(20, 26):
        for row in range(0, 40):
            i = flat(geo, col, row)
            blocked.hits[i] = 100
            blocked.misses[i] = 0
    stop = plan_step(blocked, (1.95, 2.0, 0.0), ref, shape, cfg)

    open_grid = LambdaGrid(geo, SensorModel())
    open_grid.misses[:] = 100
    log, trace = run_episode(open_grid, (1.0, 2.0, 0.0), ref, shape, cfg,
                             max_steps=60)
    executed = [s for s in log if not s.stopped]
    dist = float(np.hypot(trace[-1][0] - 6.0, trace[-1][1] - 2.0))
    ok = (stop is None and len(executed) > 0
          and all(s.risk_upper <= 1.0 for s in executed) and dist <= 0.5)
    report(9, "planner stops when blocked, reaches goal when open", ok,
           f"blocked -> {'STOP' if stop is None else 'moved'}, "
           f"goal distance {dist:.2f} m, "
           f"max step risk {max(s.risk_upper for s in executed):.3f}")


SCENARIO = """
grid: {origin: [0.0, 0.0], resolution: 0.1, cols: 40, rows: 40}
sensor: {max_range: 5.0}
ground_truth:
  uniform: 0.0
  blocks:
    - {box: [2.5, 0.0, 3.0, 4.0], value: 100.0}
scan:
  poses: [[1.0, 2.0, 0.0], [1.5, 2.0, 0.0]]
  beams: 90
seed: 11
robot: {width: 0.3, length: 0.4, mass: 20.0}
planner: {v_samples: 3, omega_samples: 3, max_steps: 15}
"""


def test_10_command_line_runs_are_bitwise_deterministic(report, tmp_path):
    runner = CliRunner()
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SCENARIO)
    reference = tmp_path / "reference.csv"
    reference.write_text("x,y,theta\n"
                         + "".join(f"{x:.1f},2.0,0.0\n"
                                   for x in np.arange(1.0, 2.01, 0.1)))
    outputs = {"map": [], "plan": []}
    for run in ("first", "second"):
        map_out = tmp_path / f"map_{run}"
        result = runner.invoke(cli_main, ["map", str(scenario), "--seed", "5",
                                          "-o", str(map_out)])
        assert result.exit_code == 0, result.output
        outputs["map"].append(b"".join(
            sorted(p.read_bytes() for p in map_out.iterdir())))
        plan_out = tmp_path / f"plan_{run}"
        result = runner.invoke(cli_main, ["plan", str(scenario),
                                          str(reference), "--seed", "5",
                                          "-o", str(plan_out)])
        assert result.exit_code == 0, result.output
        outputs["plan"].append(b"".join(
            sorted(p.read_bytes() for p in plan_out.iterdir())))
    ok = (outputs["map"][0] == outputs["map"][1]
          and outputs["plan"][0] == outputs["plan"][1])
    report(10, "seeded command runs are bitwise identical", ok,
           f"map {len(outputs['map'][0])} bytes, "
           f"plan {len(outputs['plan'][0])} bytes")
