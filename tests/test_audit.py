"""Audit of the risk gate against the ground truth that the scans came from.

The simulator and the path law give an intensity one meaning: a footprint
that crosses area a collides with probability 1 - exp(-a * lambda). So an
admitted arc's true exposure Lambda is the sum of its swept areas times the
true intensities at its swept cells, and its true risk is ``expected_risk``
over those intensities. The gate admits an arc whose upper-bound risk is
within the budget; if the upper intensity bound were a one-sided 95% bound
on the path, at most 5% of the admitted arcs that cross matter would have a
true Lambda above the gate's bound (the sum of areas times the upper cell
bounds).

Each world is mapped by seeded scans from random poses, then planned from
random poses toward a 2 m straight reference. Only public functions are
called. Per world the audit reports the share of admitted matter-crossing
arcs whose true Lambda exceeds the gate's Lambda bound, the share whose true
risk exceeds the budget, and the share of cycles with an admitted arc.
"""

import math

import numpy as np
import pytest

from lambdafield import (GridGeometry, GroundTruthMap, LambdaGrid, PathCrossing,
                         PlannerConfig, RobotShape, SensorModel, apply_scan,
                         constant_velocity, expected_risk, momentum_risk,
                         simulate_scan)
from lambdafield.path import sweep_footprint
from lambdafield.planner import admissible_candidates

# The bar, declared before the audit ran: at most 5% of the admitted
# matter-crossing arcs above the gate's bound, plus a Monte Carlo slack of
# three binomial standard errors at 5% over the arcs counted.
BOUND_SHARE = 0.05
SLACK_SE = 3.0


def world(kind: str, rng) -> GroundTruthMap:
    """4 x 4 m at 0.05 m: square patches of sparse matter, or hard blocks."""
    geometry = GridGeometry(0.0, 0.0, 0.05, 80, 80)
    truth = GroundTruthMap.uniform(geometry, 0.0)
    if kind == "sparse":  # 16 patches of 0.3-1 m at 2 /m^2 * U(0.5, 1.5)
        for _ in range(16):
            side = rng.uniform(0.3, 1.0)
            x, y = rng.uniform(0.2, 3.8 - side, 2)
            truth.set_block(x, y, x + side, y + side, 2.0 * rng.uniform(0.5, 1.5))
    else:  # 8 blocks of 0.3-0.6 m at 80 /m^2
        for _ in range(8):
            side = rng.uniform(0.3, 0.6)
            x, y = rng.uniform(0.5, 3.5 - side, 2)
            truth.set_block(x, y, x + side, y + side, 80.0)
    return truth


def audit(kind: str, cycles: int, seed: int = 1, scans: int = 10) -> dict:
    rng = np.random.default_rng(seed)
    truth = world(kind, rng)
    geometry, sensor = truth.geometry, SensorModel(max_range=5.0)
    grid = LambdaGrid(geometry, sensor)
    for _ in range(scans):
        pose = (*rng.uniform(0.3, 3.7, 2), 0.0)
        apply_scan(grid, simulate_scan(truth, pose, sensor, 360, rng), sensor)
    shape, config = RobotShape(), PlannerConfig()
    arcs = above_bound = over_budget = moved = 0
    for _ in range(cycles):
        x, y, theta = *rng.uniform(0.8, 3.2, 2), rng.uniform(-math.pi, math.pi)
        s = np.arange(0.0, 2.0, 0.05)
        reference = np.stack([x + s * math.cos(theta), y + s * math.sin(theta),
                              np.full_like(s, theta)], axis=1)
        admitted = admissible_candidates(grid, (x, y, theta), reference, shape,
                                         config)
        moved += bool(admitted)
        for cand in admitted:
            cells, areas = sweep_footprint(geometry, cand.poses, shape.width)
            lam = truth.intensities[cells]
            if not (lam > 0).any():
                continue
            arcs += 1
            high = grid.bound_maps(cells)[1]
            above_bound += float(areas @ lam) > float(areas @ high)
            true = PathCrossing(cells, areas, lam, lam, lam)
            risk = momentum_risk(shape, constant_velocity(cand.v))
            over_budget += expected_risk(true, risk) > config.max_risk
    return {"arcs": arcs, "above_bound": above_bound / max(arcs, 1),
            "over_budget": over_budget / max(arcs, 1), "moved": moved / cycles}


@pytest.fixture(scope="module", params=[("sparse", 100), ("hard", 250)],
                ids=["sparse", "hard"])
def report(request):
    kind, cycles = request.param  # hard blocks admit few arcs into matter
    result = audit(kind, cycles=cycles)
    print(f"\naudit {kind}: {result}")
    return result


def test_audit_worlds_admit_arcs_that_cross_matter(report):
    """The audit has arcs to judge: the planner moves in some cycles, and
    admits arcs that cross matter."""
    assert report["moved"] > 0.2 and report["arcs"] >= 30


@pytest.mark.xfail(strict=True, reason="40% (sparse) and 30% (hard) of the "
                   "admitted matter-crossing arcs exceed the gate's bound today "
                   "(ROADMAP item 1 measured 35-43%): the cell bounds cover far "
                   "less than 95% (item 2), and a sum of cell bounds is no path "
                   "bound (item 3)")
def test_gate_bound_holds_against_the_truth(report):
    bar = BOUND_SHARE + SLACK_SE * math.sqrt(
        BOUND_SHARE * (1 - BOUND_SHARE) / report["arcs"])
    assert report["above_bound"] <= bar, report
