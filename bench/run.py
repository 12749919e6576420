#!/usr/bin/env python3
"""lambdafield benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload map-400 --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory and nowhere else. The run sets the workload up several times
(the median is ``setup_s``), then calls its op in a closed loop, one op
after the other, until the ops have taken ``--seconds`` of wall time, and
checks every op's output. With ``--trace 1`` it measures half the time
untraced and half with the tracing wrappers installed, and reports the
per-layer metrics instead of the end-to-end ones. Human-readable lines come
first; the last line is one JSON object.
"""

from __future__ import annotations

import os

# one thread for every numeric library, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DECLARED = ROOT / "BENCHMARK.json"
MODULES = ("geometry", "field", "raycast", "sensor", "bayes", "path",
           "planner", "io", "cli")


def import_package():
    """Import lambdafield from this checkout's ``src/``; refuse any other copy."""
    if not (SRC / "lambdafield" / "__init__.py").is_file():
        sys.exit(f"error: no lambdafield sources under {SRC}")
    sys.path.insert(0, str(SRC))
    lf = importlib.import_module("lambdafield")
    if Path(lf.__file__).resolve().parent != SRC / "lambdafield":
        sys.exit(f"error: imported lambdafield from {lf.__file__}, not {SRC}")
    for name in MODULES:
        importlib.import_module("lambdafield." + name)
    return lf


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares, in the order it lists them."""
    declared = json.loads(DECLARED.read_text())
    return {m["name"]: m["unit"] for m in declared[kind]}


def measure(workload, budget_s: float, tracer=None, first_op: int = 0):
    """Closed loop: run ops until their summed wall time reaches the budget.

    Returns the latencies (ms) and extra timings of ops that succeeded, and
    the attempted and failed op counts. An op fails when it raises or its
    output check fails.
    """
    budget_ns = int(budget_s * 1e9)
    wall_limit = time.monotonic() + 3 * budget_s + 30   # checks are untimed
    busy = attempted = failed = 0
    lat_ms: list[float] = []
    parts: list[dict] = []
    while (busy < budget_ns or attempted == 0) and time.monotonic() < wall_limit:
        if tracer is not None:
            tracer.op = first_op + attempted
            tracer.active = True
        attempted += 1
        t0 = time.perf_counter_ns()
        try:
            out, extra = workload.op()
        except Exception:
            busy += time.perf_counter_ns() - t0
            failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        dt = time.perf_counter_ns() - t0
        busy += dt
        try:
            ok = workload.check(out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            failed += 1
            continue
        lat_ms.append(dt / 1e6)
        parts.append(extra)
    return lat_ms, parts, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cells", type=int, default=400,
                    help="grid side in cells (smaller for a smoke run)")
    args = ap.parse_args(argv)

    lf = import_package()
    import numpy as np
    sys.path.insert(0, str(HERE))
    from tracing import Tracer, per_layer
    from workloads import WORKLOADS, percentile

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload](lf, args.seed, args.cells, OUT)

    setup_s = []
    for _ in range(wl.setups):
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)
    wl.prepare_checks()

    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    lat, parts, attempted, failed = measure(wl, untraced_budget)
    if args.trace:
        tracer = Tracer(lf)
        tracer.install()
        try:
            t_lat, _, t_att, t_fail = measure(wl, args.seconds / 2, tracer,
                                              first_op=attempted)
        finally:
            tracer.uninstall()
        attempted += t_att
        failed += t_fail
    if not lat:
        sys.exit(f"error: no {wl.unit_name} of {wl.name} succeeded")
    failures = wl.finish()
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    failed += len(failures)
    quality = wl.quality()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"# workload {wl.name} seed {args.seed} seconds {args.seconds!r} "
          f"trace {args.trace}")
    print(f"# grid {args.cells}x{args.cells} python {platform.python_version()} "
          f"numpy {np.__version__} nproc {len(os.sched_getaffinity(0))}; "
          f"load: 1 process, 1 thread, closed loop of one {wl.unit_name} "
          f"after another")
    rows = wl.headline(lat, parts) + [
        ("setup_s", statistics.median(setup_s), "s", len(setup_s)),
        ("peak_rss_mb", rss_mb, "MB", 1),
        ("ops_failed", failed / attempted, "ratio", attempted),
    ]
    for name, value, unit, n in rows:
        print(f"{name:<14} {value:.6g} {unit} (n={n})")

    if args.trace:
        values = per_layer(tracer, t_att, {
            "field.bound_coverage": quality["bound_coverage"],
            "field.sparse_recall": quality["sparse_recall"],
            "trace.overhead": percentile(t_lat, 50) / percentile(lat, 50)
            if lat and t_lat else 0.0,
        })
        units = declared_units("per_layer")
        tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.npz")
        for name in units:
            print(f"{name:<32} {values[name]:.6g} {units[name]}")
    else:
        values = {"op_ms_p50": percentile(lat, 50),
                  "op_ms_p90": percentile(lat, 90),
                  "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": rss_mb}
        units = declared_units("end_to_end")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
