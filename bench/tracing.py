"""Traced run: wrap the package's public functions and turn spans into
per-layer metrics.

The wrappers are installed from the benchmark's own files, at every site a
function is reachable from: its home module, every ``lambdafield`` module
that imported the name (``sensor.trace_beam``, ``bayes.trace_beam``,
``planner.swept_cells``, the names ``cli`` imported, ...), methods on their
class and click command callbacks. Nothing is installed in an untraced run.

Spans live in compact in-memory arrays with a parent link and the op they
belong to, and are written out once, when the run ends. A span's self time
is its duration minus the durations of its direct children (one thread, so
children never overlap).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (span name, home module, attribute, counter). A dotted attribute names a
# method on a class in the home module.
FUNCTIONS = [
    ("raycast.trace_beam", "raycast", "trace_beam", "cells"),
    ("raycast.error_region_cells", "raycast", "error_region_cells", None),
    ("sensor.simulate_scan", "sensor", "simulate_scan", "beams"),
    ("sensor.apply_scan", "sensor", "apply_scan", None),
    ("bayes.bayes_scan", "bayes", "bayes_scan", None),
    ("field.lambda_map", "field", "LambdaGrid.lambda_map", None),
    ("field.bound_maps", "field", "LambdaGrid.bound_maps", None),
    ("field.add_counts", "field", "LambdaGrid.add_hits", None),
    ("field.add_counts", "field", "LambdaGrid.add_misses", None),
    ("geometry.flat_of_points", "geometry", "GridGeometry.flat_of_points", None),
    ("path.swept_cells", "path", "swept_cells", "cells"),
    ("path.expected_risk", "path", "expected_risk", None),
    ("path.collision_pdf", "path", "collision_pdf", None),
    ("planner.plan_step", "planner", "plan_step", None),
    ("planner.admissible_candidates", "planner", "admissible_candidates", "items"),
    ("planner.sample_arcs", "planner", "sample_arcs", "items"),
    ("io.save_lambda_grid", "io", "save_lambda_grid", "file"),
    ("io.save_bayes_grid", "io", "save_bayes_grid", "file"),
    ("io.export_lambda_csv", "io", "export_lambda_csv", "file"),
    ("io.export_bayes_csv", "io", "export_bayes_csv", "file"),
    ("io.export_pgm", "io", "export_lambda_pgm", "file"),
    ("io.export_pgm", "io", "export_bayes_pgm", "file"),
    ("io.save_scan_log", "io", "save_scan_log", "file0"),
    ("io.load_lambda_grid", "io", "load_lambda_grid", None),
    ("io.save_risk_report", "io", "save_risk_report", "file0"),
    ("cli.scenario_load", "cli", "Scenario.load", None),
]
# click commands: (span name, command name); the callback is wrapped
COMMANDS = [("cli.map", "map"), ("cli.eval_path", "eval-path")]

def _tally(counts: Counter, span: str, kind: str, args, result) -> None:
    if kind == "beams":
        counts[span + ":hits"] += sum(1 for beam in result if beam.hit)
    if kind in ("cells", "beams", "items"):
        counts[span + ":" + kind] += len(result)
    else:
        # io writers take (obj, path), except "file0" ones that take (path, ...)
        path = args[0] if kind == "file0" else args[1]
        counts["io.bytes"] += os.path.getsize(path)


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_error = array("b")
        self.counts: Counter = Counter()
        self.op = -1             # index of the op being traced
        self.active = False      # record only while an op runs, not its checks
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        pkg = self.package.__name__
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        for span, home, attr, counter in FUNCTIONS:
            owner = getattr(self.package, home)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span, raw.__func__, counter))
                else:
                    wrapped = self._wrap(span, raw, counter)
                self._set(cls, meth, wrapped)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original, counter)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper)
        group = self.package.cli.main
        for span, command in COMMANDS:
            cmd = group.commands[command]
            self._set(cmd, "callback", self._wrap(span, cmd.callback, None))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def _set(self, owner, name, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]
                              if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, span: str, fn, counter):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            self.span_error.append(0)
            self.span_end.append(0)
            stack.append(idx)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.span_error[idx] = 1
                raise
            finally:
                self.span_end[idx] = clock()
                stack.pop()
            if counter is not None:
                _tally(self.counts, span, counter, args, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "op": np.frombuffer(self.span_op, dtype=np.int32),
            "start_ns": np.frombuffer(self.span_start, dtype=np.int64),
            "end_ns": np.frombuffer(self.span_end, dtype=np.int64),
            "error": np.frombuffer(self.span_error, dtype=np.int8),
        }

    def write(self, path: Path) -> None:
        """All spans, with parent links, as a compressed numpy archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, errors, total and self time in ms."""
        a = self.arrays()
        n = len(a["name"])
        k = len(self.names)
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=n) if n else np.zeros(0)
        self_t = dur - child
        calls = np.bincount(a["name"], minlength=k)
        errors = np.bincount(a["name"], weights=a["error"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=self_t, minlength=k)
        return {name: {"calls": float(calls[i]), "errors": float(errors[i]),
                       "ms": total[i] / 1e6, "self_ms": own[i] / 1e6}
                for i, name in enumerate(self.names)}


def per_layer(tracer: Tracer, n_ops: int,
              measured: dict[str, float]) -> dict[str, float]:
    """Per-op layer metrics from the spans of ``n_ops`` traced ops, plus the
    ``measured`` figures that do not come from spans."""
    t = tracer.totals()
    c = tracer.counts
    per = 1.0 / max(n_ops, 1)

    def ratio(num, den):
        return num / den if den else 0.0

    def get(span, key):
        return t.get(span, {}).get(key, 0.0)

    sampled = c["planner.sample_arcs:items"]
    admissible = c["planner.admissible_candidates:items"]
    swept = get("path.swept_cells", "calls")
    out_of_grid = get("path.swept_cells", "errors")
    planner_self = sum(get(s, "self_ms") for s in (
        "planner.plan_step", "planner.admissible_candidates",
        "planner.sample_arcs"))
    m = {
        "raycast.trace_beam.calls": get("raycast.trace_beam", "calls") * per,
        "raycast.trace_beam.ms": get("raycast.trace_beam", "self_ms") * per,
        "raycast.cells_per_beam": ratio(c["raycast.trace_beam:cells"],
                                        get("raycast.trace_beam", "calls")),
        "raycast.error_region_cells.ms":
            get("raycast.error_region_cells", "self_ms") * per,
        "sensor.simulate_scan.ms": get("sensor.simulate_scan", "self_ms") * per,
        "sensor.apply_scan.ms": get("sensor.apply_scan", "self_ms") * per,
        "sensor.hit_share": ratio(c["sensor.simulate_scan:hits"],
                                  c["sensor.simulate_scan:beams"]),
        "bayes.bayes_scan.ms": get("bayes.bayes_scan", "self_ms") * per,
        "field.lambda_map.calls": get("field.lambda_map", "calls") * per,
        "field.lambda_map.ms": get("field.lambda_map", "ms") * per,
        "field.bound_maps.calls": get("field.bound_maps", "calls") * per,
        "field.bound_maps.ms": get("field.bound_maps", "ms") * per,
        "field.add_counts.ms": get("field.add_counts", "ms") * per,
        "geometry.flat_of_points.calls":
            get("geometry.flat_of_points", "calls") * per,
        "geometry.flat_of_points.ms": get("geometry.flat_of_points", "ms") * per,
        "path.swept_cells.calls": swept * per,
        "path.swept_cells.ms": get("path.swept_cells", "self_ms") * per,
        "path.cells_per_sweep": ratio(c["path.swept_cells:cells"],
                                      swept - out_of_grid),
        "path.expected_risk.ms": get("path.expected_risk", "ms") * per,
        "path.collision_pdf.calls": get("path.collision_pdf", "calls") * per,
        "path.collision_pdf.ms": get("path.collision_pdf", "ms") * per,
        "planner.arcs_sampled": sampled * per,
        "planner.arcs_out_of_grid": out_of_grid * per,
        "planner.arcs_over_budget": (sampled - out_of_grid - admissible) * per,
        "planner.admissible_ratio": ratio(admissible, sampled),
        "planner.plan_step.self_ms": planner_self * per,
        "io.save_lambda_grid.ms": get("io.save_lambda_grid", "self_ms") * per,
        "io.save_bayes_grid.ms": get("io.save_bayes_grid", "self_ms") * per,
        "io.export_lambda_csv.ms": get("io.export_lambda_csv", "self_ms") * per,
        "io.export_bayes_csv.ms": get("io.export_bayes_csv", "self_ms") * per,
        "io.export_pgm.ms": get("io.export_pgm", "self_ms") * per,
        "io.save_scan_log.ms": get("io.save_scan_log", "self_ms") * per,
        "io.load_lambda_grid.ms": get("io.load_lambda_grid", "self_ms") * per,
        "io.save_risk_report.ms": get("io.save_risk_report", "self_ms") * per,
        "io.bytes_written": c["io.bytes"] * per,
        "cli.scenario_load.ms": get("cli.scenario_load", "ms") * per,
        "cli.map.self_ms": get("cli.map", "self_ms") * per,
        "cli.eval_path.self_ms": get("cli.eval_path", "self_ms") * per,
        **measured,
    }
    return m
