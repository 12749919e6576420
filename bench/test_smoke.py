"""Toy-size smoke runs of the benchmark: every workload, untraced and traced,
and proof that the output checks catch a wrong package.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TOY = ["--seed", "3", "--seconds", "0.5", "--cells", "160"]

sys.path.insert(0, str(HERE))
import run  # noqa: E402

LF = run.import_package()
from workloads import WORKLOADS  # noqa: E402


def run_bench(workload: str, trace: int, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--trace",
         str(trace), *TOY],
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_toy_run_is_correct_and_complete(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    if trace and workload == "plan-400":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        in_grid = m["planner.arcs_sampled"] - m["planner.arcs_out_of_grid"]
        assert m["field.bound_maps.calls"] == pytest.approx(in_grid)
        assert m["raycast.trace_beam.calls"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("map-400", 0, tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def checked_ops(name: str, workdir: Path, ops: int, patch=None) -> list[bool]:
    """Sets a toy workload up, applies ``patch`` and returns the check
    result of each of ``ops`` ops."""
    wl = WORKLOADS[name](LF, 3, 160, workdir)
    wl.setup()
    wl.prepare_checks()
    if patch is not None:
        patch()
    results = []
    for _ in range(ops):
        out, _ = wl.op()
        results.append(wl.check(out))
    return results


def test_checks_pass_on_the_package(tmp_path):
    assert all(checked_ops("map-400", tmp_path, 3))
    assert all(checked_ops("plan-400", tmp_path, 5))
    assert all(checked_ops("cli-400", tmp_path, 1))


def _drop_last_cell(monkeypatch, module):
    real = module.trace_beam
    monkeypatch.setattr(module, "trace_beam", lambda *a: real(*a)[:-1])


def test_map_check_catches_a_wrong_traversal(tmp_path, monkeypatch):
    assert not all(checked_ops(
        "map-400", tmp_path, 2,
        lambda: _drop_last_cell(monkeypatch, LF.sensor)))


def test_map_check_catches_a_wrong_log_odds_update(tmp_path, monkeypatch):
    assert not all(checked_ops(
        "map-400", tmp_path, 2,
        lambda: _drop_last_cell(monkeypatch, LF.bayes)))


def test_plan_check_catches_a_wrong_risk(tmp_path, monkeypatch):
    real = LF.planner.expected_risk
    assert not all(checked_ops(
        "plan-400", tmp_path, 5,
        lambda: monkeypatch.setattr(LF.planner, "expected_risk",
                                    lambda *a, **k: 0.9 * real(*a, **k))))


def _shift_sweep(monkeypatch, module):
    """Sweeps every path one cell to the east of where it is."""
    real = module.swept_cells
    monkeypatch.setattr(module, "swept_cells", lambda grid, poses, shape: real(
        grid, [(x + 0.05, y, th) for x, y, th in poses], shape))


def test_plan_check_catches_a_wrong_sweep(tmp_path, monkeypatch):
    assert not all(checked_ops(
        "plan-400", tmp_path, 5,
        lambda: _shift_sweep(monkeypatch, LF.planner)))


def test_cli_check_catches_a_wrong_dump(tmp_path, monkeypatch):
    assert not any(checked_ops(
        "cli-400", tmp_path, 1,
        lambda: _drop_last_cell(monkeypatch, LF.sensor)))


def test_cli_check_catches_a_wrong_sweep(tmp_path, monkeypatch):
    assert not any(checked_ops(
        "cli-400", tmp_path, 1,
        lambda: _shift_sweep(monkeypatch, LF.cli)))


def test_cli_nonzero_exit_fails_the_op(tmp_path, monkeypatch):
    def refuse(*args):
        raise OSError("disk full")
    with pytest.raises(RuntimeError, match="exited with"):
        checked_ops("cli-400", tmp_path, 1,
                    lambda: monkeypatch.setattr(LF.io, "save_risk_report",
                                                refuse))
