import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from lambdafield.cli import main

SCENARIO = """
grid: {{origin: [0.0, 0.0], resolution: 0.1, cols: 40, rows: 40}}
sensor: {{max_range: 5.0}}
ground_truth:
  uniform: 0.0
  blocks:
    - {{box: [2.5, 0.0, 3.0, 4.0], value: 100.0}}
scan:
  poses: [[1.0, 2.0, 0.0], [1.5, 2.0, 0.0]]
  beams: 90
seed: 11
robot: {{width: 0.3, length: 0.4, mass: 20.0}}
planner: {{v_samples: 3, omega_samples: 3, max_steps: {max_steps}}}
"""


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def mapped(tmp_path_factory):
    """Output directory of one ``map`` run over the test scenario."""
    tmp = tmp_path_factory.mktemp("mapped")
    result = CliRunner().invoke(main, ["map", write_scenario(tmp),
                                       "-o", str(tmp / "out")])
    assert result.exit_code == 0, result.output
    return tmp / "out"


def write_scenario(tmp_path, max_steps=40):
    f = tmp_path / "scenario.yaml"
    f.write_text(SCENARIO.format(max_steps=max_steps))
    return str(f)


def write_path(tmp_path, xs, y):
    f = tmp_path / "path.csv"
    f.write_text("x,y,theta\n" + "".join(f"{x},{y},0.0\n" for x in xs))
    return str(f)


class TestMap:
    def test_outputs_written(self, runner, tmp_path):
        scen = write_scenario(tmp_path)
        result = runner.invoke(main, ["map", scen, "-o", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        for name in ["lambda_grid.dump", "bayes_grid.dump", "lambda_grid.csv",
                     "bayes_grid.csv", "lambda_grid.pgm", "bayes_grid.pgm",
                     "scans.csv"]:
            assert (tmp_path / "out" / name).exists()

    def test_same_seed_bitwise_identical(self, runner, tmp_path):
        scen = write_scenario(tmp_path)
        for sub in ("a", "b"):
            result = runner.invoke(main, ["map", scen, "--seed", "5",
                                          "-o", str(tmp_path / sub)])
            assert result.exit_code == 0, result.output
        for name in ["lambda_grid.dump", "bayes_grid.dump", "scans.csv"]:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_empty_pose_script_gives_prior_maps(self, runner, tmp_path):
        f = tmp_path / "scenario.yaml"
        f.write_text("grid: {cols: 10, rows: 10}\n")
        result = runner.invoke(main, ["map", str(f), "-o", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        dump = (tmp_path / "o" / "lambda_grid.dump").read_text()
        assert dump.count("\n0 0") == 100

    def test_invalid_scenario_exit_code(self, runner, tmp_path):
        f = tmp_path / "bad.yaml"
        f.write_text("grid: {cols: 0, rows: 10}\n")
        result = runner.invoke(main, ["map", str(f)])
        assert result.exit_code == 2


class TestSimulateScans:
    def test_scan_log_only(self, runner, tmp_path):
        scen = write_scenario(tmp_path)
        result = runner.invoke(main, ["simulate-scans", scen,
                                      "-o", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "scans.csv").exists()
        assert not (tmp_path / "out" / "lambda_grid.dump").exists()


class TestEvalPath:
    def test_summary_and_report(self, runner, tmp_path):
        scen = write_scenario(tmp_path)
        out = tmp_path / "out"
        assert runner.invoke(main, ["map", scen, "-o", str(out)]).exit_code == 0
        path = write_path(tmp_path, np.arange(1.0, 2.01, 0.05), 2.0)
        result = runner.invoke(main, ["eval-path",
                                      str(out / "lambda_grid.dump"), path,
                                      "-o", str(tmp_path / "eval")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "eval" / "risk_report.csv").exists()
        assert "P_coll" in result.output

    def test_unit_risk_equals_probability(self, runner, tmp_path):
        scen = write_scenario(tmp_path)
        out = tmp_path / "out"
        assert runner.invoke(main, ["map", scen, "-o", str(out)]).exit_code == 0
        path = write_path(tmp_path, np.arange(1.0, 2.4, 0.05), 2.0)
        result = runner.invoke(main, ["eval-path",
                                      str(out / "lambda_grid.dump"), path,
                                      "--unit-risk",
                                      "-o", str(tmp_path / "eval")])
        assert result.exit_code == 0, result.output
        lines = dict(line.split(" ", 1) for line in result.output.splitlines())
        assert float(lines["P_coll"]) == pytest.approx(float(lines["E_risk"]),
                                                       abs=1e-12)

    def test_bayes_engine(self, runner, tmp_path):
        scen = write_scenario(tmp_path)
        out = tmp_path / "out"
        assert runner.invoke(main, ["map", scen, "-o", str(out)]).exit_code == 0
        path = write_path(tmp_path, np.arange(1.0, 2.01, 0.05), 2.0)
        result = runner.invoke(main, ["eval-path",
                                      str(out / "bayes_grid.dump"), path,
                                      "--engine", "bayes",
                                      "-o", str(tmp_path / "eval")])
        assert result.exit_code == 0, result.output
        assert "P_coll" in result.output


def _with_first_row(text: str, marker: str, row: str) -> str:
    """Dump ``text`` with the first body row after ``marker`` set to ``row``."""
    head, body = text.split(f"\n{marker}\n", 1)
    return f"{head}\n{marker}\n{row}\n{body.split(chr(10), 1)[1]}"


# (case, dump, engine, edit of the dump text, path leaves the grid, exit code)
BAD_EVAL_INPUTS = [
    ("missing resolution line", "lambda_grid.dump", "lambda",
     lambda t: t.replace("resolution 0.1\n", ""), False, 3),
    ("truncated dump", "lambda_grid.dump", "lambda",
     lambda t: t[:3000], False, 3),
    ("negative count", "lambda_grid.dump", "lambda",
     lambda t: _with_first_row(t, "counts", "-1 5"), False, 3),
    ("non-finite log-odds", "bayes_grid.dump", "bayes",
     lambda t: _with_first_row(t, "logodds", "inf"), False, 3),
    ("path leaves the grid", "lambda_grid.dump", "lambda",
     lambda t: t, True, 2),
    ("path leaves the grid", "bayes_grid.dump", "bayes",
     lambda t: t, True, 2),
]


class TestEvalPathErrors:
    @pytest.mark.parametrize(
        "case,dump,engine,edit,leaves,code", BAD_EVAL_INPUTS,
        ids=[f"{e}: {c}" for c, _, e, _, _, _ in BAD_EVAL_INPUTS])
    def test_one_line_error_and_exit_code(self, case, dump, engine, edit,
                                          leaves, code, mapped, runner,
                                          tmp_path):
        f = tmp_path / dump
        f.write_text(edit((mapped / dump).read_text()))
        xs = np.arange(3.0, 4.51, 0.05) if leaves else np.arange(1.0, 2.01, 0.05)
        path = write_path(tmp_path, xs, 2.0)
        result = runner.invoke(main, ["eval-path", str(f), path,
                                      "--engine", engine,
                                      "-o", str(tmp_path / "eval")])
        assert result.exit_code == code, result.output
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


class TestPlan:
    def test_blocked_scenario_stops(self, runner, tmp_path):
        scen = write_scenario(tmp_path, max_steps=20)
        ref = write_path(tmp_path, np.arange(2.3, 3.5, 0.1), 2.0)
        out = tmp_path / "plan"
        result = runner.invoke(main, ["plan", scen, ref, "-o", str(out)])
        assert result.exit_code == 0, result.output
        log = (out / "planner_log.csv").read_text()
        assert log.strip().splitlines()[-1].endswith(",1")  # stopped flag

    def test_open_scenario_reaches_goal(self, runner, tmp_path):
        scen = write_scenario(tmp_path, max_steps=40)
        ref = write_path(tmp_path, np.arange(1.0, 2.01, 0.1), 2.0)
        out = tmp_path / "plan"
        result = runner.invoke(main, ["plan", scen, ref, "-o", str(out)])
        assert result.exit_code == 0, result.output
        trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1,
                           ndmin=2)
        assert math.hypot(trace[-1, 0] - 2.0, trace[-1, 1] - 2.0) <= 0.5
        log = (out / "planner_log.csv").read_text().strip().splitlines()[1:]
        risks = [float(line.split(",")[3]) for line in log
                 if not line.endswith(",1")]
        assert all(r <= 1.0 for r in risks)

    def test_same_seed_bitwise_identical(self, runner, tmp_path):
        scen = write_scenario(tmp_path, max_steps=10)
        ref = write_path(tmp_path, np.arange(1.0, 2.01, 0.1), 2.0)
        outputs = []
        for sub in ("p1", "p2"):
            out = tmp_path / sub
            result = runner.invoke(main, ["plan", scen, ref, "--seed", "3",
                                          "-o", str(out)])
            assert result.exit_code == 0, result.output
            outputs.append((out / "planner_log.csv").read_bytes()
                           + (out / "trace.csv").read_bytes())
        assert outputs[0] == outputs[1]


class TestCompare:
    def test_figure_one_tessellations(self, runner, tmp_path):
        coarse = math.sqrt(2) * 0.2
        result = runner.invoke(main, [
            "compare", "--base-prob", "0.1", "--base-resolution", "0.2",
            "--base-cells", "4", "--resolutions", f"0.2,{coarse}",
            "-o", str(tmp_path)])
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "compare.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 2
        (r1, pl1, pb1), (r2, pl2, pb2) = [r.split(",") for r in rows]
        assert float(pb1) == pytest.approx(0.3439, abs=1e-6)
        assert float(pb2) == pytest.approx(0.19, abs=1e-6)
        assert float(pl1) == pytest.approx(float(pl2), abs=1e-9)

    def test_row_per_resolution(self, runner, tmp_path):
        result = runner.invoke(main, ["compare", "--resolutions",
                                      "0.1,0.2,0.3,0.4", "-o", str(tmp_path)])
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "compare.csv").read_text().strip().splitlines()
        assert len(rows) == 5

    def test_bad_probability_exit_code(self, runner):
        result = runner.invoke(main, ["compare", "--base-prob", "1.5",
                                      "--resolutions", "0.1"])
        assert result.exit_code == 2
