import csv
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from lambdafield import BayesGrid, GridGeometry, naive_path_probability
from lambdafield.cli import YAML_LOADER, main

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

    def test_scan_log_holds_numbers(self, mapped):
        """Every column of ``scans.csv`` reads as floats (the pose columns
        once held ``np.float64(...)`` reprs)."""
        with open(mapped / "scans.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        table = np.array(rows, dtype=np.float64)
        assert table.shape == (2 * 90, len(header)) and np.isfinite(table).all()

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
        """The Bayes engine prints P_coll, and ``--width`` changes it."""
        scen = write_scenario(tmp_path)
        out = tmp_path / "out"
        assert runner.invoke(main, ["map", scen, "-o", str(out)]).exit_code == 0
        path = write_path(tmp_path, np.arange(1.0, 2.01, 0.05), 2.0)
        printed = []
        for width in ("0.4", "0.1"):
            result = runner.invoke(main, ["eval-path",
                                          str(out / "bayes_grid.dump"), path,
                                          "--engine", "bayes", "--width", width,
                                          "-o", str(tmp_path / "eval")])
            assert result.exit_code == 0, result.output
            assert result.output.startswith("P_coll ")
            printed.append(result.output)
        assert printed[0] != printed[1]


def _with_first_row(text: str, marker: str, row: str) -> str:
    """Dump ``text`` with the first body row after ``marker`` set to ``row``."""
    head, body = text.split(f"\n{marker}\n", 1)
    return f"{head}\n{marker}\n{row}\n{body.split(chr(10), 1)[1]}"


def scenario(**blocks) -> str:
    """The test scenario with the given top-level blocks replaced."""
    return yaml.safe_dump({**yaml.safe_load(SCENARIO.format(max_steps=40)),
                           **blocks})


def path_text(xs, y=2.0) -> str:
    return "x,y,theta\n" + "".join(f"{x:.2f},{y},0.0\n" for x in xs)


def dump(name: str, edit=lambda t: t):
    """The ``name`` dump written by the ``mapped`` fixture, edited."""
    return lambda mapped: edit((mapped / name).read_text())


PATH = path_text(np.arange(1.0, 2.01, 0.05))
OFF_GRID_PATH = path_text(np.arange(3.0, 4.51, 0.05))
WITH_TRUTH_CSV = scenario(ground_truth={"file": "truth.csv"})
OFF_GRID_SCAN = scenario(scan={"poses": [[1.0, 2.0, 0.0], [5.0, 2.0, 0.0]]})

# a grid whose coordinates lie beyond +-2**500, where squared distances
# overflow, and a reference along it
FAR_GRID = scenario(grid={"origin": [1e200, 0.0], "resolution": 1e190,
                          "cols": 40, "rows": 40},
                    sensor={"max_range": 1e191}, ground_truth={"uniform": 1.0},
                    scan={"poses": [[1.0000000000000002e200, 2e191, 0.3]],
                          "beams": 8})
FAR_REF = "x,y,theta\n" + "".join(f"{1e200 + k * 1e191!r},2e191,0\n"
                                   for k in (0.2, 0.5, 0.8))

# (case, files written to the working directory as {name: text, or a
# function of the mapped output directory}, arguments, exit code)
BAD_INPUTS = [
    ("map: sensor key typo", {"s.yaml": scenario(sensor={"max_rang": 5.0})},
     "map s.yaml", 2),
    ("map: robot key typo", {"s.yaml": scenario(robot={"mas": 20.0})},
     "map s.yaml", 2),
    ("map: planner key typo", {"s.yaml": scenario(planner={"v_sample": 3})},
     "map s.yaml", 2),
    ("map: bayes p_occ_given_hit 0.3",
     {"s.yaml": scenario(bayes={"p_occ_given_hit": 0.3})}, "map s.yaml", 2),
    ("map: bayes clamp NaN", {"s.yaml": scenario(bayes={"clamp": math.nan})},
     "map s.yaml", 2),
    ("map: planner max_risk NaN",
     {"s.yaml": scenario(planner={"max_risk": math.nan})}, "map s.yaml", 2),
    ("map: robot mass NaN", {"s.yaml": scenario(robot={"mass": math.nan})},
     "map s.yaml", 2),
    ("map: lambda_max NaN", {"s.yaml": scenario(lambda_max=math.nan)},
     "map s.yaml", 2),
    ("map: sensor error_area NaN",
     {"s.yaml": scenario(sensor={"error_area": math.nan})}, "map s.yaml", 2),
    ("map: sensor error_area inf",
     {"s.yaml": scenario(sensor={"error_area": math.inf})}, "map s.yaml", 2),
    ("map: sensor max_range inf",
     {"s.yaml": scenario(sensor={"max_range": math.inf})}, "map s.yaml", 2),
    ("map: grid resolution inf",
     {"s.yaml": scenario(grid={"resolution": math.inf, "cols": 20, "rows": 20},
                         scan={"poses": [[1.0, 1.0, 0.0]], "beams": 8})},
     "map s.yaml", 2),
    ("map: grid cols 20.0",
     {"s.yaml": scenario(grid={"cols": 20.0, "rows": 20})}, "map s.yaml", 2),
    ("map: grid far edge overflows",
     {"s.yaml": scenario(grid={"origin": [1.7e308, 0.0], "resolution": 1e306,
                               "cols": 20, "rows": 20},
                         sensor={"max_range": 1e307},
                         scan={"poses": [[1.75e308, 1e306, 0.0]], "beams": 8})},
     "map s.yaml", 2),
    ("map: scan endpoints overflow",
     {"s.yaml": scenario(grid={"origin": [0.0, 0.0], "resolution": 1e306,
                               "cols": 100, "rows": 100},
                         sensor={"max_range": 1.5e308},
                         scan={"poses": [[5e307, 5e307, 0.0]], "beams": 8})},
     "map s.yaml", 2),
    *((f"{command}: grid far from the origin", {"s.yaml": FAR_GRID, "ref.csv": FAR_REF},
       f"{command} s.yaml{' ref.csv' if command == 'plan' else ''}", 2)
      for command in ("map", "plan")),
    ("eval-path: dump of a grid far from the origin",
     {"d": dump("lambda_grid.dump", lambda t: t.replace(
         "origin 0.0 0.0\nresolution 0.1", "origin 1e+200 0.0\nresolution 1e+190")),
      "p.csv": FAR_REF}, "eval-path d p.csv --width 1e189", 3),
    ("plan: reference point at 1e200",
     {"s.yaml": scenario(), "ref.csv": "x,y,theta\n1,1,0\n1,1e200,0\n2,2,0\n"},
     "plan s.yaml ref.csv", 2),
    ("eval-path: path poses farther apart than the largest float",
     {"p.csv": "x,y,theta\n1.7e308,1.0,0\n-1.7e308,1.0,0\n"},
     "eval-path {mapped}/lambda_grid.dump p.csv", 2),
    ("map: scenario is not YAML", {"s.yaml": "grid: [cols: 4\n"},
     "map s.yaml", 2),
    ("map: missing scenario file", {}, "map s.yaml", 3),
    ("map: missing ground_truth.file",
     {"s.yaml": WITH_TRUTH_CSV}, "map s.yaml", 3),
    ("map: missing scan.poses_file",
     {"s.yaml": scenario(scan={"poses_file": "poses.csv"})}, "map s.yaml", 3),
    ("map: empty ground-truth CSV",
     {"s.yaml": WITH_TRUTH_CSV, "truth.csv": ""}, "map s.yaml", 3),
    ("map: ground-truth CSV with a non-number",
     {"s.yaml": WITH_TRUTH_CSV, "truth.csv": "col,row,lambda\n3,x,1.0\n"},
     "map s.yaml", 3),
    ("map: ground-truth CSV with NaN",
     {"s.yaml": WITH_TRUTH_CSV, "truth.csv": "col,row,lambda\n3,4,nan\n"},
     "map s.yaml", 3),
    ("map: ground-truth CSV row with two fields",
     {"s.yaml": WITH_TRUTH_CSV, "truth.csv": "col,row,lambda\n3,4\n"},
     "map s.yaml", 3),
    ("map: ground-truth CSV with a blank row",
     {"s.yaml": WITH_TRUTH_CSV, "truth.csv": "col,row,lambda\n3,4,1.0\n\n"},
     "map s.yaml", 3),
    ("map: ground-truth cell 1.5",
     {"s.yaml": WITH_TRUTH_CSV, "truth.csv": "col,row,lambda\n1.5,4,1.0\n"},
     "map s.yaml", 3),
    ("map: ground-truth cell outside the grid",
     {"s.yaml": WITH_TRUTH_CSV, "truth.csv": "col,row,lambda\n40,3,1.0\n"},
     "map s.yaml", 3),
    ("map: ground-truth PGM with P2 magic",
     {"s.yaml": scenario(ground_truth={"file": "truth.pgm"}),
      "truth.pgm": "P2\n2 2\n255\n0 0 0 0\n"}, "map s.yaml", 3),
    ("map: scan pose outside the grid", {"s.yaml": OFF_GRID_SCAN},
     "map s.yaml", 2),
    ("simulate-scans: scan pose outside the grid", {"s.yaml": OFF_GRID_SCAN},
     "simulate-scans s.yaml", 2),
    *((f"{command}: scan pose theta {theta}",
       {"s.yaml": scenario(scan={"poses": [[1.0, 1.5, theta]]})},
       f"{command} s.yaml", 2)
      for command in ("map", "simulate-scans")
      for theta in (math.nan, math.inf)),
    ("map: ground-truth block value NaN",
     {"s.yaml": scenario(ground_truth={"blocks": [
         {"box": [2.5, 0.0, 3.0, 4.0], "value": math.nan}]})}, "map s.yaml", 2),
    ("map: ground-truth block corner NaN",
     {"s.yaml": scenario(ground_truth={"blocks": [
         {"box": [2.5, math.nan, 3.0, 4.0], "value": 1.0}]})}, "map s.yaml", 2),
    *((f"plan: planner {key} {value}",
       {"s.yaml": scenario(planner={key: value}), "ref.csv": PATH},
       "plan s.yaml ref.csv", 2)
      for key, value in (("v_max", math.inf), ("omega_max", math.inf),
                         ("horizon", math.inf), ("step", math.inf),
                         ("goal_tolerance", 0.0))),
    ("plan: planner arcs of 2e7 steps",
     {"s.yaml": scenario(planner={"v_max": 1e6}), "ref.csv": PATH},
     "plan s.yaml ref.csv", 2),
    ("plan: planner arc length overflows",
     {"s.yaml": scenario(planner={"v_max": 1e300, "horizon": 1e300}),
      "ref.csv": PATH}, "plan s.yaml ref.csv", 2),
    *((f"map: robot {key} inf", {"s.yaml": scenario(robot={key: math.inf})},
       "map s.yaml", 2) for key in ("width", "length", "mass")),
    *((f"eval-path: {flag} inf", {"p.csv": PATH},
       f"eval-path {{mapped}}/lambda_grid.dump p.csv {flag} inf", 2)
      for flag in ("--width", "--mass")),
    ("eval-path bayes: --width inf", {"p.csv": PATH},
     "eval-path {mapped}/bayes_grid.dump p.csv --engine bayes --width inf", 2),
    ("plan: empty reference", {"s.yaml": scenario(), "ref.csv": path_text([])},
     "plan s.yaml ref.csv", 2),
    ("plan: reference starts outside the grid",
     {"s.yaml": scenario(), "ref.csv": path_text([5.0, 2.0])},
     "plan s.yaml ref.csv", 2),
    ("plan: reference goal outside the grid",
     {"s.yaml": scenario(), "ref.csv": path_text([1.0, 5.0])},
     "plan s.yaml ref.csv", 2),
    ("eval-path: --speed -1", {"p.csv": PATH},
     "eval-path {mapped}/lambda_grid.dump p.csv --speed -1", 2),
    ("eval-path: --speed is not a number", {"p.csv": PATH},
     "eval-path {mapped}/lambda_grid.dump p.csv --speed fast", 2),
    ("eval-path: --speed nan", {"p.csv": PATH},
     "eval-path {mapped}/lambda_grid.dump p.csv --speed nan", 2),
    ("eval-path: --speed inf", {"p.csv": PATH},
     "eval-path {mapped}/lambda_grid.dump p.csv --speed inf", 2),
    ("eval-path: --mass times --speed overflows", {"p.csv": PATH},
     "eval-path {mapped}/lambda_grid.dump p.csv --mass 1e10 --speed 1e300", 2),
    ("eval-path: NaN in the path", {"p.csv": path_text([1.0, float("nan")])},
     "eval-path {mapped}/lambda_grid.dump p.csv", 3),
    ("eval-path: empty path file", {"p.csv": ""},
     "eval-path {mapped}/lambda_grid.dump p.csv", 3),
    ("eval-path: path row with one value", {"p.csv": "x,y,theta\n1.5\n"},
     "eval-path {mapped}/lambda_grid.dump p.csv", 3),
    ("eval-path: missing dump", {"p.csv": PATH},
     "eval-path lambda_grid.dump p.csv", 3),
    ("eval-path lambda: missing resolution line",
     {"d": dump("lambda_grid.dump", lambda t: t.replace("resolution 0.1\n", "")),
      "p.csv": PATH}, "eval-path d p.csv", 3),
    ("eval-path lambda: truncated dump",
     {"d": dump("lambda_grid.dump", lambda t: t[:3000]), "p.csv": PATH},
     "eval-path d p.csv", 3),
    ("eval-path lambda: negative count",
     {"d": dump("lambda_grid.dump",
                lambda t: _with_first_row(t, "counts", "-1 5")),
      "p.csv": PATH}, "eval-path d p.csv", 3),
    ("eval-path bayes: non-finite log-odds",
     {"d": dump("bayes_grid.dump",
                lambda t: _with_first_row(t, "logodds", "inf")),
      "p.csv": PATH}, "eval-path d p.csv --engine bayes", 3),
    ("eval-path bayes: clamp nan",
     {"d": dump("bayes_grid.dump",
                lambda t: t.replace("\nclamp 10.0\n", "\nclamp nan\n")),
      "p.csv": PATH}, "eval-path d p.csv --engine bayes", 3),
    ("eval-path bayes: clamp -1",
     {"d": dump("bayes_grid.dump",
                lambda t: t.replace("\nclamp 10.0\n", "\nclamp -1\n")),
      "p.csv": PATH}, "eval-path d p.csv --engine bayes", 3),
    ("eval-path lambda: path leaves the grid", {"p.csv": OFF_GRID_PATH},
     "eval-path {mapped}/lambda_grid.dump p.csv", 2),
    ("eval-path bayes: path leaves the grid", {"p.csv": OFF_GRID_PATH},
     "eval-path {mapped}/bayes_grid.dump p.csv --engine bayes", 2),
    *((f"eval-path bayes: {flag} is not used", {"p.csv": PATH},
       f"eval-path {{mapped}}/bayes_grid.dump p.csv --engine bayes {flag}", 2)
      for flag in ("--bound upper", "--bound mle", "--unit-risk",
                   "--speed 0.5", "--mass 10")),
    ("compare: --resolutions 0", {}, "compare --resolutions 0", 2),
    ("compare: --resolutions -0.1", {}, "compare --resolutions -0.1", 2),
    ("compare: --resolutions empty", {}, "compare --resolutions ,", 2),
    ("compare: cell area underflows", {}, "compare --resolutions 1e-200", 2),
    ("compare: cell count overflows", {}, "compare --resolutions 3e-162", 2),
    ("compare: --base-resolution 0", {},
     "compare --resolutions 0.1 --base-resolution 0", 2),
    ("compare: --base-cells 0", {}, "compare --resolutions 0.1 --base-cells 0",
     2),
]


class TestBadInputs:
    @pytest.mark.parametrize("case,files,args,code", BAD_INPUTS,
                             ids=[row[0] for row in BAD_INPUTS])
    def test_rejected(self, case, files, args, code, mapped, runner, tmp_path,
                      monkeypatch):
        """The command exits with ``code`` and one ``error:`` line, not a
        traceback."""
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            Path(name).write_text(text if isinstance(text, str)
                                  else text(mapped))
        result = runner.invoke(main, args.format(mapped=mapped).split()
                               + ["-o", "out"])
        assert result.exit_code == code, result.output
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        if code == 2:   # rejected before there was output to write
            assert not Path("out").exists()


def test_overflowing_exposures_run_without_warning(runner, tmp_path, monkeypatch):
    """An exposure that overflows to inf is a certain stop or collision: a
    map of matter at 1e308 /m^2, and an upper-bound eval-path over a map
    whose lambda_max is 1e308, each exit 0 and write nothing to stderr."""
    monkeypatch.chdir(tmp_path)
    Path("a.yaml").write_text(scenario(
        grid={"origin": [0.0, 0.0], "resolution": 10.0, "cols": 10, "rows": 10},
        sensor={"max_range": 50.0}, ground_truth={"uniform": 1e308},
        scan={"poses": [[50.0, 50.0, 0.0]], "beams": 8}))
    Path("b.yaml").write_text(scenario(lambda_max=1e308))
    Path("p.csv").write_text(path_text(np.arange(1.0, 3.91, 0.05)))
    for args in ("map a.yaml -o a", "map b.yaml -o b",
                 "eval-path b/lambda_grid.dump p.csv --bound upper --width 3.0"
                 " -o e"):
        result = runner.invoke(main, args.split())
        assert result.exit_code == 0 and result.stderr == "", (args, result.output)


@pytest.mark.parametrize("args", ["map s.yaml", "simulate-scans s.yaml",
                                  "plan s.yaml p.csv"])
def test_rejected_run_makes_no_output_dir(args, runner, tmp_path, monkeypatch):
    """A scan pose off the grid exits 2 with one ``error:`` line, and the
    ``-o`` directory, which the run never got to write to, does not exist."""
    monkeypatch.chdir(tmp_path)
    Path("s.yaml").write_text(scenario(
        grid={"origin": [0.0, 0.0], "resolution": 0.1, "cols": 20, "rows": 20},
        scan={"poses": [[50.0, 50.0, 0.0]]}))
    Path("p.csv").write_text(path_text([0.5, 1.0], y=0.5))
    result = runner.invoke(main, args.split() + ["-o", "out"])
    assert result.exit_code == 2, result.output
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not Path("out").exists()


# (case, files, arguments) of inputs too large to allocate: each exits 2
OVERSIZED_INPUTS = [
    ("map: 10^7 x 10^7 cells",
     {"s.yaml": scenario(grid={"cols": 10**7, "rows": 10**7})}, "map s.yaml"),
    *((f"{command}: 10^14 beams",
       {"s.yaml": scenario(scan={"poses": [[1.0, 2.0, 0.0]], "beams": 10**14})},
       f"{command} s.yaml") for command in ("map", "simulate-scans")),
    *((f"eval-path {engine}: --width {width}", {"p.csv": path_text([1.0, 1.5])},
       f"eval-path {{mapped}}/{engine}_grid.dump p.csv --engine {engine}"
       f" --width {width}")
      for engine in ("lambda", "bayes") for width in ("1e5", "1e12", "1e308")),
]
ADDRESS_SPACE = 4 << 30


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("case,files,args", OVERSIZED_INPUTS,
                         ids=[row[0] for row in OVERSIZED_INPUTS])
def test_oversized_input_exits_2(case, files, args, mapped, tmp_path):
    """The command exits 2 with one ``error:`` line, not a traceback. It runs
    in a child process with 4 GB of address space, so that an allocation
    too large for the machine fails at once instead of touching memory."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "lambdafield.cli",
         *args.format(mapped=mapped).split(), "-o", "out"], cwd=tmp_path,
        env=env, preexec_fn=_cap_address_space, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_readme_scenario_maps(runner, tmp_path):
    """The scenario in README.md stays valid."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    f = tmp_path / "scenario.yaml"
    f.write_text(readme.split("```yaml\n", 1)[1].split("```", 1)[0])
    result = runner.invoke(main, ["map", str(f), "-o", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "out" / "lambda_grid.dump").exists()


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

    def test_infinite_max_risk_turns_the_gate_off(self, runner, tmp_path):
        (tmp_path / "s.yaml").write_text(scenario(planner={
            "v_samples": 3, "omega_samples": 3, "max_steps": 5,
            "max_risk": math.inf}))
        ref = write_path(tmp_path, np.arange(2.3, 3.5, 0.1), 2.0)
        out = tmp_path / "plan"
        result = runner.invoke(main, ["plan", str(tmp_path / "s.yaml"), ref,
                                      "-o", str(out)])
        assert result.exit_code == 0, result.output
        log = (out / "planner_log.csv").read_text().strip().splitlines()[1:]
        # the start lies in front of the wall that stops the gated planner
        assert log and not any(line.endswith(",1") for line in log)

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

    def test_fine_resolution_needs_no_per_cell_memory(self, runner, tmp_path):
        """640 000 cells at 0.0005 m: the closed forms give 1 - 0.9^4 at
        both resolutions without a per-cell list."""
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["compare", "--resolutions",
                                          "0.2,0.0005", "-o", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert peak < 1_000_000
        rows = (tmp_path / "compare.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            assert abs(float(row.split(",")[1]) - 0.3439) <= 1e-15

    def test_naive_column_is_the_bayes_grid_rule(self, runner, tmp_path):
        """``p_bayes_naive`` for a region of n cells equals
        ``naive_path_probability`` over n cells of a ``BayesGrid`` at
        occupancy p."""
        region = 8 * 0.2 ** 2
        n_cells = range(1, 9)
        resolutions = ",".join(repr(math.sqrt(region / n)) for n in n_cells)
        for p in (0.1, 0.5, 0.93):
            result = runner.invoke(main, [
                "compare", "--base-prob", repr(p), "--base-cells", "8",
                "--resolutions", resolutions, "-o", str(tmp_path)])
            assert result.exit_code == 0, result.output
            grid = BayesGrid(GridGeometry(0.0, 0.0, 0.2, 8, 1))
            grid.log_odds[:] = math.log(p / (1.0 - p))
            rows = result.output.strip().splitlines()
            for n, row in zip(n_cells, rows, strict=True):
                assert float(row.split()[2]) == pytest.approx(
                    naive_path_probability(grid, np.arange(n)), rel=1e-12)

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


def test_scenario_loader_reads_as_the_pure_python_loader():
    """The scenario loader (libyaml's, where it is built) gives the same
    mappings as ``yaml.SafeLoader`` for the README's and the tests'
    scenarios, and raises ``yaml.YAMLError`` on malformed text alike."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    texts = [block.split("```", 1)[0] for block in readme.split("```yaml\n")[1:]]
    texts += [SCENARIO.format(max_steps=40), WITH_TRUTH_CSV, OFF_GRID_SCAN,
              scenario(bayes={"clamp": math.nan}),
              scenario(sensor={"max_range": math.inf})]
    assert len(texts) == 6 and YAML_LOADER is (
        yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    for text in texts:
        fast, slow = (yaml.load(text, Loader=loader)
                      for loader in (YAML_LOADER, yaml.SafeLoader))
        assert isinstance(fast, dict) and repr(fast) == repr(slow)
    for loader in (YAML_LOADER, yaml.SafeLoader):
        with pytest.raises(yaml.YAMLError):
            yaml.load("grid: [cols: 4\n", Loader=loader)
