"""The output-hash script, at toy size: one line per item, every CLI
command run, and the same lines from two runs."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "scripts" / "same_bits.py"
TOY = ["--scans", "2", "--cycles", "3", "--seeds", "1", "2", "--cells", "160"]


def run_script(*args: str) -> list[str]:
    proc = subprocess.run([sys.executable, str(SCRIPT), *TOY, *args],
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return proc.stdout.splitlines()


def test_one_hash_per_item_and_the_same_each_run():
    lines = run_script()
    labels = [line.rsplit(" ", 1)[0] for line in lines]
    assert len(set(labels)) == len(labels)
    for line in lines:
        label, value = line.rsplit(" ", 1)
        if label.endswith(" exit"):
            assert value == "0", label
        else:
            assert re.fullmatch("[0-9a-f]{64}", value), line
    for seed in (1, 2):
        for item in ("beams", "hits", "misses", "log_odds"):
            assert f"map-160 seed {seed} scans 2 {item}" in labels
        assert f"plan-160 seed {seed} cycles 3 arcs" in labels
    for scenario in ("readme", "test_cli"):
        for command, files in [
                ("map", ["bayes_grid.csv", "bayes_grid.dump", "bayes_grid.pgm",
                         "lambda_grid.csv", "lambda_grid.dump",
                         "lambda_grid.pgm", "scans.csv"]),
                ("simulate-scans", ["scans.csv"]),
                ("plan", ["planner_log.csv", "trace.csv"]),
                ("compare", ["compare.csv"]),
                *((f"eval-path {bound}", ["risk_report.csv", "summary.csv"])
                  for bound in ("mle", "lower", "upper", "unit-risk")),
                ("eval-path bayes", ["summary.csv"])]:
            key = f"cli {scenario} {command}"
            assert [label for label in labels if label.startswith(key + " ")] \
                == [f"{key} {item}" for item in ["exit", "stdout", "stderr",
                                                 *files]]
    assert run_script("--checkout", str(SCRIPT.parents[1])) == lines
