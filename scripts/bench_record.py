#!/usr/bin/env python3
"""Write a performance record: the final JSON line of every declared
benchmark workload, for a checkout of the parent commit and for this one.

    python3 scripts/bench_record.py --parent ../parent -o BENCH_12.json

Each run is ``bench/run.py --workload W --seed 1 --seconds 30`` in a fresh
process, one at a time. Per workload the two sides run ``PAIRS`` pairs in
turn, the parent first in odd pairs and the change first in even ones, so a
drift in the machine's speed falls on both sides. ``"runs"`` keeps every
run's final line in the order run. ``"parent"`` and ``"change"`` give per
workload whether every run was correct, the ops attempted and failed over
all runs, and per metric the median and quartiles over the side's runs
(judge a metric by its median; the quartiles show the run-to-run spread).
``"pair_wins"`` gives per workload and end-to-end metric how many of the
pairs the change won: its run was better than the parent's run of the same
pair, in the direction that ``BENCHMARK.json`` declares. ``"verdicts"``
gives per workload and end-to-end metric one of "worse", "unresolved",
"better" or "within bound" (see ``verdicts``).
Then each side runs every workload once more with ``--trace 1``, whose final
line holds the per-layer metrics (self times per op); they go under
``"traced"``.
The record also names the Python and numpy versions and the machine it ran
on, and gives under ``"src_lines"`` each side's lines of
``src/lambdafield/*.py`` as ``wc -l`` counts them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN_ARGS = ["--seed", "1", "--seconds", "30"]
PAIRS = 10


def final_line(checkout: Path, workload: str, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload",
         workload, *RUN_ARGS, *extra], capture_output=True, text=True,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines(checkout: Path) -> int:
    """Lines of ``src/lambdafield/*.py`` under ``checkout``, as ``wc -l``
    counts them: the newline bytes."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "lambdafield").glob("*.py"))


def summary(lines: list[dict]) -> dict:
    """One side's runs of one workload: correctness, op counts, and each
    metric's median and quartiles."""
    metrics = {}
    for name, first in lines[0]["metrics"].items():
        q1, median, q3 = np.percentile(
            [line["metrics"][name]["value"] for line in lines], [25, 50, 75])
        metrics[name] = {"median": median, "q1": q1, "q3": q3,
                         "unit": first["unit"]}
    return {"correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": metrics}


def pair_wins(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per declared end-to-end metric, the pairs of ``runs`` (one workload's
    ``"runs"`` entry) in which the change's value beat the parent's."""
    pairs: dict[int, dict] = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run["line"]["metrics"]
    wins = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        won = sum(sign * (pair["parent"][name]["value"]
                          - pair["change"][name]["value"]) > 0
                  for pair in pairs.values())
        wins[name] = {"won": int(won), "pairs": len(pairs),
                      "better": metric["better"]}
    return wins


def verdicts(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per declared end-to-end metric of ``runs`` (one workload's ``"runs"``
    entry), judged against the metric's bound as a share of the parent's
    median: "worse" if the change's median is worse than the parent's by
    more than the bound; else "unresolved" if the parent's quartiles lie
    farther apart than the bound and not every run of the change beats
    every run of the parent; else "better" if the change's median is
    better; else "within bound"."""
    out = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        parent, change = (np.array([run["line"]["metrics"][name]["value"]
                                    for run in runs if run["side"] == side])
                          for side in ("parent", "change"))
        q1, median, q3 = np.percentile(parent, [25, 50, 75])
        allowed = metric["bound"] * abs(median)
        worse_by = sign * (np.median(change) - median)
        if worse_by > allowed:
            out[name] = "worse"
        elif q3 - q1 > allowed and (sign * change).max() >= (sign * parent).min():
            out[name] = "unresolved"
        elif worse_by < 0:
            out[name] = "better"
        else:
            out[name] = "within bound"
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="a checkout of the parent commit")
    parser.add_argument("-o", "--output", type=Path, required=True)
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent, "change": ROOT}
    record = {
        "command": " ".join(["bench/run.py --workload W", *RUN_ARGS]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "src_lines": {side: src_lines(checkout)
                      for side, checkout in checkouts.items()},
        "pairs": PAIRS, "runs": {}, "parent": {}, "change": {},
        "pair_wins": {}, "verdicts": {},
        "traced": {"parent": {}, "change": {}},
    }
    workloads = [w["name"] for w in declared["workloads"]]
    for workload in workloads:
        runs = record["runs"][workload] = []
        for pair in range(1, PAIRS + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                print(f"pair {pair} {side} {workload}", file=sys.stderr,
                      flush=True)
                runs.append({"pair": pair, "side": side,
                             "line": final_line(checkouts[side], workload)})
        for side in checkouts:
            record[side][workload] = summary(
                [run["line"] for run in runs if run["side"] == side])
        record["pair_wins"][workload] = pair_wins(runs, declared["end_to_end"])
        record["verdicts"][workload] = verdicts(runs, declared["end_to_end"])
    for workload in workloads:
        for side, checkout in checkouts.items():
            print(f"{side} {workload} traced", file=sys.stderr, flush=True)
            record["traced"][side][workload] = final_line(checkout, workload,
                                                          "--trace", "1")
    args.output.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
