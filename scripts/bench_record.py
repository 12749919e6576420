#!/usr/bin/env python3
"""Write a performance record: the final JSON line of every declared
benchmark workload, for a checkout of the parent commit and for this one.

    python3 scripts/bench_record.py --parent ../parent -o BENCH_7.json

Each run is ``bench/run.py --workload W --seed 1 --seconds 30`` in a fresh
process, one at a time, parent first for each workload. The record also
names the Python and numpy versions and the machine it ran on.
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


def final_line(checkout: Path, workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload",
         workload, *RUN_ARGS], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="a checkout of the parent commit")
    parser.add_argument("-o", "--output", type=Path, required=True)
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "command": " ".join(["bench/run.py --workload W", *RUN_ARGS]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "parent": {}, "change": {},
    }
    for workload in (w["name"] for w in declared["workloads"]):
        for side, checkout in (("parent", args.parent), ("change", ROOT)):
            print(f"{side} {workload}", file=sys.stderr, flush=True)
            record[side][workload] = final_line(checkout, workload)
    args.output.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
