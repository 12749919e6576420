"""The performance record script's pair count, on made-up runs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def run(pair: int, side: str, **values: float) -> dict:
    return {"pair": pair, "side": side, "line": {"metrics": {
        name: {"value": value, "unit": "ms"} for name, value in values.items()}}}


def test_pair_wins_count_the_pairs_the_change_beat():
    runs = [run(1, "parent", fast=10.0, high=1.0),
            run(1, "change", fast=8.0, high=2.0),
            run(2, "change", fast=9.0, high=0.5),   # the change ran first
            run(2, "parent", fast=9.5, high=1.0),
            run(3, "parent", fast=7.0, high=1.0),
            run(3, "change", fast=7.0, high=1.0)]   # a tie wins nothing
    declared = [{"name": "fast", "better": "lower"},
                {"name": "high", "better": "higher"}]
    assert bench_record.pair_wins(runs, declared) == {
        "fast": {"won": 2, "pairs": 3, "better": "lower"},
        "high": {"won": 1, "pairs": 3, "better": "higher"}}
