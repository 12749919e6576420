"""The performance record script's pair count and verdicts, on made-up
runs, and its line count, on a made-up tree."""

import importlib.util
from pathlib import Path

import pytest

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


def sides(parent: list[float], change: list[float]) -> list[dict]:
    """Runs of one metric ``m``, the two sides alternating in pairs."""
    return [run(pair, side, m=value)
            for pair, values in enumerate(zip(parent, change), 1)
            for side, value in zip(("parent", "change"), values)]


@pytest.mark.parametrize("better", ["lower", "higher"])
@pytest.mark.parametrize("parent, change, verdict", [
    ([10.0, 10.1, 9.9, 10.0], [12.6, 12.7, 12.5, 12.6], "worse"),
    ([10.0, 10.1, 9.9, 10.0], [12.4, 12.5, 12.3, 12.4], "within bound"),
    ([10.0, 10.1, 9.9, 10.0], [9.0, 9.1, 8.9, 9.0], "better"),
    ([10.0, 10.0, 10.0, 10.0], [10.0, 10.0, 10.0, 10.0], "within bound"),
    # the parent's quartiles 7.0 and 9.75 lie past 0.25 * 8.0 apart
    ([5.0, 7.0, 9.0, 10.0, 7.0, 10.0], [6.0, 7.0, 6.0, 9.5, 6.5, 7.0],
     "unresolved"),
    ([5.0, 7.0, 9.0, 10.0, 7.0, 10.0], [4.0, 4.5, 4.2, 4.1, 4.9, 3.0],
     "better"),   # every run of the change below every run of the parent
    # map-400 op_ms_p50 of BENCH_19.json: a lower median, but 5 of 10 pairs
    ([19.347, 28.589, 27.204, 25.624, 28.351, 23.921, 21.821, 21.424, 23.807,
      27.134],
     [20.033, 26.076, 24.423, 24.681, 24.635, 24.375, 23.294, 24.031, 21.74,
      28.753], "within bound"),
    # 10 of 10 pairs, but the medians 11.0 and 10.9 lie inside the parent's
    # quartiles 10.0 and 12.0
    ([10.0, 12.0] * 5, [9.9, 11.9] * 5, "within bound"),
    # 9 of 10 pairs (a tie wins nothing), and the medians 10.5 and 9.0 lie
    # further apart than the parent's quartiles 10.0 and 11.0
    ([10.0, 11.0] * 5, [10.0] + [8.5, 9.0] * 4 + [9.0], "better"),
])
def test_verdicts_judge_the_medians_against_the_bound(parent, change, verdict,
                                                      better):
    declared = [{"name": "m", "better": better, "bound": 0.25}]
    if better == "higher":  # the same cases mirrored: higher is better
        parent, change = [-v for v in parent], [-v for v in change]
    assert bench_record.verdicts(sides(parent, change), declared) == {"m": verdict}


def test_src_lines_count_the_package_modules_as_wc_does(tmp_path):
    """Newline bytes of ``src/lambdafield/*.py`` alone: a last line without
    one is not counted, and other files and directories are skipped."""
    package = tmp_path / "src" / "lambdafield"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_bytes(b"import b\n\nx = 1\n")
    (package / "b.py").write_bytes(b"y = 2\r\nz = 3")
    (package / "empty.py").write_bytes(b"")
    (package / "notes.txt").write_bytes(b"1\n2\n")
    (package / "sub" / "c.py").write_bytes(b"1\n")
    (tmp_path / "src" / "other.py").write_bytes(b"1\n")
    assert bench_record.src_lines(tmp_path) == 4
