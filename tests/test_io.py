import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdafield import (BayesGrid, GridGeometry, LambdaGrid, PathCrossing,
                         SensorModel, collision_pdf, expected_risk,
                         path_collision_probability)
from lambdafield import io as lfio
from lambdafield.sensor import Beam


@pytest.fixture
def populated_grid(rng):
    geo = GridGeometry(-1.0, 0.5, 0.2, 12, 9)
    grid = LambdaGrid(geo, SensorModel(0.98, 0.999, 0.05, 8.0), lambda_max=80.0)
    grid.hits[:] = rng.integers(0, 6, geo.n_cells)
    grid.misses[:] = rng.integers(0, 40, geo.n_cells)
    return grid


class TestGridDumps:
    def test_lambda_round_trip(self, populated_grid, tmp_path):
        f = tmp_path / "grid.dump"
        lfio.save_lambda_grid(populated_grid, f)
        loaded = lfio.load_lambda_grid(f)
        assert loaded.geometry == populated_grid.geometry
        assert loaded.sensor == populated_grid.sensor
        assert loaded.lambda_max == populated_grid.lambda_max
        np.testing.assert_array_equal(loaded.hits, populated_grid.hits)
        np.testing.assert_array_equal(loaded.misses, populated_grid.misses)

    def test_bayes_round_trip(self, geometry, tmp_path, rng):
        grid = BayesGrid(geometry, log_odds_clamp=7.5)
        grid.log_odds[:] = rng.normal(0, 2, geometry.n_cells).clip(-7.5, 7.5)
        f = tmp_path / "bayes.dump"
        lfio.save_bayes_grid(grid, f)
        loaded = lfio.load_bayes_grid(f)
        assert loaded.geometry == grid.geometry
        np.testing.assert_array_equal(loaded.log_odds, grid.log_odds)

    def test_wrong_magic_rejected(self, populated_grid, tmp_path):
        f = tmp_path / "grid.dump"
        lfio.save_lambda_grid(populated_grid, f)
        with pytest.raises(ValueError):
            lfio.load_bayes_grid(f)


def _with_first_row(text: str, marker: str, row: str) -> str:
    """Dump ``text`` with the first body row after ``marker`` set to ``row``."""
    head, body = text.split(f"\n{marker}\n", 1)
    return f"{head}\n{marker}\n{row}\n{body.split(chr(10), 1)[1]}"


# (fault, loader, edit of the saved dump text)
MALFORMED_DUMPS = [
    ("missing header key", "lambda",
     lambda t: t.replace("resolution 0.2\n", "")),
    ("non-finite resolution", "lambda",
     lambda t: t.replace("resolution 0.2\n", "resolution nan\n")),
    ("missing body row", "lambda", lambda t: t[:t.rindex("\n", 0, -1) + 1]),
    ("extra body row", "lambda", lambda t: t + "0 0\n"),
    ("negative count", "lambda",
     lambda t: _with_first_row(t, "counts", "-1 5")),
    ("non-integer count", "lambda",
     lambda t: _with_first_row(t, "counts", "1.5 5")),
    ("count above 2^32-1", "lambda",
     lambda t: _with_first_row(t, "counts", "4294967296 5")),
    ("non-finite log-odds", "bayes",
     lambda t: _with_first_row(t, "logodds", "nan")),
    ("missing header key", "bayes",
     lambda t: t.replace("clamp 7.5\n", "")),
]


class TestMalformedDumps:
    @pytest.mark.parametrize("fault,kind,edit", MALFORMED_DUMPS,
                             ids=[f"{k}: {f}" for f, k, _ in MALFORMED_DUMPS])
    def test_loader_rejects(self, fault, kind, edit, populated_grid, tmp_path):
        f = tmp_path / "grid.dump"
        if kind == "lambda":
            lfio.save_lambda_grid(populated_grid, f)
        else:
            bayes = BayesGrid(populated_grid.geometry, log_odds_clamp=7.5)
            lfio.save_bayes_grid(bayes, f)
        f.write_text(edit(f.read_text()))
        load = lfio.load_lambda_grid if kind == "lambda" else lfio.load_bayes_grid
        with pytest.raises(ValueError):
            load(f)


def _valid_files(directory) -> dict[str, bytes]:
    """Bytes of one small, valid input file for each loader."""
    geo = GridGeometry(-1.0, 0.5, 0.2, 3, 2)
    grid = LambdaGrid(geo, SensorModel(0.98, 0.999, 0.05, 8.0), lambda_max=80.0)
    grid.hits[:] = [0, 3, 1, 0, 7, 2]
    grid.misses[:] = [5, 0, 12, 1, 0, 40]
    bayes = BayesGrid(geo)
    bayes.log_odds[:] = [0.0, -1.25, 3.5, 10.0, -10.0, 0.5]
    lfio.save_lambda_grid(grid, directory / "lambda")
    lfio.save_bayes_grid(bayes, directory / "bayes")
    lfio.save_path_csv(directory / "path", [[1.0, 2.0, 0.5], [1.5, 2.25, 0.0]])
    lfio.write_pgm(directory / "pgm", np.arange(6.0).reshape(2, 3), 1000.0,
                   maxval=65535)
    return {name: (directory / name).read_bytes()
            for name in ("lambda", "bayes", "path", "pgm")}


LOADERS = {"lambda": lfio.load_lambda_grid, "bayes": lfio.load_bayes_grid,
           "path": lfio.load_path_csv, "pgm": lfio.read_pgm}
TOKENS = [b"", b"\n", b" ", b"#", b",", b"-1", b"0", b"nan", b"inf",
          b"1e999", b"99999999999999999999", b"\x00", b"\xff"]


@st.composite
def corrupted(draw, data: bytes) -> bytes:
    """``data`` with a few spans replaced by random bytes or by tokens that
    parsers trip on, then possibly truncated."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        span = draw(st.integers(0, 3))
        data[pos:pos + span] = draw(st.sampled_from(TOKENS)
                                    | st.binary(min_size=1, max_size=3))
    return bytes(data[:draw(st.integers(0, len(data)))]
                 if draw(st.booleans()) else data)


class TestLoaderFuzz:
    """A truncated or corrupted file makes each loader return or raise
    ValueError, never another exception."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("fuzz")
        return directory, _valid_files(directory)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_only_value_error(self, kind, files):
        directory, valid = files
        f = directory / f"fuzzed-{kind}"
        LOADERS[kind](directory / kind)  # the unedited file loads

        @settings(max_examples=300, deadline=None)
        @given(corrupted(valid[kind]))
        def check(data):
            f.write_bytes(data)
            try:
                LOADERS[kind](f)
            except ValueError:
                pass

        check()


class TestCsvExports:
    def test_lambda_csv_columns(self, populated_grid, tmp_path):
        f = tmp_path / "grid.csv"
        lfio.export_lambda_csv(populated_grid, f)
        with open(f, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == populated_grid.geometry.n_cells
        lam = populated_grid.lambda_map()
        low, high = populated_grid.bound_maps()
        probe = rows[17]
        i = populated_grid.geometry.flat(int(probe["col"]), int(probe["row"]))
        assert float(probe["lambda"]) == lam[i]
        assert float(probe["lambda_low"]) == low[i]
        assert float(probe["lambda_high"]) == high[i]


class TestPgm:
    def test_write_read_round_trip(self, tmp_path):
        values = np.arange(12, dtype=np.float64).reshape(3, 4)
        f = tmp_path / "map.pgm"
        lfio.write_pgm(f, values, scale=100.0, maxval=65535)
        pixels, scale = lfio.read_pgm(f)
        assert scale == 100.0
        np.testing.assert_array_equal(pixels, values * 100.0)

    def test_ground_truth_from_pgm(self, tmp_path):
        values = np.zeros((5, 8))
        values[2, 3] = 2.0
        f = tmp_path / "truth.pgm"
        lfio.write_pgm(f, values, scale=10.0, maxval=255)
        truth = lfio.load_ground_truth(f, resolution=0.5)
        assert truth.geometry.n_cols == 8 and truth.geometry.n_rows == 5
        # pixels carry value * scale; loader multiplies back by the scale
        assert truth.intensities.reshape(5, 8)[2, 3] == pytest.approx(200.0)

    def test_ground_truth_from_csv(self, geometry, tmp_path):
        f = tmp_path / "truth.csv"
        f.write_text("col,row,lambda\n3,4,2.5\n")
        truth = lfio.load_ground_truth(f, geometry)
        assert truth.intensities[geometry.flat(3, 4)] == 2.5
        assert truth.intensities.sum() == 2.5


class TestScanAndPathFiles:
    def test_scan_log_round_trip(self, tmp_path):
        beams = [Beam((1.0, 2.0), (1.0, 0.0), 3.5, True),
                 Beam((1.0, 2.0), (0.0, 1.0), 10.0, False)]
        scans = [(0.0, (1.0, 2.0, 0.25), beams)]
        f = tmp_path / "scans.csv"
        lfio.save_scan_log(f, scans)
        loaded = lfio.load_scan_log(f)
        assert len(loaded) == 1
        t, pose, got = loaded[0]
        assert pose == (1.0, 2.0, 0.25)
        assert got[0].measured_range == 3.5 and got[0].hit
        assert not got[1].hit
        np.testing.assert_allclose(got[1].direction, (0.0, 1.0), atol=1e-15)

    def test_path_round_trip(self, tmp_path):
        poses = np.array([[0.0, 1.0, 0.5], [0.25, 1.5, -0.5]])
        f = tmp_path / "path.csv"
        lfio.save_path_csv(f, poses)
        np.testing.assert_array_equal(lfio.load_path_csv(f), poses)

    def test_risk_report_columns(self, tmp_path):
        crossing = PathCrossing.from_lambdas([0.5, 2.0, 0.1], [0.04] * 3)
        f = tmp_path / "report.csv"
        lfio.save_risk_report(f, crossing, lambda a: 1.0)
        with open(f, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        cdf = [float(r["cdf"]) for r in rows]
        assert cdf == sorted(cdf)
        # with unit risk the partial risks sum to the collision probability
        from lambdafield import path_collision_probability
        total = sum(float(r["partial_risk"]) for r in rows)
        assert total == pytest.approx(path_collision_probability(crossing),
                                      abs=1e-12)

    def test_risk_report_rows_match_density_and_risk_terms(self, tmp_path, rng):
        n = 1200
        crossing = PathCrossing.from_lambdas(rng.random(n) * 2.0,
                                             rng.random(n) * 0.01 + 0.001)
        risk_fn = lambda a: 2.0 + a
        f = tmp_path / "report.csv"
        lfio.save_risk_report(f, crossing, risk_fn)
        with open(f, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == n
        exposure = crossing.areas * crossing.lam_mle
        for i, row in enumerate(rows):
            cum = float(row["cum_area"])
            assert float(row["f"]) == pytest.approx(
                collision_pdf(crossing, cum), rel=1e-12)
            term = (risk_fn(cum) * math.exp(-math.fsum(exposure[:i]))
                    * -math.expm1(-exposure[i]))
            assert float(row["partial_risk"]) == pytest.approx(term, rel=1e-12)
        total = math.fsum(float(r["partial_risk"]) for r in rows)
        assert total == pytest.approx(expected_risk(crossing, risk_fn),
                                      rel=1e-12)
        assert float(rows[-1]["cdf"]) == pytest.approx(
            path_collision_probability(crossing), rel=1e-12)
