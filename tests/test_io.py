import csv
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import crossing_of
from lambdafield import (BayesGrid, GridGeometry, LambdaGrid, PathCrossing,
                         SensorModel, collision_pdf, expected_risk,
                         path_collision_probability)
from lambdafield import io as lfio
from lambdafield.field import COUNT_MAX
from lambdafield.path import risk_terms
from lambdafield.planner import EpisodeStep
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
    lfio.write_pgm(directory / "pgm", np.arange(6.0).reshape(2, 3), 1000.0)
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
        lfio.write_pgm(f, values, scale=100.0)
        pixels, scale = lfio.read_pgm(f)
        assert scale == 100.0
        np.testing.assert_array_equal(pixels, values * 100.0)

    def test_ground_truth_from_pgm(self, tmp_path):
        pixels = np.zeros((5, 8), dtype=np.uint8)
        pixels[2, 3] = 20
        f = tmp_path / "truth.pgm"  # 8-bit, which write_pgm does not write
        f.write_bytes(b"P5\n# scale 10.0\n8 5\n255\n" + pixels.tobytes())
        truth = lfio.load_ground_truth(f, GridGeometry(0.0, 0.0, 0.5, 8, 5))
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
    def test_scan_log_rows(self, tmp_path):
        """One row per beam, every value a plain number, also for the numpy
        scalars a pose array yields."""
        beams = [Beam((1.0, 2.0), (1.0, 0.0), 3.5, True),
                 Beam((1.0, 2.0), (0.0, 1.0), 10.0, False)]
        scans = [(0.0, tuple(np.array([1.0, 2.0, 0.25])), beams),
                 (1.0, (1.5, 2.0, -0.5), beams[:1])]
        f = tmp_path / "scans.csv"
        lfio.save_scan_log(f, scans)
        with open(f, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [
            ["t", "pose_x", "pose_y", "pose_theta", "angle", "range", "hit"],
            ["0.0", "1.0", "2.0", "0.25", "0.0", "3.5", "1"],
            ["0.0", "1.0", "2.0", "0.25", repr(math.pi / 2), "10.0", "0"],
            ["1.0", "1.5", "2.0", "-0.5", "0.0", "3.5", "1"]]

    def test_path_round_trip(self, tmp_path):
        poses = np.array([[0.0, 1.0, 0.5], [0.25, 1.5, -0.5]])
        f = tmp_path / "path.csv"
        lfio.save_path_csv(f, poses)
        np.testing.assert_array_equal(lfio.load_path_csv(f), poses)

    def test_risk_report_columns(self, tmp_path):
        crossing = crossing_of([0.5, 2.0, 0.1], [0.04] * 3)
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
        crossing = crossing_of(rng.random(n) * 2.0,
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


# The per-row writers the package had before ``io._write_table``, kept as
# byte oracles for it.

def _oracle_dump(path, magic, geo, fields, marker, body):
    lines = [f"{magic} {lfio.DUMP_VERSION}",
             f"origin {geo.origin_x!r} {geo.origin_y!r}",
             f"resolution {geo.resolution!r}",
             f"size {geo.n_cols} {geo.n_rows}",
             *(" ".join([key, *map(repr, vals)]) for key, *vals in fields),
             marker, *body]
    Path(path).write_text("\n".join(lines) + "\n")


def _oracle_save_lambda_grid(grid, path):
    s = grid.sensor
    _oracle_dump(path, lfio.LAMBDA_DUMP_MAGIC, grid.geometry,
                 [("lambda_max", grid.lambda_max),
                  ("sensor", s.p_hit, s.p_miss, s.error_area, s.max_range)],
                 "counts", [f"{h} {m}" for h, m in zip(grid.hits, grid.misses)])


def _oracle_save_bayes_grid(grid, path):
    _oracle_dump(path, lfio.BAYES_DUMP_MAGIC, grid.geometry,
                 [("clamp", grid.log_odds_clamp),
                  ("updates", grid.l_occ, grid.l_free)],
                 "logodds", [repr(float(v)) for v in grid.log_odds])


def _oracle_export_lambda_csv(grid, path):
    lam = grid.lambda_map()
    low, high = grid.bound_maps()
    geo = grid.geometry
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["col", "row", "h", "m", "lambda", "lambda_low",
                         "lambda_high"])
        for i in range(geo.n_cells):
            col, row = geo.unflat(i)
            writer.writerow([col, row, int(grid.hits[i]), int(grid.misses[i]),
                             repr(float(lam[i])), repr(float(low[i])),
                             repr(float(high[i]))])


def _oracle_export_bayes_csv(grid, path):
    occ = grid.occupancy()
    geo = grid.geometry
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["col", "row", "log_odds", "p_occ"])
        for i in range(geo.n_cells):
            col, row = geo.unflat(i)
            writer.writerow([col, row, repr(float(grid.log_odds[i])),
                             repr(float(occ[i]))])


def _oracle_save_risk_report(path, crossing, risk_fn, use_bound="mle"):
    lam, cum, survive, hit = risk_terms(crossing, use_bound)
    density = survive * lam
    cdf = np.cumsum(survive * hit)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell_index", "cum_area", "lambda", "f", "cdf",
                         "partial_risk"])
        for i in range(len(crossing)):
            partial = risk_fn(float(cum[i])) * survive[i] * hit[i]
            writer.writerow([int(crossing.cells[i]), repr(float(cum[i])),
                             repr(float(lam[i])), repr(float(density[i])),
                             repr(float(cdf[i])), repr(float(partial))])


def _oracle_save_planner_log(path, log):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "v", "omega", "risk_upper", "n_admissible",
                         "stopped_flag"])
        for step in log:
            writer.writerow([repr(step.t), repr(step.v), repr(step.omega),
                             repr(step.risk_upper), step.n_admissible,
                             int(step.stopped)])


def _oracle_save_path_csv(path, poses):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "theta"])
        for pose in np.asarray(poses):
            writer.writerow([repr(float(v)) for v in pose[:3]])


def _same_bytes(tmp_path, write, oracle) -> bool:
    """``write(path)`` and ``oracle(path)`` produce the same file."""
    write(tmp_path / "new")
    oracle(tmp_path / "oracle")
    return (tmp_path / "new").read_bytes() == (tmp_path / "oracle").read_bytes()


def _random_grids(cols, rows, seed):
    """A lambda grid with counts from 0 to 2^32-1 and unobserved cells, and
    a Bayes grid with log-odds up to and at +-clamp."""
    rng = np.random.default_rng(seed)
    geo = GridGeometry(-1.25, 0.5, 0.05, cols, rows)
    grid = LambdaGrid(geo, SensorModel(0.98, 0.999, 0.05, 8.0), lambda_max=80.0)
    for counts in (grid.hits, grid.misses):
        counts[:] = rng.choice([0, 1, 7, 40, 12345, COUNT_MAX], geo.n_cells)
        counts[rng.random(geo.n_cells) < 0.2] = 0
    bayes = BayesGrid(geo, log_odds_clamp=7.5)
    bayes.log_odds[:] = rng.choice([-7.5, 7.5, 0.0], geo.n_cells)
    noisy = rng.random(geo.n_cells) < 0.5
    bayes.log_odds[noisy] = rng.uniform(-7.5, 7.5, noisy.sum())
    return grid, bayes


def _assert_grid_files_match(grid, bayes, tmp_path):
    """Both dumps and both CSVs of the grids equal their oracles' bytes."""
    for write, oracle, g in [
            (lfio.save_lambda_grid, _oracle_save_lambda_grid, grid),
            (lfio.export_lambda_csv, _oracle_export_lambda_csv, grid),
            (lfio.save_bayes_grid, _oracle_save_bayes_grid, bayes),
            (lfio.export_bayes_csv, _oracle_export_bayes_csv, bayes)]:
        assert _same_bytes(tmp_path, lambda f: write(g, f),
                           lambda f: oracle(g, f)), write.__name__


class TestWritersMatchOracles:
    """Every table writer gives the bytes of the per-row writer it replaced;
    64 x 64 is one whole block of ``TABLE_BLOCK_ROWS`` and 70 x 61 spills
    into a second one."""

    @pytest.mark.parametrize("cols,rows,seed", [(1, 1, 0), (64, 64, 1),
                                                (70, 61, 2), (13, 9, 3)])
    def test_grid_files(self, cols, rows, seed, tmp_path):
        grid, bayes = _random_grids(cols, rows, seed)
        _assert_grid_files_match(grid, bayes, tmp_path)

    # (h, m) pairs that a key of their sum, of h << 16 | m or of a shift
    # in 32 bits would merge, and COUNT_MAX in either place
    COLLIDING_PAIRS = [(1, 0), (0, 1), (0, 2 ** 16), (2 ** 16, 0), (1, 1),
                       (0, 0), (COUNT_MAX, 0), (0, COUNT_MAX),
                       (COUNT_MAX, COUNT_MAX), (COUNT_MAX, 1), (1, COUNT_MAX)]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_counts_a_wrong_key_would_merge(self, seed, tmp_path):
        """70 x 61 cells (two blocks) of the colliding pairs, and log-odds
        whose values are equal but whose bits are not (-0.0 and 0.0)."""
        grid, bayes = _random_grids(70, 61, seed)
        rng = np.random.default_rng(seed)
        pairs = np.array(self.COLLIDING_PAIRS, dtype=np.uint32)
        grid.hits[:], grid.misses[:] = pairs[rng.integers(
            0, len(pairs), grid.geometry.n_cells)].T
        bayes.log_odds[:] = rng.choice([0.0, -0.0, 7.5, -7.5], len(bayes.log_odds))
        _assert_grid_files_match(grid, bayes, tmp_path)

    @pytest.mark.parametrize("n", [0, 1200])
    @pytest.mark.parametrize("bound", ["mle", "lower", "upper"])
    def test_risk_report(self, n, bound, tmp_path, rng):
        lam = rng.random(n) * 3.0
        crossing = PathCrossing(rng.permutation(5000)[:n],
                                rng.random(n) * 0.01 + 0.001,
                                lam, lam * rng.random(n), lam + rng.random(n))
        risk_fn = lambda a: 20.0 * (0.5 + a)
        assert _same_bytes(
            tmp_path,
            lambda f: lfio.save_risk_report(f, crossing, risk_fn, bound),
            lambda f: _oracle_save_risk_report(f, crossing, risk_fn, bound))

    @pytest.mark.parametrize("log", [
        [],
        [EpisodeStep(0.0, 0.25, -0.5, 0.0625, 12, False),
         EpisodeStep(1.0, 1.0 / 3.0, 0.1, 0.9999999999999999, 3, False),
         EpisodeStep(2.0, 0.0, 0.0, math.nan, 0, True)]],
        ids=["empty", "stopped"])
    def test_planner_log(self, log, tmp_path):
        assert _same_bytes(tmp_path, lambda f: lfio.save_planner_log(f, log),
                           lambda f: _oracle_save_planner_log(f, log))

    def test_path_csv(self, tmp_path, rng):
        poses = rng.normal(0.0, 3.0, (500, 3))
        poses[0] = [0.0, -0.0, 1e-300]
        assert _same_bytes(tmp_path, lambda f: lfio.save_path_csv(f, poses),
                           lambda f: _oracle_save_path_csv(f, poses))


@pytest.mark.parametrize("save", [lfio.save_lambda_grid, lfio.save_bayes_grid,
                                  lfio.export_lambda_csv,
                                  lfio.export_bayes_csv])
def test_dump_writer_memory_stays_flat(save, tmp_path):
    """A 400 x 400 dump is written without a whole-grid list of rows or
    strings (about 12 and 19 MB when each cell was a string), and the
    intensity and occupancy CSVs without whole-grid maps (15.4 and 2.56 MB
    when they computed them up front)."""
    grid, bayes = _random_grids(400, 400, 4)
    target = bayes if save in (lfio.save_bayes_grid,
                               lfio.export_bayes_csv) else grid
    tracemalloc.start()
    try:
        save(target, tmp_path / "grid.dump")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, peak


@pytest.mark.parametrize("kind", ["lambda", "bayes"])
def test_dump_loader_memory_stays_flat(kind, tmp_path):
    """A 400 x 400 dump is parsed a block of lines at a time straight into
    the grid's arrays (1.28 MB); reading every line into a list first
    peaked at 14 MB."""
    grid, bayes = _random_grids(400, 400, 5)
    save, load = {"lambda": (lfio.save_lambda_grid, lfio.load_lambda_grid),
                  "bayes": (lfio.save_bayes_grid, lfio.load_bayes_grid)}[kind]
    save(grid if kind == "lambda" else bayes, tmp_path / "grid.dump")
    tracemalloc.start()
    try:
        loaded = load(tmp_path / "grid.dump")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, peak
    if kind == "lambda":
        np.testing.assert_array_equal(loaded.hits, grid.hits)
        np.testing.assert_array_equal(loaded.misses, grid.misses)
    else:
        np.testing.assert_array_equal(loaded.log_odds.view(np.uint64),
                                      bayes.log_odds.view(np.uint64))


class TestStreamedDumpBody:
    def test_size_beyond_the_file_allocates_no_grid(self, populated_grid,
                                                    tmp_path):
        """A corrupt size fails before a grid of that size is allocated
        (8 MB of counts for 1000 x 1000 cells)."""
        f = tmp_path / "grid.dump"
        lfio.save_lambda_grid(populated_grid, f)
        f.write_text(f.read_text().replace("size 12 9\n", "size 1000 1000\n"))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                lfio.load_lambda_grid(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, peak

    @pytest.mark.parametrize("kind,marker,row", [("lambda", "counts", "1 2 #"),
                                                 ("bayes", "logodds", "0.5 #")])
    def test_comment_in_body_rejected(self, kind, marker, row, populated_grid,
                                      tmp_path):
        """A dump body holds numbers only; a ``#`` is not a comment there."""
        f = tmp_path / "grid.dump"
        if kind == "lambda":
            lfio.save_lambda_grid(populated_grid, f)
        else:
            lfio.save_bayes_grid(BayesGrid(populated_grid.geometry), f)
        f.write_text(_with_first_row(f.read_text(), marker, row))
        load = lfio.load_lambda_grid if kind == "lambda" else lfio.load_bayes_grid
        with pytest.raises(ValueError):
            load(f)

    @pytest.mark.parametrize("rows", [0, lfio.TABLE_BLOCK_ROWS])
    def test_body_ending_at_a_block_start_fails_without_warning(self, rows,
                                                                tmp_path):
        """A body cut where a block of lines starts raises ValueError, and
        no 'input contained no data' warning from the parser."""
        _, bayes = _random_grids(70, 61, 6)
        f = tmp_path / "bayes.dump"
        lfio.save_bayes_grid(bayes, f)
        head, body = f.read_text().split("\nlogodds\n")
        f.write_text(head + "\nlogodds\n"
                     + "".join(body.splitlines(keepends=True)[:rows]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="body is not"):
                lfio.load_bayes_grid(f)


def _oracle_write_table(path, head, columns, **fmtparams):
    """``io._write_table`` as it was before it formatted each distinct value
    once: ``csv.writer`` on the ``tolist()`` values of each block."""
    n_rows = len(columns[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, **fmtparams)
        writer.writerows(head)
        for start in range(0, n_rows, lfio.TABLE_BLOCK_ROWS):
            stop = min(start + lfio.TABLE_BLOCK_ROWS, n_rows)
            block = [np.asarray(c[start:stop]).tolist() for c in columns]
            writer.writerows(zip(*block))


def _float(bits: int) -> float:
    return float(np.uint64(bits).view(np.float64))


# Signed zeros and NaNs (equal or unordered as values), infinities, subnormals
# and 1-ulp neighbours: what a writer keyed on anything but the bits mixes up
SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, _float(0x7FF8000000000001),
                  _float(0xFFF0000000000001), math.inf, -math.inf, 5e-324,
                  -5e-324, 1e-310, 2.2250738585072014e-308, 1.0,
                  1.0000000000000002, 0.1, 0.30000000000000004, 1e300]
INT64_EXTREMES = [-2 ** 63, 2 ** 63 - 1, -1, 0, 1]


@st.composite
def table_columns(draw):
    """Equal-length columns of the kinds the package writes: float64,
    uint32 and int64 arrays, and Python lists of floats, ints or both, each
    drawn from a small pool of values."""
    n_rows = draw(st.sampled_from([0, 1, lfio.TABLE_BLOCK_ROWS,
                                   lfio.TABLE_BLOCK_ROWS + 1]))
    drawn = draw(st.lists(st.floats(), max_size=6))
    floats = np.array(SPECIAL_FLOATS + drawn
                      + [math.nextafter(x, math.inf) for x in drawn])
    counts = np.array([0, 1, COUNT_MAX - 1, COUNT_MAX]
                      + draw(st.lists(st.integers(0, COUNT_MAX), max_size=6)),
                      dtype=np.uint32)
    ints = np.array(INT64_EXTREMES + draw(st.lists(
        st.integers(-2 ** 63, 2 ** 63 - 1), max_size=6)), dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pick = lambda pool: pool[rng.integers(0, len(pool), n_rows)]
    kinds = {
        "float64": lambda: pick(floats),
        "uint32": lambda: pick(counts),
        "int64": lambda: pick(ints),
        "float list": lambda: pick(floats).tolist(),
        "int list": lambda: pick(ints).tolist(),
        "mixed list": lambda: [int(v) if rng.random() < 0.5 else float(v)
                               for v in pick(counts).tolist()],
    }
    names = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1,
                          max_size=5))
    return [kinds[name]() for name in ["float64", *names]]


class TestWriteTableMatchesCsvWriter:
    """``_write_table`` gives the bytes of ``csv.writer`` for every value
    kind it is passed, at row counts around a block."""

    @settings(max_examples=60, deadline=None)
    @given(columns=table_columns(),
           fmt=st.sampled_from([(",", "\r\n"), (" ", "\n")]))
    def test_same_bytes(self, tmp_path_factory, columns, fmt):
        directory = tmp_path_factory.mktemp("table")
        delimiter, lineterminator = fmt
        head = [("a", "b c", 1.5), ("marker",)]
        lfio._write_table(directory / "new", head, columns, delimiter,
                          lineterminator)
        _oracle_write_table(directory / "oracle", head, columns,
                            delimiter=delimiter, lineterminator=lineterminator)
        assert ((directory / "new").read_bytes()
                == (directory / "oracle").read_bytes())


def _first_cells(grid, start):
    """The first cell of each distinct (h, m) pair of the block of rows
    from ``start``, in cell order."""
    rows = slice(start, start + lfio.TABLE_BLOCK_ROWS)
    _, first = np.unique(np.stack([grid.hits[rows], grid.misses[rows]], 1),
                         axis=0, return_index=True)
    return np.sort(first) + start


def test_each_distinct_value_formatted_once_per_block(monkeypatch, tmp_path):
    """A 400 x 400 export whose counts hold few distinct pairs formats the
    five count-dependent values of each distinct (h, m) pair once per block
    of rows, and each col and row number once per table, not each of its
    1.12 M values."""
    grid, _ = _random_grids(400, 400, 7)
    calls = 0

    def counting_repr(value):
        nonlocal calls
        calls += 1
        return repr(value)

    monkeypatch.setattr(lfio, "repr", counting_repr, raising=False)
    lfio.export_lambda_csv(grid, tmp_path / "grid.csv")
    geo = grid.geometry
    expected = geo.n_cols + geo.n_rows + 5 * sum(
        len(_first_cells(grid, start))
        for start in range(0, geo.n_cells, lfio.TABLE_BLOCK_ROWS))
    assert calls == expected < 10_000


def test_bounds_computed_once_per_block(monkeypatch, tmp_path):
    """The intensity CSV takes both bound columns of a block from one
    ``bound_maps`` call on the first cell of each distinct (h, m) pair of
    the block; 70 x 61 cells are two blocks."""
    grid, _ = _random_grids(70, 61, 8)
    blocks = []
    bound_maps = LambdaGrid.bound_maps
    monkeypatch.setattr(LambdaGrid, "bound_maps", lambda self, cells:
                        blocks.append(cells) or bound_maps(self, cells))
    lfio.export_lambda_csv(grid, tmp_path / "grid.csv")
    assert len(blocks) == 2
    for start, cells in zip((0, lfio.TABLE_BLOCK_ROWS), blocks):
        assert sorted(cells.tolist()) == _first_cells(grid, start).tolist()
