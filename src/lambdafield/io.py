"""Serialization: grid dumps, CSV exports, PGM renders, scan logs, path files."""

from __future__ import annotations

import csv
import itertools
import math
from collections import namedtuple
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .bayes import BayesGrid
from .field import COUNT_MAX, LambdaGrid, SensorModel
from .geometry import GridGeometry
from .path import PathCrossing, partial_risks, risk_terms
from .sensor import Beam, GroundTruthMap

LAMBDA_DUMP_MAGIC = "lambda-field-grid"
BAYES_DUMP_MAGIC = "bayes-grid"
DUMP_VERSION = 1
# Rows that tables are written and dumps read at a time: no whole-grid lists
TABLE_BLOCK_ROWS = 4096


_State = namedtuple("_State", "arrays derived index", defaults=((), None))


def _write_table(path: str | Path, head: list, columns: list,
                 delimiter: str = ",", lineterminator: str = "\r\n") -> None:
    """Writes the ``head`` rows through ``csv.writer``, then row i of the
    equal-length ``columns`` for each i, ``TABLE_BLOCK_ROWS`` rows at a time.
    A column is an array or a list (its own ``_State``), or a ``_State``:
    ``arrays`` like those, of one dtype, whose bits (8 bytes a row at most)
    key the row, and ``derived`` functions from row numbers to columns the
    key fixes. So each key's text is built by ``repr`` once per block, at
    its first row, or with an ``index`` (row i is row ``index(i)`` of the
    arrays) once per table."""
    def state_text(state, rows, end):  # of each of the rows (all if None)
        block = np.stack([a if rows is None else a[rows[0]:rows[-1] + 1]
                          for a in state.arrays], 1)
        keys, inverse = np.unique(block.view(f"u{block[0].nbytes}")[:, 0],
                                  return_inverse=True)
        first = np.full(len(keys), len(block))  # each key's first row
        np.minimum.at(first, inverse, np.arange(len(block)))
        cols = [*keys.view(block.dtype).reshape(len(keys), -1).T, *(
            col for f in state.derived for col in np.atleast_2d(f(rows[first])))]
        text = [np.array([*map(repr, col.tolist())], dtype=object) + sep for col, sep
                in zip(cols, [delimiter] * (len(cols) - 1) + [end])]
        return np.add.reduce(text)[inverse]

    columns = [c if isinstance(c, _State) else _State((c,)) for c in columns]
    n_rows = len(next(c.arrays[0] for c in columns if not c.index))
    ends = [delimiter] * (len(columns) - 1) + [lineterminator]
    tables = [c.index and state_text(c, None, end) for c, end in zip(columns, ends)]
    with open(path, "w", newline="") as fh:
        csv.writer(fh, delimiter=delimiter,
                   lineterminator=lineterminator).writerows(head)
        for start in range(0, n_rows, TABLE_BLOCK_ROWS):
            rows = np.arange(start, min(start + TABLE_BLOCK_ROWS, n_rows))
            text = [table[c.index(rows)] if c.index else state_text(c, rows, end)
                    for c, table, end in zip(columns, tables, ends)]
            fh.write("".join(np.stack(text, 1).ravel().tolist()))


def save_lambda_grid(grid: LambdaGrid, path: str | Path) -> None:
    """Versioned textual dump: geometry, sensor model and (h, m) pairs
    in row-major order; each distinct pair of a block is formatted once."""
    s = grid.sensor
    _write_dump(path, LAMBDA_DUMP_MAGIC, grid.geometry,
                [("lambda_max", grid.lambda_max),
                 ("sensor", s.p_hit, s.p_miss, s.error_area, s.max_range)],
                "counts", [_State((grid.hits, grid.misses))])


def load_lambda_grid(path: str | Path) -> LambdaGrid:
    dump = _read_dump(path, LAMBDA_DUMP_MAGIC, {"lambda_max": 1, "sensor": 4},
                      "counts", np.int64, 2)
    geo, header = next(dump)
    grid = LambdaGrid(geo, SensorModel(*header["sensor"]),
                      lambda_max=header["lambda_max"][0])
    for rows, counts in dump:
        if counts.min() < 0 or counts.max() > COUNT_MAX:
            raise ValueError(f"{path}: counts must be pairs of integers "
                             f"in [0, {COUNT_MAX}]")
        grid.hits[rows], grid.misses[rows] = counts.T
    return grid


def save_bayes_grid(grid: BayesGrid, path: str | Path) -> None:
    _write_dump(path, BAYES_DUMP_MAGIC, grid.geometry,
                [("clamp", grid.log_odds_clamp),
                 ("updates", grid.l_occ, grid.l_free)],
                "logodds", [grid.log_odds])


def load_bayes_grid(path: str | Path) -> BayesGrid:
    dump = _read_dump(path, BAYES_DUMP_MAGIC, {"clamp": 1, "updates": 2},
                      "logodds", np.float64, 1)
    geo, header = next(dump)
    grid = BayesGrid(geo, log_odds_clamp=header["clamp"][0])
    grid.l_occ, grid.l_free = header["updates"]
    for rows, log_odds in dump:
        if not np.isfinite(log_odds).all():
            raise ValueError(f"{path}: log-odds must be finite")
        grid.log_odds[rows] = log_odds[:, 0]
    return grid


def _write_dump(path: str | Path, magic: str, geo: GridGeometry,
                fields: list[tuple], marker: str, columns: list) -> None:
    """Magic line, geometry, one ``key value...`` line per field, the body
    marker, then one line per cell of its ``columns`` values."""
    head = [(magic, DUMP_VERSION),
            ("origin", geo.origin_x, geo.origin_y),
            ("resolution", geo.resolution),
            ("size", geo.n_cols, geo.n_rows),
            *fields, (marker,)]
    _write_table(path, head, columns, delimiter=" ", lineterminator="\n")


def _read_dump(path: str | Path, magic: str, arity: dict[str, int],
               marker: str, dtype, width: int) -> Iterator[tuple]:
    """Inverse of ``_write_dump``, streamed: yields (geometry, header values
    by key), then (rows, values) for each block of body lines, ``values`` a
    (lines, ``width``) array of ``dtype``. ``arity`` gives the number of
    values of each key after the geometry. Raises ValueError on a wrong magic
    or version, a malformed header, a body that is not one line per cell, or
    a file too short for that body (before yielding, so no grid is made)."""
    with open(path) as fh:
        if fh.readline().split() != [magic, str(DUMP_VERSION)]:
            raise ValueError(f"not a {magic} dump: {path}")
        head = itertools.takewhile(lambda line: line.rstrip("\n") != marker, fh)
        header = {key: [float(v) for v in vals]
                  for key, *vals in map(str.split, head)}
        arity = {"origin": 2, "resolution": 1, "size": 2, **arity}
        for key, n in arity.items():
            if len(header.get(key, ())) != n:
                raise ValueError(f"{path}: header needs {key!r} with {n} value(s)")
        cols, rows = header["size"]
        if not (cols.is_integer() and rows.is_integer()):
            raise ValueError(f"{path}: grid size must be integers")
        geo = GridGeometry(*header["origin"], header["resolution"][0],
                           int(cols), int(rows))
        error = ValueError(f"{path}: body is not {geo.n_cells} x {width} values")
        if 2 * geo.n_cells > Path(path).stat().st_size:  # 2 bytes a row at least
            raise error
        yield geo, header
        for start in range(0, geo.n_cells, TABLE_BLOCK_ROWS):
            rows = slice(start, min(start + TABLE_BLOCK_ROWS, geo.n_cells))
            lines = itertools.islice(fh, rows.stop - start)
            if not (first := next(lines, "")):  # loadtxt warns on no lines
                raise error
            values = np.loadtxt(itertools.chain([first], lines), dtype=dtype,
                                ndmin=2, comments=None)
            if values.shape != (rows.stop - start, width):
                raise error
            yield rows, values
        if fh.readline():
            raise error


def export_lambda_csv(grid: LambdaGrid, path: str | Path) -> None:
    """col,row,h,m,lambda,lambda_low,lambda_high per cell, keyed by (h, m): one
    ``lambda_map`` and ``bound_maps`` call a block, at each pair's first cell."""
    _grid_csv(path, grid.geometry, ["h", "m", "lambda", "lambda_low", "lambda_high"],
              _State((grid.hits, grid.misses), (grid.lambda_map, grid.bound_maps)))


def export_bayes_csv(grid: BayesGrid, path: str | Path) -> None:
    """col,row,log_odds,p_occ for every cell, keyed by the log-odds bits."""
    _grid_csv(path, grid.geometry, ["log_odds", "p_occ"],
              _State((grid.log_odds,), (grid.occupancy,)))


def _grid_csv(path: str | Path, geo: GridGeometry, names: list, state: _State) -> None:
    """col,row (formatted once per table), then ``state``, for every cell."""
    _write_table(path, [("col", "row", *names)], [
        _State((np.arange(geo.n_cols),), index=lambda i: i % geo.n_cols),
        _State((np.arange(geo.n_rows),), index=lambda i: i // geo.n_cols), state])


def export_lambda_pgm(grid: LambdaGrid, path: str | Path) -> None:
    """16-bit PGM of the intensity map; pixel = lambda * 65535 / lambda_max.

    The scale factor is declared in a comment header so renders are
    self-describing. Row 0 of the grid is the first raster row.
    """
    lam = grid.lambda_map()
    write_pgm(path, lam.reshape(grid.geometry.n_rows, grid.geometry.n_cols),
              65535.0 / grid.lambda_max)


def export_bayes_pgm(grid: BayesGrid, path: str | Path) -> None:
    occ = grid.occupancy().reshape(grid.geometry.n_rows, grid.geometry.n_cols)
    write_pgm(path, occ, 65535.0)


def write_pgm(path: str | Path, values: np.ndarray, scale: float) -> None:
    pixels = np.clip(np.round(values * scale), 0, 65535)
    header = f"P5\n# scale {scale!r}\n{values.shape[1]} {values.shape[0]}\n65535\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(pixels.astype(">u2").tobytes())


def read_pgm(path: str | Path) -> tuple[np.ndarray, float]:
    """Binary PGM reader; returns (raw pixel array, declared scale or 1.0)."""
    data = Path(path).read_bytes()
    pos = 0
    tokens: list[bytes] = []
    scale = 1.0
    while len(tokens) < 4:
        # tokenize header, honoring comment lines (which may carry the scale)
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            end = data.index(b"\n", pos)
            comment = data[pos + 1:end].split()
            if len(comment) == 2 and comment[0] == b"scale":
                scale = float(comment[1])
            pos = end + 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    if tokens[0] != b"P5":
        raise ValueError(f"unsupported PGM magic {tokens[0]!r}")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if width < 1 or height < 1 or not 1 <= maxval <= 65535:
        raise ValueError(f"bad PGM size {width}x{height} or maxval {maxval}")
    pos += 1  # single whitespace after maxval
    size = width * height * (2 if maxval > 255 else 1)
    pixels = np.frombuffer(data[pos:pos + size], ">u2" if maxval > 255 else "u1"
                           ).reshape(height, width)  # ValueError if truncated
    return pixels.astype(np.float64), scale


def load_ground_truth(path: str | Path, geometry: GridGeometry) -> GroundTruthMap:
    """Ground-truth intensities on ``geometry`` from 8-bit PGM (pixel * scale)
    or CSV (col,row,lambda)."""
    path = Path(path)
    if path.suffix.lower() == ".pgm":
        pixels, scale = read_pgm(path)
        return GroundTruthMap(geometry, pixels.reshape(-1) * scale)
    # ValueError on a non-number or on rows of different lengths
    table = np.array(_csv_rows(path, ["col", "row", "lambda"])
                     or np.empty((0, 3)), dtype=np.float64)
    if table.shape[1:] != (3,):
        raise ValueError(f"{path}: rows must be col,row,lambda")
    cells = table[:, :2]
    if not ((cells == np.floor(cells)) & (cells >= 0)
            & (cells < [geometry.n_cols, geometry.n_rows])).all():
        raise ValueError(f"{path}: a col,row is not a cell of the grid")
    values = np.zeros(geometry.n_cells)
    values[(cells @ [1, geometry.n_cols]).astype(np.int64)] = table[:, 2]
    return GroundTruthMap(geometry, values)


def _csv_rows(path: str | Path, header: list[str]) -> list[list[str]]:
    """The rows after a first row that starts with ``header``. Raises
    ValueError if there is no such first row or the file is not CSV."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not rows or [h.strip() for h in rows[0][:len(header)]] != header:
        raise ValueError(f"{path}: unexpected CSV header {rows[:1]}, "
                         f"want {','.join(header)},...")
    return rows[1:]


def save_scan_log(path: str | Path,
                  scans: list[tuple[float, tuple[float, float, float], list[Beam]]]
                  ) -> None:
    """CSV of (t, pose_x, pose_y, pose_theta, angle, range, hit), one row per beam."""
    values = [(t, pose[0], pose[1], pose[2],
               math.atan2(beam.direction[1], beam.direction[0]),
               beam.measured_range) for t, pose, beams in scans for beam in beams]
    hits = [int(beam.hit) for _, _, beams in scans for beam in beams]
    _write_table(path, [("t", "pose_x", "pose_y", "pose_theta", "angle",
                         "range", "hit")],
                 [*np.array(values, dtype=np.float64).reshape(-1, 6).T, hits])


def save_risk_report(path: str | Path, crossing: PathCrossing, risk_fn,
                     use_bound: str = "mle") -> None:
    """Per-cell CSV of (cell_index, cum_area, lambda, f, cdf, partial_risk)
    for plotting density/CDF curves along a crossing.

    ``f`` is the first-collision density at the cell's entry and
    ``partial_risk`` the cell's term of ``expected_risk``.
    """
    lam, cum, survive, hit = risk_terms(crossing, use_bound)
    _write_table(path, [("cell_index", "cum_area", "lambda", "f", "cdf",
                         "partial_risk")],
                 [crossing.cells, cum[:-1], lam, survive * lam,
                  np.cumsum(survive * hit),
                  partial_risks(crossing, risk_fn, use_bound)])


def save_planner_log(path: str | Path, log) -> None:
    """CSV of (t, v, omega, risk_upper, n_admissible, stopped_flag) per step."""
    names = ("t", "v", "omega", "risk_upper", "n_admissible")
    _write_table(path, [(*names, "stopped_flag")],
                 [*([getattr(step, name) for step in log] for name in names),
                  [int(step.stopped) for step in log]])


def load_path_csv(path: str | Path) -> np.ndarray:
    """(N, 3) array of poses from a CSV of x,y,theta rows; a missing theta
    is 0. Raises ValueError on a missing header, a row without x and y, or a
    value that is not a finite number."""
    rows = [row[:3] for row in _csv_rows(path, ["x", "y"]) if row]
    if any(len(row) < 2 for row in rows):
        raise ValueError(f"{path}: a pose row has no y value")
    poses = np.asarray([[float(v) for v in row] + [0.0] * (3 - len(row))
                        for row in rows], dtype=np.float64)
    if not np.isfinite(poses).all():
        raise ValueError(f"{path}: pose values must be finite")
    return poses


def save_path_csv(path: str | Path, poses: np.ndarray) -> None:
    """CSV of x,y,theta, one row per pose of an (N, 3) array."""
    _write_table(path, [("x", "y", "theta")],
                 list(np.asarray(poses, dtype=np.float64)[:, :3].T))
