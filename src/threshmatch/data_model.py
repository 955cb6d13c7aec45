"""Observation container, CSV ingestion, and the three-way sample split.

The estimator consumes columnar samples ``(y, x, z, q)`` plus a fixed
threshold ``tau0``: ``y`` is the outcome, ``q`` the score that allocates
treatment, ``x`` the outcome-side covariates, and ``z`` the score-side
covariates.  Treatment is assigned whenever ``q >= tau0`` -- the cutoff
itself is treated.  ``x`` and ``z`` may share columns (including ``x == z``).

Data files and prediction grids go through one strict column reader,
:func:`read_columns`, whose docstring describes how it parses a file.
Data and prediction files are written by one writer,
:func:`write_columns`.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateColumn,
    IndexOutOfRange,
    InputError,
    MissingColumn,
    NonFiniteValue,
    ParseError,
    TooFewRows,
)
from .rng import rng_from

MIN_ROWS = 9  # smallest n for which each of the three splits is nonempty

# Plain decimal or scientific notation only: no underscores, no locale
# separators, no inf/nan spellings.  Keeps file parsing bit-reproducible.
_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _check_tau0(tau0: float) -> None:
    if not np.isfinite(tau0):
        raise InputError(f"threshold tau0 must be finite, got {float(tau0)!r}")


@dataclass(frozen=True)
class ObservationSet:
    """Immutable columnar sample.

    Attributes
    ----------
    y : (n,) outcome values
    x : (n, dX) outcome-side covariates
    z : (n, dZ) score-side covariates
    q : (n,) score values
    tau0 : treatment threshold; rows with ``q >= tau0`` are treated
    """

    y: np.ndarray
    x: np.ndarray
    z: np.ndarray
    q: np.ndarray
    tau0: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        z = np.atleast_2d(np.asarray(self.z, dtype=np.float64))
        q = np.asarray(self.q, dtype=np.float64)
        if y.ndim != 1 or q.ndim != 1:
            raise DimensionMismatch("y and q must be one-dimensional")
        n = y.shape[0]
        if not (x.shape[0] == z.shape[0] == q.shape[0] == n):
            raise DimensionMismatch(
                f"row counts differ: y={n}, x={x.shape[0]}, z={z.shape[0]}, q={q.shape[0]}"
            )
        if n < MIN_ROWS:
            raise TooFewRows(n, MIN_ROWS)
        if x.shape[1] < 1 or z.shape[1] < 1:
            raise DimensionMismatch("x and z need at least one column each")
        for name, arr in (("y", y), ("x", x), ("z", z), ("q", q)):
            if not np.all(np.isfinite(arr)):
                bad = np.argwhere(~np.isfinite(arr))[0]
                raise NonFiniteValue(int(bad[0]), name)
        _check_tau0(self.tau0)
        y.setflags(write=False)
        x.setflags(write=False)
        z.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "tau0", float(self.tau0))

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def d_x(self) -> int:
        return self.x.shape[1]

    @property
    def d_z(self) -> int:
        return self.z.shape[1]

    def with_z_intercept(self) -> "ObservationSet":
        """Return a copy whose z matrix carries an appended constant column.

        The score regression has no implicit intercept; callers opt in here.
        """
        ones = np.ones((self.n, 1))
        return ObservationSet(self.y, self.x, np.hstack([self.z, ones]), self.q, self.tau0)

    def take(self, idx: np.ndarray) -> "ObservationSet":
        """Return the row subset (with repetition allowed, for resampling)."""
        idx = check_indices(idx, self.n)
        return ObservationSet(self.y[idx], self.x[idx], self.z[idx], self.q[idx], self.tau0)


@dataclass(frozen=True)
class ColumnSpec:
    """Names mapping CSV columns onto the estimator's roles.

    ``x_cols`` and ``z_cols`` may overlap or coincide, but neither may name
    a column twice.  ``y_col`` and ``q_col`` must be distinct, the outcome
    may not also be a covariate, and the score may not explain itself
    through ``z_cols``.  ``tau0`` must be finite; it is checked here so a
    bad threshold fails before any file is read.
    """

    y_col: str
    q_col: str
    x_cols: list[str]
    z_cols: list[str]
    tau0: float

    def __post_init__(self):
        if self.y_col == self.q_col:
            raise DimensionMismatch("y_col and q_col must be distinct columns")
        if not self.x_cols or not self.z_cols:
            raise DimensionMismatch("x_cols and z_cols must be nonempty")
        for role, cols in (("x_cols", self.x_cols), ("z_cols", self.z_cols)):
            for name in cols:
                if cols.count(name) > 1:
                    raise DimensionMismatch(f"column {name!r} appears more than once in {role}")
                if name == self.y_col:
                    raise DimensionMismatch(f"outcome column {name!r} is also in {role}")
        if self.q_col in self.z_cols:
            raise DimensionMismatch(f"score column {self.q_col!r} is also in z_cols")
        _check_tau0(self.tau0)


@dataclass(frozen=True)
class SplitAssignment:
    """Disjoint index partition ``i1, i2, i3`` covering ``{0..n-1}``.

    The first two parts have ``floor(n/3)`` rows each and the third takes
    the remainder.  Index lists are stored sorted ascending; membership,
    not order, is what a split means.
    """

    i1: np.ndarray
    i2: np.ndarray
    i3: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "i1", np.sort(row_indices(self.i1)))
        object.__setattr__(self, "i2", np.sort(row_indices(self.i2)))
        object.__setattr__(self, "i3", np.sort(row_indices(self.i3)))

    def rotations(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The three cyclic role rotations used by cross-fitting."""
        return [
            (self.i1, self.i2, self.i3),
            (self.i2, self.i3, self.i1),
            (self.i3, self.i1, self.i2),
        ]


def split_three_way(n: int, seed: int = 0) -> SplitAssignment:
    """Partition ``{0..n-1}`` into three parts of sizes ``(k, k, n-2k)``, ``k = n//3``.

    The indices are permuted by a seeded pseudorandom permutation before
    slicing, which restores exchangeability for files that arrive sorted.
    Deterministic for fixed ``(n, seed)``.
    """
    if n < MIN_ROWS:
        raise TooFewRows(n, MIN_ROWS)
    order = rng_from(seed).permutation(n).astype(np.intp)
    k = n // 3
    return SplitAssignment(order[:k], order[k : 2 * k], order[2 * k :])


def treatment_mask(obs: ObservationSet) -> np.ndarray:
    """Boolean vector: True where ``q >= tau0``.  The cutoff itself is treated."""
    return obs.q >= obs.tau0


def row_indices(idx: np.ndarray) -> np.ndarray:
    """``idx`` as an ``intp`` array; a row-index array needs an integer dtype.

    An empty array of any dtype passes.  Anything else, such as a boolean
    mask or a float array, raises DimensionMismatch naming its dtype.
    """
    idx = np.asarray(idx)
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise DimensionMismatch(f"row indices need an integer dtype, got {idx.dtype}")
    return idx.astype(np.intp, copy=False)


def check_indices(idx: np.ndarray, n: int) -> np.ndarray:
    """Validate an index list against ``n`` rows; returns it as ``intp``."""
    idx = row_indices(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        bad = idx[(idx < 0) | (idx >= n)][0]
        raise IndexOutOfRange(int(bad), n)
    return idx


def rows_at(rows: np.ndarray | None, idx: np.ndarray) -> np.ndarray:
    """The data rows behind positions ``idx`` of a resample: ``rows[idx]``.

    ``rows`` maps each position of a bootstrap resample to the row it
    copies.  Without one (``None``) positions are rows and ``idx`` comes
    back as it is, so a plain run gathers nothing.
    """
    return idx if rows is None else rows[idx]


def _parse_cell(cell: str, row: int, col: str) -> float:
    text = cell.strip()
    if not _NUMBER_RE.match(text):
        raise ParseError(row, col, cell)
    value = float(text)
    if not math.isfinite(value):
        raise NonFiniteValue(row, col)
    return value


def _parse_column(rows: list[list[str]], pos: int, name: str) -> np.ndarray:
    """Cell ``pos`` of every row as float64, checked against the strict grammar.

    Raises the first bad cell's error with its exact row and column.
    """
    values = np.empty(len(rows), dtype=np.float64)
    for r, raw in enumerate(rows):
        if pos >= len(raw):
            raise ParseError(r, name, "<missing>")
        values[r] = _parse_cell(raw[pos], r, name)
    return values


def _parse_one_pass(lines: Iterator[str], positions: list[int]) -> np.ndarray | None:
    """``lines`` as an ``(n, len(positions))`` array in one ``np.loadtxt`` pass, or None.

    None (a cell loadtxt cannot parse, a short row, a line of only ``""``,
    a non-finite value, or no rows at all, which loadtxt only warns about)
    leaves the verdict to the per-cell reader.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            values = np.loadtxt(
                lines, delimiter=",", usecols=positions, dtype=np.float64, ndmin=2,
                comments=None, quotechar='"', encoding="utf-8",
            )
    except (ValueError, UserWarning):
        return None
    return values if np.isfinite(values).all() else None


def _column_positions(header: list[str], names: list[str]) -> dict[str, int]:
    """Header position of each requested column; each must appear exactly once."""
    positions: dict[str, int] = {}
    for name in names:
        count = header.count(name)
        if count == 0:
            raise MissingColumn(name)
        if count > 1:
            raise DuplicateColumn(name)
        positions[name] = header.index(name)
    return positions


def _lines(data: bytes) -> io.TextIOWrapper:
    """The lines of ``data`` as ``open(path, encoding="utf-8", newline="")`` yields them.

    Decoded lazily from the bytes; a ``StringIO`` of the whole decoded text
    would hold four bytes a character.
    """
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


def read_columns(path: str, names: list[str], min_rows: int) -> np.ndarray:
    """A header-first CSV file's ``names`` as one ``(rows, len(names))`` float64 matrix.

    Column ``k`` holds ``names[k]``; each distinct name is parsed once.
    The matrix is column-major, so each column is contiguous.

    The one reader for data files and prediction grids.  The file is read
    once and must be UTF-8; a byte that is not raises :class:`InputError`
    with its offset.  ``csv.reader`` parses the header.  The body's lines,
    without the whitespace-only ones, are converted in one pass by
    ``np.loadtxt(..., delimiter=",", usecols=..., dtype=np.float64,
    ndmin=2, comments=None, quotechar='"', encoding="utf-8")``: a ``#`` is
    an ordinary character, and quoted cells, quoted fields spanning lines
    or holding commas, and ``""`` escapes split as ``csv.reader`` splits
    them.  loadtxt converts with the parser ``float`` uses, so the bits
    agree, and rejects every cell the strict grammar rejects except the
    non-finite spellings, which an ``isfinite`` check turns away.  A
    whitespace-only line is a record ``csv.reader`` skips, or lies inside
    a quoted field, where it is either in a column nobody requested or
    whitespace that a cell's ``strip()`` removes anyway.

    What that pass turns away (a cell it cannot parse, such as a bad cell
    or a non-ASCII digit, a non-finite value, a line of only ``""``, or
    fewer than ``min_rows`` rows) is decided by ``csv.reader`` and
    :func:`_parse_column`: an empty line (no cells, or a single blank
    cell) is skipped, every other line is a data row, and each cell is
    checked against the strict grammar.  Both conversions give the same
    bits.  Errors come in a fixed order: an absent or twice-named
    requested column, then fewer than ``min_rows`` data rows (an empty
    file counts as zero), then the first bad cell of the first bad column
    in the order of ``names``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: byte {exc.start} is not valid UTF-8") from None
    lines = _lines(data)
    header = next(csv.reader(lines), None)
    if header is None:
        raise TooFewRows(0, min_rows)
    positions = _column_positions([h.strip() for h in header], names)
    distinct = list(dict.fromkeys(names))
    order = [distinct.index(name) for name in names]
    body = (line for line in lines if not line.isspace())
    values = _parse_one_pass(body, [positions[name] for name in distinct])
    if values is not None and len(values) >= min_rows:
        return values[:, order]
    reader = csv.reader(_lines(data))
    next(reader)
    rows = [raw for raw in reader if raw and (len(raw) > 1 or raw[0].strip())]
    if len(rows) < min_rows:
        raise TooFewRows(len(rows), min_rows)
    return np.column_stack([_parse_column(rows, positions[name], name) for name in distinct])[:, order]


def load_csv(path: str, spec: ColumnSpec) -> ObservationSet:
    """Read a UTF-8, comma-separated, header-first CSV into an ObservationSet.

    Cells must be plain decimal or scientific notation; anything else
    (missing cells, locale separators, inf/nan spellings) is an error, as
    is a requested column that is absent from the header or named twice.
    Row order is preserved; empty lines are skipped.  ``y``, ``q``, ``x``
    and ``z`` are slices of the matrix :func:`read_columns` returns for
    ``[y, q, *x_cols, *z_cols]``.
    """
    table = read_columns(path, [spec.y_col, spec.q_col, *spec.x_cols, *spec.z_cols], MIN_ROWS)
    d_x = len(spec.x_cols)
    return ObservationSet(table[:, 0], table[:, 2 : 2 + d_x], table[:, 2 + d_x :], table[:, 1], spec.tau0)


def write_columns(path: str, names: list[str], columns: list[np.ndarray]) -> None:
    """Write a header row of ``names`` and equal-length float columns as CSV.

    The one writer for data files and prediction files.  The header goes
    through ``csv.writer``; each cell is the shortest round-trip ``repr`` of
    its value and each row ends in ``\\r\\n``: the bytes ``csv.writer``
    writes for the same cells, which never need quoting.
    """
    cells = [map(repr, np.asarray(col, dtype=np.float64).tolist()) for col in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(names)
        fh.writelines(",".join(row) + "\r\n" for row in zip(*cells))


def write_csv(path: str, obs: ObservationSet, spec: ColumnSpec) -> list[str]:
    """Serialize an ObservationSet back to CSV with round-trippable floats.

    Of the roles ``y, *x_cols, *z_cols, q``, each name is written once, from
    its first role.  Returns the header.  ``spec`` must name ``obs.d_x`` x
    and ``obs.d_z`` z columns, else DimensionMismatch.
    """
    if (len(spec.x_cols), len(spec.z_cols)) != (obs.d_x, obs.d_z):
        raise DimensionMismatch(
            f"spec names {len(spec.x_cols)} x and {len(spec.z_cols)} z columns, "
            f"the sample has {obs.d_x} and {obs.d_z}"
        )
    roles = [spec.y_col, *spec.x_cols, *spec.z_cols, spec.q_col]
    columns = [obs.y, *obs.x.T, *obs.z.T, obs.q]
    header = list(dict.fromkeys(roles))
    write_columns(path, header, [columns[roles.index(name)] for name in header])
    return header
