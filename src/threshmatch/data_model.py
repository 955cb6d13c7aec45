"""Observation container, CSV ingestion, and the three-way sample split.

The estimator consumes columnar samples ``(y, x, z, q)`` plus a fixed
threshold ``tau0``: ``y`` is the outcome, ``q`` the score that allocates
treatment, ``x`` the outcome-side covariates, and ``z`` the score-side
covariates.  Treatment is assigned whenever ``q >= tau0`` -- the cutoff
itself is treated.  ``x`` and ``z`` may share columns (including ``x == z``).

Data files and prediction grids go through one strict column parser,
which :func:`read_columns` and :func:`load_csv` share and whose rules
:func:`read_columns`'s docstring describes.
Data and prediction files are written by one writer,
:func:`write_columns`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import math
import operator
import re
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import BinaryIO

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
WRITE_BLOCK_ROWS = 4096  # rows write_columns formats and writes at a time
READ_BLOCK_LINES = 1024  # most lines of a CSV body parsed at a time, unless a record spans more
READ_CHUNK_BYTES = io.DEFAULT_BUFFER_SIZE  # most bytes a CSV read takes from its file at a time

# Plain decimal or scientific notation only: no underscores, no locale
# separators, no inf/nan spellings.  Keeps file parsing bit-reproducible.
_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _check_tau0(tau0: float) -> None:
    if not np.isfinite(tau0):
        raise InputError(f"threshold tau0 must be finite, got {float(tau0)!r}")


def _row_major(a: np.ndarray) -> np.ndarray:
    """``a``, or a C-ordered copy of it unless BLAS can read it row by row.

    A matrix is kept when each row is contiguous and rows lie at least a
    row apart in increasing order, as in a column slice of a C-ordered
    array.  Any other layout (column-major, a reversed or overlapping row
    stride) would send ``a @ v`` to another kernel that sums in another
    order.
    """
    row_stride, col_stride = a.strides
    if col_stride == a.itemsize and row_stride >= a.shape[1] * a.itemsize:
        return a
    return np.ascontiguousarray(a)


def _column_run(x: np.ndarray, z: np.ndarray) -> int | None:
    """``s`` if ``x`` is the view ``z[:, s : s + x.shape[1]]``, else None.

    Two matrices of the same row count and strides whose first elements lie
    ``s`` items apart, with ``x``'s columns inside ``z``'s rows, address the
    same memory as that view.
    """
    start, rest = divmod(x.ctypes.data - z.ctypes.data, z.itemsize)
    if x.strides != z.strides or x.shape[0] != z.shape[0] or rest:
        return None
    return start if 0 <= start <= z.shape[1] - x.shape[1] else None


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """Immutable columnar sample.

    Attributes
    ----------
    y : (n,) outcome values
    x : (n, dX) outcome-side covariates
    z : (n, dZ) score-side covariates; an ``x`` or ``z`` of any other
        number of dimensions raises DimensionMismatch naming its shape
    q : (n,) score values
    tau0 : treatment threshold; rows with ``q >= tau0`` are treated

    ``x`` and ``z`` are stored row-major.  A matrix whose rows are each
    contiguous and lie in increasing order, at least a row apart, is kept
    as given: the generator's ``x``, a column slice of its ``z``, is not
    copied, and neither is :func:`load_csv`'s ``x`` when its columns are a
    run of ``z``'s, which it then stores once, as a view of ``z``.  Any
    other layout, such as a column-major matrix, is copied into C order.
    The pipeline's per-row products ``x @ beta_hat`` and ``z @ gamma_hat``
    therefore take the same BLAS kernel, and give the same bits, whatever
    layout the caller passed.
    """

    y: np.ndarray
    x: np.ndarray
    z: np.ndarray
    q: np.ndarray
    tau0: float

    def __post_init__(self):
        y, x, z, q = (np.asarray(a, dtype=np.float64) for a in (self.y, self.x, self.z, self.q))
        if y.ndim != 1 or q.ndim != 1:
            raise DimensionMismatch("y and q must be one-dimensional")
        for name, a in (("x", x), ("z", z)):
            if a.ndim != 2:
                raise DimensionMismatch(f"{name} must be an (n, d) matrix, got shape {a.shape}")
        x, z = _row_major(x), _row_major(z)
        n = y.shape[0]
        if not (x.shape[0] == z.shape[0] == q.shape[0] == n):
            raise DimensionMismatch(
                f"row counts differ: y={n}, x={x.shape[0]}, z={z.shape[0]}, q={q.shape[0]}"
            )
        if n < MIN_ROWS:
            raise TooFewRows(n, MIN_ROWS)
        if x.shape[1] < 1 or z.shape[1] < 1:
            raise DimensionMismatch("x and z need at least one column each")
        columns = {"y": y, "x": x, "z": z, "q": q}
        for name, arr in columns.items():
            if not np.all(np.isfinite(arr)):
                bad = np.argwhere(~np.isfinite(arr))[0]
                raise NonFiniteValue(int(bad[0]), name)
        _check_tau0(self.tau0)
        for name, arr in columns.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
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
        An ``x`` that views a run of ``z``'s columns, as the generator's and
        :func:`load_csv`'s may, becomes the same view of the new ``z``, so
        the result does not keep the old ``z`` alive behind it.
        """
        z = np.hstack([self.z, np.ones((self.n, 1))])
        start = _column_run(self.x, self.z)
        x = self.x if start is None else z[:, start : start + self.d_x]
        return ObservationSet(self.y, x, z, self.q, self.tau0)

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


@dataclass(frozen=True, eq=False)
class SplitAssignment:
    """Disjoint index partition ``i1, i2, i3`` covering ``{0..n-1}``.

    ``n`` is the sum of the parts' sizes.  Each part needs integer row
    indices (:func:`row_indices`), of any shape: a part is the rows it
    holds, stored flat.  Then every index must lie in ``0..n-1``,
    else IndexOutOfRange names it, and every row must appear exactly once,
    else DimensionMismatch names a row found in two parts or twice in one.
    :func:`split_three_way` gives the first two parts ``floor(n/3)`` rows
    each and the third the remainder.  Index lists are stored sorted
    ascending; membership, not order, is what a split means.
    """

    i1: np.ndarray
    i2: np.ndarray
    i3: np.ndarray

    def __post_init__(self):
        parts = [np.sort(row_indices(p), axis=None) for p in (self.i1, self.i2, self.i3)]
        n = sum(p.size for p in parts)
        # a sorted part lies in 0..n-1 when its first and last rows do
        check_indices([p[end] for p in parts if p.size for end in (0, -1)], n)
        cover = np.zeros(n, dtype=bool)
        for name, p in zip(("i1", "i2", "i3"), parts):
            cover[p] = True
            object.__setattr__(self, name, p)
        if not cover.all():  # n indices in range miss a row only if one repeats
            row = np.flatnonzero(np.bincount(np.concatenate(parts)) > 1)[0]
            raise DimensionMismatch(f"row {row} appears more than once in the split")

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
    if whole_number(n, "n") < MIN_ROWS:
        raise TooFewRows(n, MIN_ROWS)
    order = rng_from(seed).permutation(n).astype(np.intp, copy=False)
    k = n // 3
    return SplitAssignment(order[:k], order[k : 2 * k], order[2 * k :])


def treatment_mask(obs: ObservationSet) -> np.ndarray:
    """Boolean vector: True where ``q >= tau0``.  The cutoff itself is treated."""
    return obs.q >= obs.tau0


def whole_number(value: int, name: str) -> int:
    """``value`` as an ``int`` by Python's own rule, ``operator.index``.

    A count (rows, replicates, samples, degrees of freedom) must be an
    integer of any integer type.  Anything else, a float such as ``300.5``
    or ``300.0`` included, raises DimensionMismatch naming ``name``.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise DimensionMismatch(f"{name} must be an integer, got {value!r}") from None


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


def _parse_column(rows: list[list[str]], pos: int, name: str, offset: int) -> np.ndarray:
    """Cell ``pos`` of every row as float64, checked against the strict grammar.

    Raises the first bad cell's error with its column and its row, counted
    from ``offset``, the number of rows before ``rows``.
    """
    values = np.empty(len(rows), dtype=np.float64)
    for r, raw in enumerate(rows):
        cell = raw[pos] if pos < len(raw) else "<missing>"
        text = cell.strip()
        if not _NUMBER_RE.match(text):
            raise ParseError(offset + r, name, cell)
        values[r] = float(text)
        if not math.isfinite(values[r]):
            raise NonFiniteValue(offset + r, name)
    return values


def _parse_one_pass(lines: list[str], positions: list[int]) -> np.ndarray | None:
    """``lines`` as an ``(n, len(positions))`` array in one ``np.loadtxt`` pass, or None.

    None (a cell loadtxt cannot parse, a short row, or a non-finite value)
    leaves the verdict to the per-cell reader.  ``lines`` are those of one
    or more data rows (:func:`_blocks`), each of which loadtxt reads as a
    row or turns away with a ValueError; it would only warn on input of no
    rows.
    """
    try:
        values = np.loadtxt(
            lines, delimiter=",", usecols=positions, dtype=np.float64, ndmin=2,
            comments=None, quotechar='"', encoding="utf-8",
        )
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _holds_cells(record: list[str]) -> bool:
    """Whether ``csv.reader``'s ``record`` is a data row: an empty line (no
    cells, or a single blank cell) is not."""
    return len(record) > 1 or bool(record and record[0].strip())


def _blocks(lines: Iterator[str]) -> Iterator[list[str]]:
    """The lines of a CSV body's data rows, one list per block of :data:`READ_BLOCK_LINES` or so lines read.

    The lines of an empty record (not a data row, :func:`_holds_cells`)
    are left out, so a block of only empty records is an empty list.
    Until a line holds a quote, every line is a record, a whitespace-only
    one empty, so blocks are cut every :data:`READ_BLOCK_LINES` lines.
    From the block that holds the first quote on, ``csv.reader`` reads the
    lines, and each block ends where one of its records ends.  Counting
    quotes could not find those ends: ``1"5,"a`` holds two, yet its second
    opens a field that the next line closes.  A block is thus whole
    records, and leaving out whole records does not change how
    ``csv.reader`` splits the others: it reads a block's lines as the
    same data rows.
    """
    read = list(itertools.islice(lines, READ_BLOCK_LINES))
    while read and not any('"' in line for line in read):
        yield [line for line in read if not line.isspace()]
        read = list(itertools.islice(lines, READ_BLOCK_LINES))
    rest = itertools.chain(read, lines)
    read, kept, start = [], [], 0

    def tap() -> Iterator[str]:
        for line in rest:
            read.append(line)  # the block being read: rebinding ``read`` starts the next one
            yield line

    for record in csv.reader(tap()):
        if _holds_cells(record):
            kept += read[start:]
        if len(read) >= READ_BLOCK_LINES:
            yield kept
            read, kept = [], []
        start = len(read)
    if read:
        yield kept


def _column_positions(header: list[str], names: list[str]) -> dict[str, int]:
    """Header position of each requested column, in first-seen order; each must appear exactly once."""
    for name in names:
        count = header.count(name)
        if count == 0:
            raise MissingColumn(name)
        if count > 1:
            raise DuplicateColumn(name)
    return {name: header.index(name) for name in names}


class _HashingReader(io.RawIOBase):
    """The bytes of the open binary file ``file``, fed to ``sha256`` as they are read.

    At most :data:`READ_CHUNK_BYTES` are read at a time.  ``offset`` counts
    the bytes read so far.  Closing the reader leaves ``file`` open.
    """

    def __init__(self, file: BinaryIO, sha256):
        super().__init__()
        self._file = file
        self.sha256 = sha256
        self.offset = 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        chunk = memoryview(buffer)[:READ_CHUNK_BYTES]
        n = self._file.readinto(chunk)
        self.sha256.update(chunk[:n])
        self.offset += n
        return n


def _not_utf8(error: type[InputError], path: str, offset: int) -> InputError:
    return error(f"{path}: byte {offset} is not valid UTF-8")


def _read_text(path: str, read: Callable[[io.TextIOWrapper], list[np.ndarray]], sha256) -> list[np.ndarray]:
    """``read(lines)`` for the lines of the file at ``path``, all of which ``read`` reads.

    The lines are those ``open(path, encoding="utf-8-sig", newline="")``
    yields: a leading byte-order mark, as spreadsheet exports write it, is
    skipped, and one anywhere else is an ordinary character.  The file is
    opened once and read once to its end, :data:`READ_CHUNK_BYTES` at most
    at a time, and each chunk is fed to ``sha256`` and decoded as it
    arrives, so neither the file's bytes nor its text is ever held whole,
    and a pipe reads as a file does.  A ``csv.Error`` that ``read`` raises,
    such as a field longer than ``csv.field_size_limit()`` (which an
    unclosed quote also makes), becomes an InputError naming the path and
    csv's reason.  When ``read`` raises either, the rest of the file is
    read too.  ``sha256`` is then of every byte of the file, and a byte
    anywhere in it that is not UTF-8 raises InputError naming the path and
    the byte's offset, in place of ``read``'s error.  A file that cannot
    be opened raises OSError.
    """
    with open(path, "rb", buffering=0) as file:
        lines = io.TextIOWrapper(_HashingReader(file, sha256), encoding="utf-8-sig", newline="")
        try:
            try:
                return read(lines)
            except (InputError, csv.Error) as exc:
                while lines.read(READ_CHUNK_BYTES):
                    pass
                if isinstance(exc, csv.Error):
                    raise InputError(f"{path}: {exc}") from None
                raise
        except UnicodeDecodeError as exc:
            # exc.object is the input of the decode that failed, which ends at the bytes read so far
            raise _not_utf8(InputError, path, lines.buffer.offset - len(exc.object) + exc.start) from None


def utf8_text(path: str, error: type[InputError]) -> str:
    """The text of the file at ``path``, decoded once as UTF-8.

    A byte that is not UTF-8 raises ``error``, the caller's class, naming
    the path and the byte's offset.  A file that cannot be opened raises
    OSError.  For small files read whole, such as model files; data files
    and prediction grids are read in chunks by :func:`read_columns`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(error, path, exc.start) from None


def _parse(path: str, names: list[str], min_rows: int, sha256) -> np.ndarray:
    """The distinct ``names``, in first-seen order, as one ``(rows, k)`` float64 matrix.

    The one parse behind :func:`read_columns` and :func:`load_csv`, whose
    docstrings describe it.  ``sha256`` is fed the file's bytes as the one
    read (:func:`_read_text`) goes through them.  Each of the body's
    :func:`_blocks`, the lines of its data rows, goes to the one-pass
    reader, and one it turns away to the per-cell reader, which splits the
    same lines with ``csv.reader``.  Its first bad cell in each column is
    kept, with its row in the whole file, until the read ends.  The blocks
    are then stacked into one row-major matrix and dropped.
    """

    def parse(lines: io.TextIOWrapper) -> list[np.ndarray]:
        header = next(csv.reader(lines), None)
        if header is None:
            raise TooFewRows(0, min_rows)
        positions = _column_positions([h.strip() for h in header], names)
        usecols = list(positions.values())
        parsed = [np.empty((0, len(usecols)))]  # so that a file of no rows stacks too
        rows = 0
        bad: dict[int, InputError] = {}  # first bad cell of column k of the matrix
        for block in filter(None, _blocks(lines)):  # a block of empty records holds no row
            values = _parse_one_pass(block, usecols)
            if values is None:
                records = list(csv.reader(block))
                values = np.empty((len(records), len(usecols)))
                for k, (name, pos) in enumerate(positions.items()):
                    try:
                        values[:, k] = _parse_column(records, pos, name, rows)
                    except InputError as exc:
                        bad.setdefault(k, exc)
            parsed.append(values)
            rows += len(values)
        if rows < min_rows:
            raise TooFewRows(rows, min_rows)
        if bad:
            raise bad[min(bad)]
        return parsed

    return np.concatenate(_read_text(path, parse, sha256))


def read_columns(path: str, names: list[str], min_rows: int) -> np.ndarray:
    """A header-first CSV file's ``names`` as one ``(rows, len(names))`` float64 matrix.

    Column ``k`` holds ``names[k]``; each distinct name is parsed once,
    and a name given twice is copied from that one parse.  The matrix is
    column-major, so each column is contiguous.

    The one reader for data files and prediction grids; :func:`load_csv`
    takes its columns from the same parse.  The file is opened once and
    read once, in chunks of :data:`READ_CHUNK_BYTES`, and decoded as UTF-8
    as it is read (:func:`_read_text`): no copy of the whole file, as
    bytes or as text, is ever held, and a pipe reads as a file does.  A
    byte that is not UTF-8 anywhere in the file raises
    :class:`InputError` with its offset, ahead of every other error.
    ``csv.reader`` parses the header.  The body is parsed in blocks of
    about :data:`READ_BLOCK_LINES` lines, each ending where a record ends
    (:func:`_blocks`).  An empty record (a line with no cells, or a single
    blank cell) is skipped, and every other record is a data row.  The
    lines of a block's data rows are converted in one pass by
    ``np.loadtxt(..., delimiter=",", usecols=..., dtype=np.float64,
    ndmin=2, comments=None, quotechar='"', encoding="utf-8")``: a ``#`` is
    an ordinary character, and quoted cells, quoted fields spanning lines
    or holding commas, and ``""`` escapes split as ``csv.reader`` splits
    them.  loadtxt converts with the parser ``float`` uses, so the bits
    agree, and rejects every cell the strict grammar rejects except the
    non-finite spellings, which an ``isfinite`` check turns away.

    A block that pass turns away (a cell it cannot parse, such as a bad
    cell or a non-ASCII digit, or a non-finite value) is decided by
    ``csv.reader`` and :func:`_parse_column`, which check each of its
    cells against the strict grammar, on the lines that pass was given and
    with its rows numbered after the rows before it.  Both conversions
    give the same bits, and only one block's records are ever held as
    strings.  Errors come in a fixed order: a byte that is not UTF-8, then
    an absent or twice-named requested column, then fewer than
    ``min_rows`` data rows (an empty file counts as zero), then the first
    bad cell of the first bad column in the order of ``names``.  A field
    that ``csv.reader`` cannot read, one longer than
    ``csv.field_size_limit()`` as an unclosed quote makes, raises
    :class:`InputError` naming the path where the read meets it.
    """
    distinct = list(dict.fromkeys(names))
    return _parse(path, names, min_rows, hashlib.sha256())[:, [distinct.index(name) for name in names]]


def load_csv(path: str, spec: ColumnSpec, sha256=None) -> ObservationSet:
    """Read a UTF-8, comma-separated, header-first CSV into an ObservationSet.

    Cells must be plain decimal or scientific notation; anything else
    (missing cells, locale separators, inf/nan spellings) is an error, as
    is a requested column that is absent from the header or named twice.
    Row order is preserved; empty lines are skipped.  The file is read and
    parsed as :func:`read_columns` reads and parses ``[y, q, *x_cols,
    *z_cols]``, into one matrix of the distinct columns.  ``y`` and ``q``
    are copied out of it as contiguous vectors and ``z`` as one row-major
    matrix.  When ``x_cols`` is a run of consecutive ``z_cols`` in the
    same order, as in the generator's files, ``x`` is a view of those
    columns of ``z``, as :func:`~threshmatch.simulate.generate`'s ``x`` is;
    any other ``x`` is copied out as well.  The matrix is then dropped,
    so the result holds each distinct column it uses once (a column
    shared by a copied ``x`` and ``z`` twice) and nothing more.

    ``sha256``, a ``hashlib`` hash object, is fed every byte of the file
    as it is read, so its digest is that of the bytes the sample was
    parsed from, even if the file changes afterwards.
    """
    names = [spec.y_col, spec.q_col, *spec.x_cols, *spec.z_cols]
    values = _parse(path, names, MIN_ROWS, hashlib.sha256() if sha256 is None else sha256)
    position = list(dict.fromkeys(names)).index
    # np.take copies into new C-ordered arrays, which ObservationSet keeps as they are
    y, q = (values.take(position(name), axis=1) for name in (spec.y_col, spec.q_col))
    z = values.take([position(name) for name in spec.z_cols], axis=1)
    d_x = len(spec.x_cols)
    start = next((s for s in range(len(spec.z_cols)) if spec.z_cols[s : s + d_x] == spec.x_cols), None)
    x = values.take([position(name) for name in spec.x_cols], axis=1) if start is None else z[:, start : start + d_x]
    return ObservationSet(y, x, z, q, spec.tau0)


def write_columns(path: str, names: list[str], columns: list[np.ndarray]) -> None:
    """Write a header row of ``names`` and equal-length float columns as CSV.

    The one writer for data files and prediction files.  The header goes
    through ``csv.writer``; each cell is the shortest round-trip ``repr`` of
    its value and each row ends in ``\\r\\n``: the bytes ``csv.writer``
    writes for the same cells, which never need quoting.  Rows are
    formatted and written :data:`WRITE_BLOCK_ROWS` at a time, so the
    memory the writer needs beyond its input does not grow with the row
    count.  A column count other than the name count, or columns of
    different lengths, raise DimensionMismatch before the file is opened.
    """
    columns = [np.asarray(col, dtype=np.float64) for col in columns]
    if len(names) != len(columns) or len({len(col) for col in columns}) > 1:
        raise DimensionMismatch(f"{len(names)} names for columns of lengths {[len(col) for col in columns]}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(names)
        for start in range(0, min(map(len, columns), default=0), WRITE_BLOCK_ROWS):
            block = [map(repr, col[start : start + WRITE_BLOCK_ROWS].tolist()) for col in columns]
            fh.writelines(",".join(row) + "\r\n" for row in zip(*block))


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
