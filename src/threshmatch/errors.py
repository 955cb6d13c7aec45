"""Exception taxonomy shared across the package.

Three families matter to callers:

* :class:`InputError` -- the caller handed us something malformed (bad CSV,
  bad flag, out-of-range index).  The CLI maps these to exit code 2.
* :class:`NumericError` -- the data were well-formed but estimation is
  numerically impossible (rank-deficient design, degenerate covariate).
  Exit code 3.
* :class:`StructuralError` -- a split or resample lacks the rows an
  estimation step needs (no controls, too few controls).

The bootstrap absorbs :class:`StructuralError` and :class:`NumericError`
failures of single replicates, up to its failure budget.

A failure raised inside one or more :func:`labelled` blocks records where
it happened in ``split``, outermost label first, and prints it as
``[split rotation 0: I2] ...``.  Every error pickles with its type, message,
attributes and ``split``, so it can leave a worker process intact.
"""

from __future__ import annotations

import copyreg
from collections.abc import Iterator
from contextlib import contextmanager


class ThreshmatchError(Exception):
    """Base class for every error raised by this package.

    ``split`` records where the failure happened, such as "I2",
    "rotation 0: I2" or "replicate 3"; only :func:`labelled` sets it.
    """

    def __init__(self, *args: object):
        super().__init__(*args)
        self.split: str | None = None

    def __str__(self) -> str:
        base = super().__str__()
        if self.split is not None:
            return f"[split {self.split}] {base}"
        return base

    def __reduce__(self):
        # rebuild from the formatted args and the attribute dict: subclass
        # constructors take other arguments than the message they format
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


@contextmanager
def labelled(label: str) -> Iterator[None]:
    """Record ``label`` on a package error raised inside, before any inner label."""
    try:
        yield
    except ThreshmatchError as exc:
        exc.split = label if exc.split is None else f"{label}: {exc.split}"
        raise


class InputError(ThreshmatchError):
    """Malformed input: file, column, flag, or index problems."""


class MissingColumn(InputError):
    def __init__(self, name: str):
        super().__init__(f"column {name!r} not found in header")
        self.name = name


class DuplicateColumn(InputError):
    def __init__(self, name: str):
        super().__init__(f"column {name!r} appears more than once in header")
        self.name = name


class ParseError(InputError):
    def __init__(self, row: int, col: str, cell: str):
        super().__init__(f"row {row}, column {col!r}: cannot parse {cell!r} as a plain decimal")
        self.row = row
        self.col = col


class NonFiniteValue(InputError):
    def __init__(self, row: int, col: str):
        super().__init__(f"row {row}, column {col!r}: non-finite value")
        self.row = row
        self.col = col


class TooFewRows(InputError):
    def __init__(self, n: int, minimum: int):
        super().__init__(f"need at least {minimum} rows, got {n}")
        self.n = n


class IndexOutOfRange(InputError):
    def __init__(self, index: int, n: int):
        super().__init__(f"index {index} out of range for {n} rows")
        self.index = index


class InvalidLevel(InputError):
    def __init__(self, level: float):
        super().__init__(f"confidence level must lie strictly in (0, 1), got {level}")
        self.level = level


class ArityMismatch(InputError):
    """A model file or covariate batch does not fit the model's layout."""


class DimensionMismatch(InputError):
    """Array shapes, sizes or settings that do not agree."""


class NumericError(ThreshmatchError):
    """Estimation failed for numerical reasons."""


class RankDeficient(NumericError):
    def __init__(self, p_effective: int, p: int):
        super().__init__(f"design matrix has effective rank {p_effective} < {p} columns")
        self.p_effective = p_effective
        self.p = p


class DegenerateCovariate(NumericError):
    def __init__(self, col: int):
        super().__init__(f"covariate column {col} has zero variance")
        self.col = col


class StructuralError(ThreshmatchError):
    """A split or resample lacks the rows a pipeline step requires."""


class SplitTooSmall(StructuralError):
    def __init__(self, size: int, needed: int):
        super().__init__(f"split has {size} rows, need at least {needed}")
        self.size = size
        self.needed = needed


class EmptyControlGroup(StructuralError):
    def __init__(self):
        super().__init__("no control observations available")


class EmptyTreatedGroup(StructuralError):
    def __init__(self):
        super().__init__("no treated observations available")


class TooFewControls(StructuralError):
    def __init__(self, m: int, needed: int):
        super().__init__(f"{m} control rows available, need at least {needed}")
        self.m = m
        self.needed = needed


class TooManyFailures(ThreshmatchError):
    def __init__(self, b_failed: int, b_requested: int, budget: float):
        super().__init__(
            f"{b_failed} of {b_requested} bootstrap replicates failed "
            f"(budget is {budget:.0%})"
        )
        self.b_failed = b_failed
        self.b_requested = b_requested
