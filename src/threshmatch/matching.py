"""Nearest-control matching on estimated score residuals.

Each treated observation is paired with the control whose ``eta_hat`` is
closest in absolute value, with replacement.  The rule, exactly: take the
nearest control value on each side of the treated value ``t`` (the largest
value below ``t``, and the smallest value at or above it), compare their
two rounded float distances, and let ties go left, to the smaller value;
among controls sharing the winning value (``-0.0`` equals ``+0.0``) the
one listed first wins.  A pipeline run lists a split's controls in
ascending order, so there the smallest original index wins.  Ties are
probability-zero events for continuous residuals, pinned down only so
results are deterministic.
Taking the nearest neighbour on each side first matters when two distinct
controls on one side lie at distances that round to the same float: the
nearer one wins, not the smaller value.

A match is a pair of ``intp`` arrays; no step builds a Python object per
pair.  :func:`match_controls` works in three vectorised passes:

1. Sort the controls by value.  One linear pass over the sorted values
   finds the runs of equal values (``-0.0`` equals ``+0.0``), and a
   segmented minimum of the sort's places gives each run its canonical
   control, the one listed first.
2. Sort the treated values and binary-search them in ascending order, so
   consecutive searches touch neighbouring parts of the control array.
   At 500k against 500k this is about five times faster than searching
   in input order.
3. Take the nearer of the two neighbours of each search position, ties to
   the left (the smaller value), map it to its run's canonical control,
   and scatter the result back to treated input order.

Cost: O(n0 log n0 + n1 log n1) time, O(n0 + n1) memory.
The tests hold an exhaustive O(n0 * n1) reference with the identical tie
rule and assert equivalence on random instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import row_indices
from .errors import DimensionMismatch, EmptyControlGroup, EmptyTreatedGroup, NonFiniteValue


@dataclass(frozen=True, eq=False)
class MatchResult:
    """Matched pairs as two parallel ``intp`` arrays in treated input order.

    Treated row ``treated_idx[k]`` is matched to control row
    ``control_idx[k]``.
    """

    treated_idx: np.ndarray
    control_idx: np.ndarray

    def reuse_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Matched control rows, ascending, and the number K(i) of treated rows each serves.

        Controls never used do not appear.  The values and dtypes of
        ``np.unique(control_idx, return_counts=True)``, from one sort and the
        starts of its runs of equal rows.
        """
        ordered = np.sort(self.control_idx)
        first = np.ones(ordered.size, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        return ordered[starts], np.diff(starts, append=ordered.size)


def _validate(eta_treated, treated_idx, eta_control, control_idx):
    eta_treated = np.asarray(eta_treated, dtype=np.float64)
    eta_control = np.asarray(eta_control, dtype=np.float64)
    treated_idx = row_indices(treated_idx)
    control_idx = row_indices(control_idx)
    for side, values, idx in (
        ("treated", eta_treated, treated_idx),
        ("control", eta_control, control_idx),
    ):
        if values.ndim != 1 or idx.ndim != 1 or values.shape != idx.shape:
            raise DimensionMismatch(
                f"{side} values {values.shape} and indices {idx.shape} must be "
                "one-dimensional and of equal length"
            )
        finite = np.isfinite(values)
        if not finite.all():
            raise NonFiniteValue(int(idx[np.argmin(finite)]), f"eta_{side}")
    if eta_treated.size == 0:
        raise EmptyTreatedGroup()
    if eta_control.size == 0:
        raise EmptyControlGroup()
    return eta_treated, treated_idx, eta_control, control_idx


def match_controls(
    eta_treated: np.ndarray,
    treated_idx: np.ndarray,
    eta_control: np.ndarray,
    control_idx: np.ndarray,
) -> MatchResult:
    """Match every treated value to its nearest control value.

    ``eta_treated[k]`` belongs to original row ``treated_idx[k]``, and
    likewise for the controls; of controls holding the winning value, the
    one ``control_idx`` lists first wins.  A NaN or infinite value on
    either side raises NonFiniteValue naming the side and the row of the
    first one.
    """
    eta_treated, treated_idx, eta_control, control_idx = _validate(
        eta_treated, treated_idx, eta_control, control_idx
    )
    order = np.argsort(eta_control)
    vals = eta_control[order]
    n0 = vals.shape[0]

    # each intermediate is deleted once read, so few match-sized arrays live at once
    run_start = np.empty(n0, dtype=bool)
    run_start[0] = True
    np.not_equal(vals[1:], vals[:-1], out=run_start[1:])
    canonical = control_idx[np.minimum.reduceat(order, np.flatnonzero(run_start))]
    del order
    # the canonical control of each sorted place: its run's
    canonical = canonical[np.cumsum(run_start, dtype=np.intp) - 1]
    del run_start

    by_value = np.argsort(eta_treated)
    queries = eta_treated[by_value]
    right = np.searchsorted(vals, queries, side="left")
    left = right - 1
    # past either end both neighbours clip to the same control, which then wins
    np.maximum(left, 0, out=left)
    np.minimum(right, n0 - 1, out=right)
    d_left = vals[left]
    np.abs(np.subtract(queries, d_left, out=d_left), out=d_left)
    d_right = vals[right]
    np.abs(np.subtract(d_right, queries, out=d_right), out=d_right)
    del vals, queries
    # ties (d_left == d_right) go left: the left candidate has the smaller value
    winner = np.where(d_left <= d_right, left, right)
    del left, right, d_left, d_right

    matched = np.empty_like(treated_idx)
    matched[by_value] = canonical[winner]
    return MatchResult(treated_idx=treated_idx, control_idx=matched)
