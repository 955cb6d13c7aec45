"""First-difference estimation of the linear outcome coefficients.

On control rows the outcome follows a partially linear model
``y = x @ beta + l(eta) + eps`` with ``l`` unknown.  Sorting controls by
``eta_hat`` and taking first-order differences of adjacent rows makes
the ``l`` term (and any intercept) vanish to first order, leaving a plain
linear regression of ``diff(y)`` on ``diff(x)`` that identifies ``beta``
without ever estimating ``l``.
"""

from __future__ import annotations

import numpy as np

from .data_model import ObservationSet, check_indices, rows_at, treatment_mask
from .errors import EmptyControlGroup, TooFewControls
from .linreg import ols


def order_by_eta(eta_hat: np.ndarray, control_idx: np.ndarray) -> np.ndarray:
    """Sort ``control_idx`` ascending by ``eta_hat`` value.

    ``eta_hat`` is addressed by original row index.  Ties break toward the
    smaller original index, so the ordering is deterministic even though
    ties have probability zero for continuous residuals.
    """
    eta_hat = np.asarray(eta_hat, dtype=np.float64)
    control_idx = check_indices(control_idx, eta_hat.size)
    if control_idx.size == 0:
        raise EmptyControlGroup()
    order = np.lexsort((control_idx, eta_hat[control_idx]))
    return control_idx[order]


def first_differences(
    sorted_idx: np.ndarray, obs: ObservationSet
) -> tuple[np.ndarray, np.ndarray]:
    """Adjacent-row differences of ``x`` and ``y`` along ``sorted_idx``."""
    sorted_idx = check_indices(sorted_idx, obs.n)
    m = len(sorted_idx)
    if m < 2:
        raise TooFewControls(m, 2)
    x_sorted = obs.x[sorted_idx]
    y_sorted = obs.y[sorted_idx]
    return np.diff(x_sorted, axis=0), np.diff(y_sorted)


def fit_beta(
    obs: ObservationSet,
    i2: np.ndarray,
    eta_hat: np.ndarray,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Estimate the linear coefficients from the control rows of ``i2``.

    Returns ``beta_hat``, a ``(d_x,)`` array.  Treated rows in ``i2`` are
    discarded.  The difference regression has no intercept: differencing
    annihilates level terms, so one would only add noise.

    With a resample's row map ``rows``, ``i2`` and ``eta_hat`` are indexed
    by resample position, position ``p`` holds row ``rows[p]`` of ``obs``,
    and eta ties break toward the smaller position.
    """
    i2 = check_indices(i2, obs.n)
    mask = treatment_mask(obs)
    controls = i2[~mask[rows_at(rows, i2)]]
    if controls.size == 0:
        raise EmptyControlGroup()
    if controls.size < obs.d_x + 1:
        raise TooFewControls(int(controls.size), obs.d_x + 1)
    sorted_idx = order_by_eta(eta_hat, controls)
    dx, dy = first_differences(rows_at(rows, sorted_idx), obs)
    return ols(dx, dy)
