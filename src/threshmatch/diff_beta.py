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

from .data_model import ObservationSet, check_indices, treatment_mask
from .errors import DimensionMismatch, EmptyControlGroup, TooFewControls
from .linreg import ols


def order_by_eta(eta_hat: np.ndarray, control_idx: np.ndarray) -> np.ndarray:
    """Sort ``control_idx`` ascending by ``eta_hat`` value.

    ``eta_hat`` is addressed by original row index.  Ties keep the order
    in which ``control_idx`` lists the rows, so the ordering is
    deterministic: continuous residuals rarely tie, but a bootstrap
    resample's repeated rows always do.  ``-0.0`` and ``0.0`` tie, and NaN
    values come last, in list order.  The result equals
    ``control_idx[np.argsort(values, kind="stable")]``; it is computed by
    one unstable ``np.argsort`` of the values (numpy's vectorised sort,
    several times faster than its stable one) and a re-sort by list place
    of the runs of equal values only.  An ``eta_hat`` that is not 1-D
    raises DimensionMismatch.
    """
    eta_hat = np.asarray(eta_hat, dtype=np.float64)
    if eta_hat.ndim != 1:
        raise DimensionMismatch(f"eta_hat must be 1-D, got shape {eta_hat.shape}")
    control_idx = check_indices(control_idx, eta_hat.size)
    if control_idx.size == 0:
        raise EmptyControlGroup()
    values = eta_hat[control_idx]
    order = np.argsort(values)
    ranked = values[order]
    # tied[k]: sorted places k and k + 1 hold equal values (NaN sorts last,
    # so a NaN at k has one at k + 1 too)
    tied = (ranked[1:] == ranked[:-1]) | np.isnan(ranked[:-1])
    if tied.any():
        in_run = np.zeros(values.size, dtype=bool)
        in_run[:-1] = tied
        in_run[1:] |= tied
        places = np.flatnonzero(in_run)
        run = np.concatenate(([0], np.cumsum(~tied)))[places]  # run number per place
        held = order[places]
        order[places] = held[np.lexsort((held, run))]
    return control_idx[order]


def first_differences(
    sorted_idx: np.ndarray, obs: ObservationSet
) -> tuple[np.ndarray, np.ndarray]:
    """Adjacent-row differences of ``x`` and ``y`` along ``sorted_idx``.

    ``dx`` holds the values of ``np.diff(obs.x[sorted_idx], axis=0)``,
    stored column-major: the layout :func:`ols` factors in place.  ``x``
    is gathered one column at a time, straight into that layout, with no
    row-major copy of the sorted rows.
    """
    sorted_idx = check_indices(sorted_idx, obs.n)
    m = len(sorted_idx)
    if m < 2:
        raise TooFewControls(m, 2)
    dx = np.empty((m - 1, obs.d_x), order="F")
    for j in range(obs.d_x):
        column = obs.x[:, j][sorted_idx]
        np.subtract(column[1:], column[:-1], out=dx[:, j])
    return dx, np.diff(obs.y[sorted_idx])


def fit_beta(obs: ObservationSet, i2: np.ndarray, eta_hat: np.ndarray) -> np.ndarray:
    """Estimate the linear coefficients from the control rows of ``i2``.

    Returns ``beta_hat``, a ``(d_x,)`` array.  Treated rows in ``i2`` are
    discarded.  The difference regression has no intercept: differencing
    annihilates level terms, so one would only add noise.  Controls of
    equal ``eta_hat`` are differenced in the order ``i2`` lists them.
    ``eta_hat`` holds one residual per row of ``obs``; any other shape
    raises DimensionMismatch.
    """
    if np.shape(eta_hat) != (obs.n,):
        raise DimensionMismatch(f"eta_hat has shape {np.shape(eta_hat)}; obs has n = {obs.n}")
    i2 = check_indices(i2, obs.n)
    controls = i2[~treatment_mask(obs)[i2]]
    if controls.size == 0:
        raise EmptyControlGroup()
    if controls.size < obs.d_x + 1:
        raise TooFewControls(int(controls.size), obs.d_x + 1)
    dx, dy = first_differences(order_by_eta(eta_hat, controls), obs)
    return ols(dx, dy, overwrite_a=True)
