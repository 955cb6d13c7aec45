"""Score regression and residual extraction.

The score is modeled as linear in the score-side covariates,
``q = z @ gamma + eta``.  ``gamma`` is fit by OLS on the first split and
the residuals ``eta_hat`` stand in for the unobserved confounder in every
later step (ordering, differencing, matching).

The residuals are one product over the whole row-major ``z``, returned
by data row, and the caller gathers the rows it needs: a pipeline run
needs them on two of its three splits, and one ``n``-row matrix-vector
product is cheaper than gathering those rows of ``z`` first.  Its bits
equal those of multiplying the gathered rows within the column limit
README's reproducibility note states.  Neither function takes a row map:
a bootstrap run hands ``fit_gamma`` the data rows behind its positions,
and reads the residuals by data row.

A run's record keeps ``gamma_hat``, not the residuals:
:func:`residuals_eta` is the one way to derive them, and a reader such
as the effect-surface fit calls it again.  It computes the same bits
on one BLAS thread as on several, so the residuals a reader derives are
those the run's stages read.
"""

from __future__ import annotations

import numpy as np

from .data_model import ObservationSet, check_indices
from .errors import DimensionMismatch, SplitTooSmall
from .linreg import ols

GATHER_BLOCK_ROWS = 8192  # rows of z fit_gamma gathers at a time


def fit_gamma(obs: ObservationSet, i1: np.ndarray) -> np.ndarray:
    """Regress ``q`` on ``z`` over the rows in ``i1`` (no intercept).

    Returns ``gamma_hat``, a ``(d_z,)`` array.
    """
    i1 = check_indices(i1, obs.n)
    if len(i1) < obs.d_z:
        raise SplitTooSmall(len(i1), obs.d_z)
    # z's rows at i1, gathered a block at a time straight into the
    # column-major order ols factors in place, so no row-major copy of
    # them is ever whole; the values, and so the bits, are z[i1]'s
    design = np.empty((obs.d_z, len(i1)))
    for start in range(0, len(i1), GATHER_BLOCK_ROWS):
        block = i1[start : start + GATHER_BLOCK_ROWS]
        design[:, start : start + len(block)] = obs.z.take(block, axis=0).T
    return ols(design.T, obs.q[i1], overwrite_a=True)


def residuals_eta(gamma_hat: np.ndarray, obs: ObservationSet) -> np.ndarray:
    """``q - z @ gamma_hat`` over every row of ``obs``, by data row.

    ``gamma_hat`` is the ``(d_z,)`` array :func:`fit_gamma` returns; any
    other shape raises DimensionMismatch.  A caller that needs the
    residuals at some rows gathers them from the result.
    """
    if np.shape(gamma_hat) != (obs.d_z,):
        raise DimensionMismatch(f"gamma_hat has shape {np.shape(gamma_hat)}; obs has d_z = {obs.d_z}")
    eta = obs.z @ gamma_hat
    np.subtract(obs.q, eta, out=eta)  # in place: one n-row temporary, not two
    return eta
