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
README's reproducibility note states.  Neither function takes a row map;
a bootstrap run gathers ``eta_hat`` at its map itself.
"""

from __future__ import annotations

import numpy as np

from .data_model import ObservationSet, check_indices
from .errors import DimensionMismatch, SplitTooSmall
from .linreg import ols


def fit_gamma(obs: ObservationSet, i1: np.ndarray) -> np.ndarray:
    """Regress ``q`` on ``z`` over the rows in ``i1`` (no intercept).

    Returns ``gamma_hat``, a ``(d_z,)`` array.
    """
    i1 = check_indices(i1, obs.n)
    if len(i1) < obs.d_z:
        raise SplitTooSmall(len(i1), obs.d_z)
    # take copies whole rows of the row-major z; same bits as z[i1]
    return ols(obs.z.take(i1, axis=0), obs.q[i1])


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
