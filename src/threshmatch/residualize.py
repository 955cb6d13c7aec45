"""Score regression and residual extraction.

The score is modeled as linear in the score-side covariates,
``q = z @ gamma + eta``.  ``gamma`` is fit by OLS on the first split and
the residuals ``eta_hat`` stand in for the unobserved confounder in every
later step (ordering, differencing, matching).
"""

from __future__ import annotations

import numpy as np

from .data_model import ObservationSet, check_indices
from .errors import SplitTooSmall
from .linreg import ols


def fit_gamma(obs: ObservationSet, i1: np.ndarray) -> np.ndarray:
    """Regress ``q`` on ``z`` over the rows in ``i1`` (no intercept).

    Returns ``gamma_hat``, a ``(d_z,)`` array.
    """
    i1 = check_indices(i1, obs.n)
    if len(i1) < obs.d_z:
        raise SplitTooSmall(len(i1), obs.d_z)
    return ols(obs.z[i1], obs.q[i1])


def residuals_eta(gamma_hat: np.ndarray, obs: ObservationSet, idx: np.ndarray) -> np.ndarray:
    """``q - z @ gamma_hat`` over ``idx``, order preserved.

    ``gamma_hat`` is the ``(d_z,)`` array :func:`fit_gamma` returns.
    """
    idx = check_indices(idx, obs.n)
    return obs.q[idx] - obs.z[idx] @ gamma_hat
