"""Shared test helpers: the noiseless-null generator, tiny builders, a
discrete-score variant of the generator and the brute-force matching oracle."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from threshmatch import DgpConfig, MatchResult, ObservationSet, true_ite_fn
from threshmatch.matching import _validate
from threshmatch.rng import rng_from
from threshmatch.simulate import EPS_SD

FIXTURES = Path(__file__).parent / "fixtures"

NULL_BETA = np.array([2.0, -1.0, 0.5])
NULL_GAMMA = np.array([0.0, 0.0, 0.0, 1.0])


def make_null_obs(seed: int, n: int = 300) -> ObservationSet:
    """Noiseless-null sample: zero treatment effect, zero confounder term,
    zero outcome noise, so ``y = x @ beta`` exactly while the score keeps
    its own residual (``q = z @ gamma + eta``)."""
    rng = np.random.default_rng(seed)
    covs = rng.standard_normal((n, 4))
    eta = rng.uniform(-1.0, 1.0, size=n)
    q = covs @ NULL_GAMMA + eta
    x = covs[:, :3]
    y = x @ NULL_BETA
    return ObservationSet(y=y, x=x, z=covs, q=q, tau0=0.0)


def make_pl_obs(
    seed: int,
    n: int,
    beta: np.ndarray,
    ell=None,
    alpha=None,
    eps_sd: float = 0.0,
) -> ObservationSet:
    """Small partially-linear sample with pluggable nuisance pieces.

    ``ell(eta)`` and ``alpha(x, eta)`` default to zero; ``q = z @ (0,0,0,1)
    + eta`` with four standard-normal score covariates.
    """
    rng = np.random.default_rng(seed)
    beta = np.asarray(beta, dtype=np.float64)
    covs = rng.standard_normal((n, 4))
    eta = rng.uniform(-1.0, 1.0, size=n)
    q = covs[:, 3] + eta
    x = covs[:, : beta.shape[0]]
    y = x @ beta
    if ell is not None:
        y = y + ell(eta)
    if alpha is not None:
        y = y + np.where(q >= 0.0, alpha(x, eta), 0.0)
    if eps_sd > 0:
        y = y + rng.normal(0.0, eps_sd, size=n)
    return ObservationSet(y=y, x=x, z=covs, q=q, tau0=0.0)


def generate_discrete(config: DgpConfig) -> ObservationSet:
    """``generate`` with a discrete score: ``q`` on a 0.5 grid, ``x4`` drawn as +-1.

    The draws are ``generate``'s, in its order, so ``x1..x3``, ``eta`` and
    the noise equal its own for the same config; ``x4`` is the sign of its
    normal draw.  ``y`` is built from the rounded ``q`` as ``generate``
    builds it, so treatment is ``rounded q >= 0``; the effect surface is
    the generator's, at the latent score ``x4 + eta``.  Matching on such
    data pairs clustered ``eta_hat`` values, the shape of a study whose
    score (a GPA's distance from a cutoff) is discrete.
    """
    rng = rng_from(config.seed)
    covs = rng.standard_normal((config.n, 4))
    eta = rng.uniform(-1.0, 1.0, size=config.n)
    eps = rng.normal(0.0, EPS_SD, size=config.n)
    covs[:, 3] = np.where(covs[:, 3] >= 0.0, 1.0, -1.0)
    latent = covs[:, 3] + eta
    q = np.round(2.0 * latent) / 2.0
    alpha = true_ite_fn(config.ite_kind)(covs[:, :3], covs, latent)
    y = alpha * (q >= 0.0) + covs[:, 0] + covs[:, 2] + eta / 2.0 + eps
    return ObservationSet(y=y, x=covs[:, :3], z=covs, q=q, tau0=0.0)


@pytest.fixture()
def null_obs() -> ObservationSet:
    return make_null_obs(seed=1234)


def match_controls_brute(
    eta_treated: np.ndarray,
    treated_idx: np.ndarray,
    eta_control: np.ndarray,
    control_idx: np.ndarray,
) -> MatchResult:
    """Exhaustive-scan reference implementation of ``match_controls``.

    For each treated value ``t`` it scans every control for the nearest
    value below ``t`` and the nearest value at or above it, keeps the left
    one unless the right one's rounded distance is strictly smaller, and
    then scans again for the smallest original index holding the winning
    value.
    """
    eta_treated, treated_idx, eta_control, control_idx = _validate(
        eta_treated, treated_idx, eta_control, control_idx
    )
    matched = np.empty_like(treated_idx)
    for k, t_val in enumerate(eta_treated):
        left = right = None
        for c_val in eta_control:
            if c_val < t_val:
                if left is None or c_val > left:
                    left = c_val
            elif right is None or c_val < right:
                right = c_val
        if right is None or (left is not None and abs(t_val - left) <= abs(right - t_val)):
            winner = left
        else:
            winner = right
        matched[k] = min(c_idx for c_val, c_idx in zip(eta_control, control_idx) if c_val == winner)
    return MatchResult(treated_idx=treated_idx, control_idx=matched)
