"""End-to-end ATT estimation and cross-fitting.

One pipeline run walks the three splits in role order: the first split
fits the score regression, the control rows of the second fit the
difference regression, and the third supplies the treated/control pools
for residual matching.  The estimate is the average, over matched pairs,
of the difference in linearly-adjusted outcomes::

    theta_hat = mean_i [ (y_i - x_i @ beta_hat) - (y_c(i) - x_c(i) @ beta_hat) ]

A run's record, :class:`AttEstimate`, holds five fields: ``theta_hat``,
``beta_hat``, ``gamma_hat``, ``matches`` and ``eta_hat``.  Cross-fitting
reruns the pipeline under the three cyclic role rotations of one fixed
partition and averages the resulting estimates.
:func:`estimate_theta` turns a seed into a partition and returns the
single-run or the cross-fitted estimate on it.

A bootstrap replicate runs the same pipeline on a resample without
copying it.  Its row map ``rows`` says which row of ``obs`` each of the
``n`` resample positions copies.  The splits, ``eta_hat``, the treated
mask and the matches are indexed by position, and so are the tie keys of
the eta ordering and of matching, exactly as on a copied resample; only
the gathers of ``z``, ``q``, ``x`` and ``y`` go through ``rows``.  A plain
run passes no row map and gathers nothing extra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import (
    ObservationSet,
    SplitAssignment,
    check_indices,
    rows_at,
    split_three_way,
    treatment_mask,
)
from .diff_beta import fit_beta
from .errors import labelled
from .matching import MatchResult, match_controls
from .residualize import fit_gamma, residuals_eta


@dataclass(frozen=True)
class AttEstimate:
    """ATT point estimate of one pipeline run with the arrays it was built from.

    ``theta_hat`` is the mean matched difference; ``beta_hat`` and
    ``gamma_hat`` are the difference and score coefficients; ``matches``
    pairs every treated row of the matching split with its control.
    ``eta_hat`` holds the score residuals of the run over all ``n`` rows:
    finite on the difference and matching splits, NaN on the score split.
    """

    theta_hat: float
    beta_hat: np.ndarray
    gamma_hat: np.ndarray
    matches: MatchResult
    eta_hat: np.ndarray


@dataclass(frozen=True)
class CrossfitEstimate:
    """Mean of the three rotation estimates, ``(t1 + t2 + t3) / 3``."""

    theta_cf: float
    rotations: list[AttEstimate]


def matched_differences(
    obs: ObservationSet,
    beta_hat: np.ndarray,
    matches: MatchResult,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Adjusted-outcome gaps ``(y_t - x_t @ b) - (y_c - x_c @ b)`` per pair.

    The matched rows must lie in ``0..n-1``; with a row map they are
    resample positions.
    """
    t_idx = rows_at(rows, check_indices(matches.treated_idx, obs.n))
    c_idx = rows_at(rows, check_indices(matches.control_idx, obs.n))
    adj_t = obs.y[t_idx] - obs.x[t_idx] @ beta_hat
    adj_c = obs.y[c_idx] - obs.x[c_idx] @ beta_hat
    return adj_t - adj_c


def estimate_att(obs: ObservationSet, splits: SplitAssignment) -> AttEstimate:
    """Run the full pipeline on one split assignment in role order (i1, i2, i3)."""
    return _estimate_with_roles(obs, splits.i1, splits.i2, splits.i3)


def _estimate_with_roles(
    obs: ObservationSet,
    gamma_split: np.ndarray,
    beta_split: np.ndarray,
    match_split: np.ndarray,
    rows: np.ndarray | None = None,
) -> AttEstimate:
    with labelled("I1"):
        gamma_hat = fit_gamma(obs, rows_at(rows, gamma_split))

    # residuals are needed on the second and third splits only; rows of the
    # first split keep NaN so accidental use fails loudly
    eta_hat = np.full(obs.n, np.nan)
    idx23 = np.concatenate([beta_split, match_split])
    eta_hat[idx23] = residuals_eta(gamma_hat, obs, rows_at(rows, idx23))
    eta_hat.setflags(write=False)

    with labelled("I2"):
        beta_hat = fit_beta(obs, beta_split, eta_hat, rows)

    treated = treatment_mask(obs)[rows_at(rows, match_split)]
    treated3 = match_split[treated]
    control3 = match_split[~treated]
    with labelled("I3"):
        matches = match_controls(eta_hat[treated3], treated3, eta_hat[control3], control3)

    theta_hat = float(np.mean(matched_differences(obs, beta_hat, matches, rows)))
    return AttEstimate(theta_hat, beta_hat, gamma_hat, matches, eta_hat)


def estimate_att_crossfit(obs: ObservationSet, seed: int = 0) -> CrossfitEstimate:
    """Average the pipeline over the three cyclic role rotations.

    One partition is drawn from ``seed``; the rotations reuse its blocks
    with roles shifted, so every block serves once in each role.  A
    failure in any rotation aborts the whole estimate.
    """
    return crossfit_on_splits(obs, split_three_way(obs.n, seed=seed))


def crossfit_on_splits(
    obs: ObservationSet, splits: SplitAssignment, rows: np.ndarray | None = None
) -> CrossfitEstimate:
    """Cross-fit over the rotations of an existing partition (of positions, given ``rows``)."""
    rotations: list[AttEstimate] = []
    for r, (g, b, m) in enumerate(splits.rotations()):
        with labelled(f"rotation {r}"):
            rotations.append(_estimate_with_roles(obs, g, b, m, rows))
    theta_cf = (
        rotations[0].theta_hat + rotations[1].theta_hat + rotations[2].theta_hat
    ) / 3.0
    return CrossfitEstimate(theta_cf=theta_cf, rotations=rotations)


def estimate_theta(
    obs: ObservationSet, seed: int, crossfit: bool = False, rows: np.ndarray | None = None
) -> float:
    """The ATT estimate of one seeded run on the partition drawn from ``seed``.

    Returns ``theta_hat`` of one pipeline run in role order or, with
    ``crossfit``, ``theta_cf`` over the partition's three role rotations.
    With a row map ``rows`` the run is on that resample of ``obs``: the
    result equals the run on ``obs.take(rows)`` bit for bit.  Callers that
    need the intermediate fits call :func:`estimate_att` or
    :func:`estimate_att_crossfit` instead.
    """
    splits = split_three_way(obs.n, seed=seed)
    if crossfit:
        return crossfit_on_splits(obs, splits, rows).theta_cf
    return _estimate_with_roles(obs, splits.i1, splits.i2, splits.i3, rows).theta_hat
