"""End-to-end ATT estimation and cross-fitting.

One pipeline run walks the three splits in role order: the first split
fits the score regression, the control rows of the second fit the
difference regression, and the third supplies the treated/control pools
for residual matching.  The estimate is the average, over matched pairs,
of the difference in linearly-adjusted outcomes::

    theta_hat = mean_i [ (y_i - x_i @ beta_hat) - (y_c(i) - x_c(i) @ beta_hat) ]

A run's record, :class:`AttEstimate`, holds five fields: ``beta_hat``,
``gamma_hat``, ``matches``, ``roles`` and ``differences``, the matched
gaps.  Its ``theta_hat`` is not stored: it is the mean of
``differences``, computed when read.  Nor are the score residuals: they
are ``residuals_eta(gamma_hat, obs)``, a function of the score fit, and
``roles[0]`` names the rows where they are not the run's residuals.
Cross-fitting reruns the pipeline under the three cyclic role rotations
of one fixed partition; its record, :class:`CrossfitEstimate`, holds the
three rotation records, and its ``theta_cf`` is their estimates' mean,
computed when read.
:func:`estimate_theta` turns a seed into a partition and returns the
single-run or the cross-fitted estimate on it.

A cross-fit's rotations run through :func:`threshmatch.parallel.map_staged`,
whose docstring states when they run on two threads and why the records
equal the serial loop's bit for bit.

The row-map contract.  Every public record of a run, :class:`AttEstimate`
and :class:`CrossfitEstimate`, indexes the rows of the ``obs`` it was
computed on, and the public functions of this module take data rows.
:func:`estimate_theta` alone knows a row map ``rows``: position ``p`` of
a bootstrap resample holds row ``rows[p]`` of ``obs``.  It checks the map
once against ``obs.n``, before any role label, so an entry outside
``0..n-1`` raises IndexOutOfRange and a non-integer map
DimensionMismatch, wherever the bad entry sits.  It then draws the
partition, checks that it covers the map's positions (below), and turns
each part into the data rows behind it, in position order (``rows[i1],
rows[i2], rows[i3]``), before any stage runs: a run's roles, and a
cross-fit's rotations of them, are data rows from the start, and every
stage, the score fit, the eta ordering and matching included, takes data
rows.  The eta ordering
and matching break ties by the order in which their rows are listed, so
a repeated row's copies tie in position order, exactly as on a copied
resample.  ``eta_hat`` stays by data row, as ``residuals_eta`` returns
it, and the matched pairs come out in data rows.  The run's records stay
inside it; only its float comes out.  It is bit-equal to the run on
``obs.take(rows)`` within the column limit README's reproducibility note
states.  A plain run passes no row map and gathers nothing extra.

The roles of a run are always the parts of one :class:`SplitAssignment`,
which checks that they partition ``0..N-1`` with ``N`` the sum of their
sizes.  :func:`estimate_att`, :func:`crossfit_on_splits` and
:func:`estimate_theta` add one check of their own, once per call and
before any label, a cross-fit's rotation label included: ``N`` must be
the run's number of positions, ``obs.n``, or ``len(rows)`` with a row
map.  Otherwise they raise DimensionMismatch with no label, so a
partition of part of the sample, or a row map of another length than
``obs.n``, fails loudly.  Rotation ``r`` of a cross-fit gives parts
``r``, ``r+1`` and ``r+2`` (mod 3) the score, difference and matching
roles.

Per-row linear products (``z @ gamma_hat`` for the residuals, ``x @
beta_hat`` for the adjusted outcomes) run once over all rows of ``obs``,
whose ``x`` and ``z`` are stored row-major, and the run gathers scalars
of them at the rows it needs.  The two fits still gather 2-D rows: the
score fit those of ``z`` on the first split, a block at a time, and the
difference fit those of ``x`` along its eta ordering, differenced in one
pass.  Each lands in column-major order, and
:func:`threshmatch.linreg.ols` factors it there in place, so a fit holds
its design twice at most: the gathered rows and ``Q``.
:func:`matched_differences`, the step that forms the matched gaps, is
reached as ``threshmatch.att.matched_differences``; the package exports
the run's record of them, ``AttEstimate.differences``, instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import (
    ObservationSet,
    SplitAssignment,
    check_indices,
    split_three_way,
    treatment_mask,
)
from .diff_beta import fit_beta
from .errors import DimensionMismatch, labelled
from .matching import MatchResult, match_controls
from .parallel import map_staged
from .residualize import fit_gamma, residuals_eta


@dataclass(frozen=True, eq=False)
class AttEstimate:
    """The arrays one pipeline run built, and the ATT estimate they give.

    ``beta_hat`` and ``gamma_hat`` are the difference and score
    coefficients; ``matches`` pairs every treated row of the matching
    split with its control.  ``roles`` holds the data rows of the score,
    difference and matching splits, in that order: the arrays the run was
    given, not copies, so a cross-fit's rotations share one partition's
    parts.  The run's score residuals are ``residuals_eta(gamma_hat,
    obs)`` at the rows of ``roles[1]`` and ``roles[2]``.  ``differences``
    holds the adjusted-outcome gap of each matched pair, in treated input
    order.  The roles and ``differences`` are read-only.
    """

    beta_hat: np.ndarray
    gamma_hat: np.ndarray
    matches: MatchResult
    roles: tuple[np.ndarray, np.ndarray, np.ndarray]
    differences: np.ndarray

    @property
    def theta_hat(self) -> float:
        """The ATT estimate: the mean matched difference."""
        return float(np.mean(self.differences))


@dataclass(frozen=True, eq=False)
class CrossfitEstimate:
    """The three rotation estimates of one partition, in rotation order."""

    rotations: list[AttEstimate]

    @property
    def theta_cf(self) -> float:
        """Mean of the rotation estimates, ``(t0 + t1 + t2) / 3``, summed in that order."""
        r0, r1, r2 = self.rotations
        return (r0.theta_hat + r1.theta_hat + r2.theta_hat) / 3.0


def matched_differences(
    obs: ObservationSet, beta_hat: np.ndarray, matches: MatchResult
) -> np.ndarray:
    """Adjusted-outcome gaps ``(y_t - x_t @ b) - (y_c - x_c @ b)`` per pair.

    The matched rows are data rows of ``obs`` and must lie in ``0..n-1``,
    and ``beta_hat`` needs ``obs.d_x`` entries; otherwise it raises
    IndexOutOfRange or DimensionMismatch.  The adjusted outcome
    ``y - x @ b`` is formed once over all ``n`` rows, then gathered at the
    pairs' rows.
    """
    if np.shape(beta_hat) != (obs.d_x,):
        raise DimensionMismatch(f"beta_hat has shape {np.shape(beta_hat)}; obs has d_x = {obs.d_x}")
    t_idx = check_indices(matches.treated_idx, obs.n)
    c_idx = check_indices(matches.control_idx, obs.n)
    adj = obs.x @ beta_hat
    np.subtract(obs.y, adj, out=adj)  # in place: one n-row temporary, not two
    return adj[t_idx] - adj[c_idx]


def estimate_att(obs: ObservationSet, splits: SplitAssignment) -> AttEstimate:
    """Run the full pipeline on one split assignment in role order (i1, i2, i3)."""
    roles = _roles(splits, obs.n)
    return _estimate_with_roles(obs, roles, _fit_scores(obs, roles[0]))


def _roles(splits: SplitAssignment, positions: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parts of ``splits`` in role order, once they cover the run's ``positions``."""
    # the parts partition their own positions (SplitAssignment checks that);
    # those must be the run's, checked before any label
    roles = (splits.i1, splits.i2, splits.i3)
    if sum(part.size for part in roles) != positions:
        raise DimensionMismatch(f"the split does not partition the run's {positions} positions")
    return roles


def _fit_scores(obs: ObservationSet, gamma_split: np.ndarray) -> np.ndarray:
    """The first stage of a run: ``gamma_hat`` fit on the rows of ``gamma_split``."""
    with labelled("I1"):
        return fit_gamma(obs, gamma_split)


def _estimate_with_roles(
    obs: ObservationSet, roles: tuple[np.ndarray, ...], gamma_hat: np.ndarray
) -> AttEstimate:
    # the run goes on from _fit_scores' gamma_hat on these roles, on data rows
    _, beta_split, match_split = roles
    eta_hat = residuals_eta(gamma_hat, obs)

    with labelled("I2"):
        beta_hat = fit_beta(obs, beta_split, eta_hat)

    treated = treatment_mask(obs)[match_split]
    treated3 = match_split[treated]
    control3 = match_split[~treated]
    with labelled("I3"):
        matches = match_controls(eta_hat[treated3], treated3, eta_hat[control3], control3)
    del eta_hat, treated, control3  # read; freed before matched_differences' n-row temporary

    differences = matched_differences(obs, beta_hat, matches)
    differences.setflags(write=False)
    return AttEstimate(beta_hat, gamma_hat, matches, roles, differences)


def estimate_att_crossfit(obs: ObservationSet, seed: int = 0) -> CrossfitEstimate:
    """Average the pipeline over the three cyclic role rotations.

    One partition is drawn from ``seed``; the rotations reuse its blocks
    with roles shifted, so every block serves once in each role.  A
    failure in any rotation aborts the whole estimate.
    """
    return crossfit_on_splits(obs, split_three_way(obs.n, seed=seed))


def crossfit_on_splits(obs: ObservationSet, splits: SplitAssignment) -> CrossfitEstimate:
    """Cross-fit over the rotations of an existing partition of ``obs``'s rows."""
    return _crossfit(obs, _roles(splits, obs.n))


def _crossfit(obs: ObservationSet, roles: tuple[np.ndarray, ...]) -> CrossfitEstimate:
    # rotation r gives parts r, r+1 and r+2 (mod 3) the score, difference and
    # matching roles; a run splits at its score fit
    def fit(r: int) -> np.ndarray:
        with labelled(f"rotation {r}"):
            return _fit_scores(obs, roles[r])

    def finish(r: int, gamma_hat: np.ndarray) -> AttEstimate:
        with labelled(f"rotation {r}"):
            return _estimate_with_roles(obs, roles[r:] + roles[:r], gamma_hat)

    return CrossfitEstimate(map_staged(fit, finish, 3))


def estimate_theta(
    obs: ObservationSet, seed: int, crossfit: bool = False, rows: np.ndarray | None = None
) -> float:
    """The ATT estimate of one seeded run on the partition drawn from ``seed``.

    Returns ``theta_hat`` of one pipeline run in role order or, with
    ``crossfit``, ``theta_cf`` over the partition's three role rotations.
    With a row map ``rows`` the run is on that resample of ``obs``, under
    the row-map contract of this module's docstring: the map is checked
    once, before any role label, and the run equals the run on
    ``obs.take(rows)`` bit for bit within the column limit README's
    reproducibility note states.  The partition is drawn over ``obs.n``
    positions, so a row map of any other length raises DimensionMismatch.
    Callers that need the intermediate fits call :func:`estimate_att` or
    :func:`estimate_att_crossfit` instead.
    """
    if rows is not None:
        rows = check_indices(rows, obs.n)
    roles = _roles(split_three_way(obs.n, seed=seed), obs.n if rows is None else len(rows))
    if rows is not None:
        roles = (rows[roles[0]], rows[roles[1]], rows[roles[2]])
    if crossfit:
        return _crossfit(obs, roles).theta_cf
    return _estimate_with_roles(obs, roles, _fit_scores(obs, roles[0])).theta_hat
