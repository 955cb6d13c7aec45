"""Resampling-based variance and confidence intervals for the ATT.

The matching estimator has no analytic standard error yet (ROADMAP item
2), so inference runs through the n-out-of-n bootstrap instead: resample
rows with replacement, rerun the whole pipeline (fresh split included),
and scale the replicate variance by a third of the sample size -- the
size of one split, which is the effective sample behind a single-run
estimate.

Every replicate's randomness is counter-derived from ``(seed, r)``, so
replicate ``r`` can be recomputed alone and parallel execution cannot
change results.  A replicate copies no data: it runs the pipeline on the
resample's row map through :func:`threshmatch.att.estimate_theta`, the one
function that knows a map: it turns the partition's parts into the data
rows behind them before any stage runs (see the row-map contract in the
:mod:`threshmatch.att` docstring).  The replicates run in
contiguous ranges on up to as many processes as ``os.sched_getaffinity``
grants CPUs (see :mod:`threshmatch.parallel`), with results bit-identical
to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .att import estimate_theta
from .data_model import ObservationSet, linear_quantiles, whole_number
from .errors import InputError, InvalidLevel, NumericError, StructuralError, TooManyFailures
from .parallel import map_ranges
from .rng import derive_seed, rng_from

FAILURE_BUDGET = 0.02  # fraction of replicates allowed to fail structurally


@dataclass(frozen=True, eq=False)
class BootstrapResult:
    """Replicate estimates with the scaled variance and percentile interval."""

    replicates: np.ndarray
    sigma2_hat: float
    ci_low: float
    ci_high: float
    b_failed: int


def check_settings(b: int, level: float) -> None:
    """Check a bootstrap's replicate count ``b`` and confidence ``level``.

    The one statement of the rule, for :func:`bootstrap_att` and for
    callers that check their settings before they load any data: ``b``
    must be an integer of at least 2 (DimensionMismatch for a
    non-integer, InputError for a smaller count), and ``level`` must lie
    strictly in ``(0, 1)`` (InvalidLevel).  The level is checked first.
    """
    if not (0.0 < level < 1.0):
        raise InvalidLevel(level)
    if whole_number(b, "b") < 2:
        raise InputError(f"need at least 2 bootstrap replicates, got {b}")


def bootstrap_replicate(
    obs: ObservationSet, r: int, seed: int, crossfit: bool = False
) -> float:
    """Compute replicate ``r`` in isolation.

    Draws ``n`` rows with replacement (stream ``(seed, r, 0)``), re-splits
    the resampled data (seed ``(seed, r, 1)``), and runs the pipeline on
    the resample's row map, bit-identical to a run on ``obs.take(rows)``
    within the column limit README's reproducibility note states.  The
    map stays inside :func:`threshmatch.att.estimate_theta`, under the
    row-map contract of the :mod:`threshmatch.att` docstring.
    Raises the pipeline's structural errors on degenerate resamples.
    """
    rows = rng_from(seed, r, 0).integers(0, obs.n, size=obs.n)
    return estimate_theta(obs, derive_seed(seed, r, 1), crossfit, rows)


def bootstrap_att(
    obs: ObservationSet,
    b: int,
    level: float = 0.95,
    seed: int = 0,
    crossfit: bool = False,
) -> BootstrapResult:
    """Run ``b`` bootstrap replicates of the ATT pipeline.

    ``sigma2_hat`` is ``floor(n/3)`` times the sample variance of the
    successful replicates, with or without ``crossfit``: a cross-fitted
    replicate averages three runs, yet its variance is scaled as a single
    run's, by the size of one split.  (``monte_carlo_att`` scales
    cross-fitted errors by ``n`` instead, so the two are not on one scale
    under ``crossfit``.)  The confidence interval takes the empirical
    ``(1-level)/2`` and ``1-(1-level)/2`` quantiles (linear interpolation
    between order statistics), the bits of ``np.quantile``'s "linear"
    method, from :func:`threshmatch.data_model.linear_quantiles`.
    Replicates whose resample cannot support estimation (say, a split
    without controls) are dropped, up to the ``FAILURE_BUDGET`` share of
    ``b``; beyond that the whole run is rejected.  ``b`` and ``level``
    are checked first, by :func:`check_settings`.
    """
    check_settings(b, level)

    def replicate(r: int) -> float | None:
        try:
            return bootstrap_replicate(obs, r, seed, crossfit)
        except (StructuralError, NumericError):
            return None  # a failed replicate, counted against the budget

    values = [v for v in map_ranges(replicate, b) if v is not None]
    b_failed = b - len(values)
    if b_failed > FAILURE_BUDGET * b or b - b_failed < 2:
        raise TooManyFailures(b_failed, b, FAILURE_BUDGET)

    replicates = np.asarray(values)
    n_tilde = obs.n // 3
    sigma2_hat = float(n_tilde * np.var(replicates, ddof=1))
    alpha = (1.0 - level) / 2.0
    ci_low, ci_high = linear_quantiles(replicates, [alpha, 1.0 - alpha])
    return BootstrapResult(
        replicates=replicates,
        sigma2_hat=sigma2_hat,
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        b_failed=int(b_failed),
    )
