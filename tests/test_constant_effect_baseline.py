"""Heterogeneity matters: a constant-effect baseline is biased where threshmatch is not.

The baseline is our reading of constant-effect differencing (Mukherjee et al.,
2021), not the authors' code: sort the rows of ``I2`` and ``I3`` by ``eta_hat``
(``gamma`` fit on ``I1``), regress adjacent differences of ``y`` on those of
``x`` and of the treatment indicator, and read the indicator's coefficient.
Rows adjacent in ``eta_hat`` differ in treatment most often where ``eta`` is
near zero, so that coefficient weights the effect toward small ``eta``.  When
the effect grows with ``eta^2`` (``x_and_eta``) the baseline falls short of the
ATT; when it varies with ``x`` only, which is independent of ``eta``, it does not.

Seeds and bands were fixed before the first run.  Over 30 datasets of 12k rows
the sd of either estimate is about 0.045, so the standard error of a mean is
about 0.008; the band is 3 of those.  The baseline's expected bias under
``x_and_eta`` is about -0.052, more than 6 standard errors from zero.
"""

import numpy as np
import pytest

from threshmatch import (
    DgpConfig,
    estimate_att,
    first_differences,
    fit_gamma,
    generate,
    ols,
    order_by_eta,
    residuals_eta,
    split_three_way,
    treatment_mask,
)
from threshmatch.rng import derive_seed
from threshmatch.simulate import TRUE_ATT, X_AND_ETA, X_ONLY

SEEDS = [derive_seed(8, k) for k in range(30)]
N = 12_000
BAND = 0.025


def constant_effect_baseline(obs, splits) -> float:
    gamma_hat = fit_gamma(obs, splits.i1)
    rows = np.concatenate([splits.i2, splits.i3])
    eta_hat = np.full(obs.n, np.nan)
    eta_hat[rows] = residuals_eta(gamma_hat, obs)[rows]
    ordered = order_by_eta(eta_hat, rows)
    dx, dy = first_differences(ordered, obs)
    d_treated = np.diff(treatment_mask(obs)[ordered].astype(np.float64))
    return float(ols(np.column_stack([dx, d_treated]), dy)[-1])


def _mean_errors(ite_kind: str) -> tuple[float, float]:
    """Mean error against the true ATT of the baseline and of threshmatch."""
    baseline, threshmatch = [], []
    for s in SEEDS:
        obs = generate(DgpConfig(n=N, seed=derive_seed(s, 0), ite_kind=ite_kind))
        splits = split_three_way(obs.n, seed=derive_seed(s, 1))
        baseline.append(constant_effect_baseline(obs, splits))
        threshmatch.append(estimate_att(obs, splits).theta_hat)
    truth = TRUE_ATT[ite_kind]
    return float(np.mean(baseline)) - truth, float(np.mean(threshmatch)) - truth


@pytest.mark.parametrize("ite_kind", [X_ONLY, X_AND_ETA])
def test_constant_effect_baseline_is_biased_only_under_eta_heterogeneity(ite_kind):
    baseline_error, threshmatch_error = _mean_errors(ite_kind)
    assert abs(threshmatch_error) <= BAND
    if ite_kind == X_AND_ETA:
        assert baseline_error < -BAND
    else:
        assert abs(baseline_error) <= BAND
