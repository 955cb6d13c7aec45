"""The estimator's exact algebraic invariances, drawn over sizes, seeds and constants.

Golden bits guard refactors at fixed seeds; these properties guard them
everywhere else.  Each example draws a generator dataset of ``n`` rows
(60-2000), a data seed, a split seed and a constant ``c > 0``, and checks,
for a single run and for a cross-fit:

- ``c y`` scales ``theta_hat``, every bootstrap replicate, ``ci_low`` and
  ``ci_high`` by ``c``, and ``sigma2_hat`` by ``c**2``;
- ``y + c`` leaves all of them unchanged.

The tolerance is 1e-12 relative to the scale of the run's outcome,
``max |y|`` of the transformed data, and it holds each location: the
estimate, every replicate, both interval ends and the replicates' standard
deviation ``sqrt(sigma2_hat / (n // 3))``.  The invariances hold to about
1e-15 of that scale (ROADMAP, finding C).  A location's own size is no
scale: a replicate of -3.8e-4 from outcomes near 15 keeps their rounding,
about 1e-15, which is 3.5e-12 of its own size (``n=60, data_seed=4757,
seed=6698, c=15.0``, cross-fit).  A property that fails is a fault to
record with its shrunk example, not a bound to loosen.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshmatch import (
    DgpConfig,
    ObservationSet,
    TooManyFailures,
    bootstrap_att,
    estimate_att,
    estimate_att_crossfit,
    generate,
    split_three_way,
)

REL = 1e-12
B = 10  # bootstrap replicates per run


def _locations(obs: ObservationSet, seed: int, crossfit: bool):
    """The estimate, replicates, interval ends and replicate sd, or the bootstrap's error."""
    if crossfit:
        theta = estimate_att_crossfit(obs, seed=seed).theta_cf
    else:
        theta = estimate_att(obs, split_three_way(obs.n, seed=seed)).theta_hat
    try:
        boot = bootstrap_att(obs, b=B, seed=seed, crossfit=crossfit)
    except TooManyFailures as exc:  # a small resample may lack a split's controls
        return np.array([theta]), str(exc)
    sd = np.sqrt(boot.sigma2_hat / (obs.n // 3))
    return np.array([theta, *boot.replicates, boot.ci_low, boot.ci_high, sd]), None


def _assert_scaled(obs: ObservationSet, y: np.ndarray, base, c: float, seed: int, crossfit: bool):
    """The run on outcome ``y`` gives ``c`` times ``base``'s locations, or the same error."""
    got, failed = _locations(ObservationSet(y=y, x=obs.x, z=obs.z, q=obs.q, tau0=obs.tau0),
                             seed, crossfit)
    assert failed == base[1]  # failures depend on x, z and q only
    assert got == pytest.approx(c * base[0], rel=0, abs=REL * np.abs(y).max())


cases = given(
    n=st.integers(60, 2000),
    data_seed=st.integers(0, 10_000),
    seed=st.integers(0, 10_000),
    c=st.floats(0.01, 100.0),
)


@pytest.mark.parametrize("crossfit", [False, True], ids=["single", "crossfit"])
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@cases
def test_outcome_scale_and_shift(crossfit, n, data_seed, seed, c):
    obs = generate(DgpConfig(n=n, seed=data_seed))
    base = _locations(obs, seed, crossfit)
    _assert_scaled(obs, c * obs.y, base, c, seed, crossfit)
    _assert_scaled(obs, obs.y + c, base, 1.0, seed, crossfit)
