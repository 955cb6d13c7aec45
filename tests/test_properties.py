"""The estimator's exact algebraic invariances, drawn over sizes, seeds and constants.

Golden bits guard refactors at fixed seeds; these properties guard them
everywhere else.  Each example draws a generator dataset of ``n`` rows
(60-2000), a data seed and a split seed, and checks a single run and a
cross-fit.  With a constant ``c > 0``:

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
seed=6698, c=15.0``, cross-fit).

Three more move a run's inputs, each pair of runs built from fresh
C-ordered copies of ``x`` and ``z``:

- ``y + x @ b`` moves ``beta_hat`` by ``b`` and leaves ``theta_hat``
  unchanged, both within the same 1e-12 of the outcome scale;
- scaling one ``x`` column by ``2**k`` (``k`` in -8..8) leaves
  ``theta_hat`` bit-identical and divides that entry of ``beta_hat`` by
  exactly ``2**k``, the others unchanged;
- scaling one ``z`` column by ``2**k`` leaves the matches and
  ``theta_hat`` bit-identical.

A power of two scales every product and sum exactly in IEEE arithmetic,
so those two hold bit for bit.  A property that fails is a fault to record
with its shrunk example, not a bound to loosen.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshmatch import (
    AttEstimate,
    DgpConfig,
    ObservationSet,
    StructuralError,
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


def _runs(obs: ObservationSet, seed: int, crossfit: bool) -> list[AttEstimate] | str:
    """A single run's estimate, or a cross-fit's three rotations, or the run's error."""
    try:
        if crossfit:
            return estimate_att_crossfit(obs, seed=seed).rotations
        return [estimate_att(obs, split_three_way(obs.n, seed=seed))]
    except StructuralError as exc:  # a small split may lack the controls a stage needs
        return str(exc)


def _pairs(base: ObservationSet, moved: ObservationSet, seed: int, crossfit: bool):
    """The two runs' estimates side by side, or none when the runs fail alike."""
    a, b = _runs(base, seed, crossfit), _runs(moved, seed, crossfit)
    if isinstance(a, str) or isinstance(b, str):
        assert b == a  # failures depend on q and the split only
        return []
    return zip(a, b)


def _fresh(obs: ObservationSet, y=None, x=None, z=None) -> ObservationSet:
    """``obs`` with fresh C-ordered copies of ``x`` and ``z``, any of ``y, x, z`` replaced."""
    return ObservationSet(
        y=obs.y if y is None else y,
        x=np.array(obs.x if x is None else x, order="C"),
        z=np.array(obs.z if z is None else z, order="C"),
        q=obs.q,
        tau0=obs.tau0,
    )


def _bits(*values) -> list[bytes]:
    return [np.asarray(v, dtype=np.float64).tobytes() for v in values]


moves = settings(max_examples=100, derandomize=True, database=None, deadline=None)
sizes = dict(n=st.integers(60, 2000), data_seed=st.integers(0, 10_000), seed=st.integers(0, 10_000))


@pytest.mark.parametrize("crossfit", [False, True], ids=["single", "crossfit"])
@moves
@given(**sizes, b=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
def test_a_linear_outcome_term_moves_beta_only(crossfit, n, data_seed, seed, b):
    obs = generate(DgpConfig(n=n, seed=data_seed))
    y = obs.y + np.array(obs.x, order="C") @ np.array(b)
    tol = REL * np.abs(y).max()
    for base, moved in _pairs(_fresh(obs), _fresh(obs, y=y), seed, crossfit):
        assert moved.theta_hat == pytest.approx(base.theta_hat, rel=0, abs=tol)
        assert moved.beta_hat == pytest.approx(base.beta_hat + b, rel=0, abs=tol)


@pytest.mark.parametrize("crossfit", [False, True], ids=["single", "crossfit"])
@moves
@given(**sizes, col=st.integers(0, 2), k=st.integers(-8, 8))
def test_a_power_of_two_on_an_x_column_divides_its_beta(crossfit, n, data_seed, seed, col, k):
    obs = generate(DgpConfig(n=n, seed=data_seed))
    x = np.array(obs.x, order="C")
    x[:, col] *= 2.0**k
    for base, scaled in _pairs(_fresh(obs), _fresh(obs, x=x), seed, crossfit):
        expected = base.beta_hat.copy()
        expected[col] /= 2.0**k
        assert _bits(scaled.theta_hat, scaled.beta_hat) == _bits(base.theta_hat, expected)


@pytest.mark.parametrize("crossfit", [False, True], ids=["single", "crossfit"])
@moves
@given(**sizes, col=st.integers(0, 3), k=st.integers(-8, 8))
def test_a_power_of_two_on_a_z_column_keeps_the_matches(crossfit, n, data_seed, seed, col, k):
    obs = generate(DgpConfig(n=n, seed=data_seed))
    z = np.array(obs.z, order="C")
    z[:, col] *= 2.0**k
    for base, scaled in _pairs(_fresh(obs), _fresh(obs, z=z), seed, crossfit):
        assert _bits(scaled.theta_hat) == _bits(base.theta_hat)
        for name in ("treated_idx", "control_idx"):
            assert np.array_equal(getattr(scaled.matches, name), getattr(base.matches, name))
