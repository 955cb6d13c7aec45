"""Row-wide products equal the gather-first formulas bit for bit.

``residuals_eta`` and ``matched_differences`` form ``z @ gamma`` and
``x @ beta`` once over all rows and then gather scalars.  At widths 1-7
that gives the bits of gathering the 2-D rows first and multiplying
them, for plain runs and for a bootstrap resample's row map alike.  The
sizes run through every ``n mod 4`` and reach OpenBLAS's threading
threshold for the full products.  Single-row gathers and widths from 8
are the documented exceptions (README, reproducibility) and are not
checked here.
"""

import numpy as np
import pytest

from threshmatch import MatchResult, fit_gamma, residuals_eta
from threshmatch.att import matched_differences

from conftest import LAYOUTS, synthetic

WIDTHS = range(1, 8)
SIZES = (2000, 2001, 2002, 2003)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _sample(n, width, layout="C"):
    obs = synthetic(n, width, width, seed=100 * width + n % 4, layout=layout)
    rng = np.random.default_rng(n + width)
    # a resample's row map, and two gathers of positions: one long, one short
    rows = rng.integers(0, n, size=n)
    long_idx = np.sort(rng.choice(n, size=2 * n // 3 + n % 4, replace=False))
    short_idx = rng.permutation(n)[: 7 + width]
    return obs, rng, rows, (long_idx, short_idx)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("width", WIDTHS)
def test_residuals_equal_the_gathered_product(width, n):
    obs, _, rows, gathers = _sample(n, width)
    gamma = fit_gamma(obs, np.arange(n // 3))
    assert _bits(residuals_eta(gamma, obs)) == _bits(obs.q - obs.z @ gamma)
    for idx in gathers:
        expected = obs.q[idx] - obs.z[idx] @ gamma
        assert _bits(residuals_eta(gamma, obs)[idx]) == _bits(expected)
        # a row map: position p holds row rows[p]
        held = rows[idx]
        assert _bits(residuals_eta(gamma, obs)[rows][idx]) == _bits(obs.q[held] - obs.z[held] @ gamma)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("width", WIDTHS)
def test_matched_differences_equal_the_gathered_product(width, n):
    obs, rng, rows, _ = _sample(n, width)
    beta = rng.standard_normal(width)
    pairs = n // 6 + n % 4
    matches = MatchResult(rng.choice(n, size=pairs, replace=False), rng.integers(0, n, size=pairs))
    for row_map in (None, rows):
        t = matches.treated_idx if row_map is None else row_map[matches.treated_idx]
        c = matches.control_idx if row_map is None else row_map[matches.control_idx]
        expected = (obs.y[t] - obs.x[t] @ beta) - (obs.y[c] - obs.x[c] @ beta)
        # the step takes data rows: a row map's pairs are turned into rows first
        assert _bits(matched_differences(obs, beta, MatchResult(t, c))) == _bits(expected)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("width", (1, 4, 7))
def test_products_do_not_depend_on_the_callers_layout(width, layout):
    reference, rng, _, (idx, _) = _sample(2003, width)
    obs, *_ = _sample(2003, width, layout)
    gamma, beta = rng.standard_normal(width), rng.standard_normal(width)
    half = len(idx) // 2
    matches = MatchResult(idx[:half], idx[half : 2 * half])
    assert _bits(fit_gamma(obs, idx)) == _bits(fit_gamma(reference, idx))
    assert _bits(residuals_eta(gamma, obs)) == _bits(residuals_eta(gamma, reference))
    assert _bits(matched_differences(obs, beta, matches)) == _bits(
        matched_differences(reference, beta, matches)
    )
