import numpy as np
import pytest

from threshmatch import (
    DgpConfig,
    DimensionMismatch,
    ObservationSet,
    SplitTooSmall,
    fit_gamma,
    generate,
    residuals_eta,
    split_three_way,
)
from threshmatch.rng import derive_seed


def _noiseless_obs(seed=0, n=40):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 4))
    gamma = np.array([0.0, 0.0, 0.0, 1.0])
    q = z @ gamma
    return ObservationSet(y=np.zeros(n), x=z[:, :1], z=z, q=q, tau0=0.0), gamma


def test_noiseless_recovery():
    obs, gamma = _noiseless_obs()
    gamma_hat = fit_gamma(obs, np.arange(20))
    assert np.abs(gamma_hat - gamma).max() <= 1e-10


def test_monte_carlo_recovery_at_dgp_scale():
    hits = 0
    for k in range(100):
        obs = generate(DgpConfig(n=12000, seed=derive_seed(31, k)))
        splits = split_three_way(obs.n, seed=k)
        gamma_hat = fit_gamma(obs, splits.i1)
        if np.abs(gamma_hat - np.array([0, 0, 0, 1.0])).max() <= 0.05:
            hits += 1
    assert hits >= 95


def test_square_system_interpolates():
    obs, _ = _noiseless_obs(seed=5)
    rng = np.random.default_rng(6)
    i1 = rng.choice(obs.n, size=obs.d_z, replace=False)
    eta = residuals_eta(fit_gamma(obs, i1), obs)[i1]
    assert np.abs(eta).max() <= 1e-9


def test_hand_residual_example():
    # one row with z = (1, 2), gamma_hat = (0.5, 0.25), q = 3 -> eta = 2
    z = np.ones((9, 2))
    z[0] = [1.0, 2.0]
    q = np.full(9, 3.0)
    obs = ObservationSet(y=np.zeros(9), x=np.ones((9, 1)), z=z, q=q, tau0=0.0)
    eta = residuals_eta(np.array([0.5, 0.25]), obs)[np.array([0])]
    assert eta[0] == pytest.approx(2.0, abs=1e-15)


def test_zero_gamma_returns_q():
    obs, _ = _noiseless_obs(seed=9)
    idx = np.arange(10)
    assert np.array_equal(residuals_eta(np.zeros(obs.d_z), obs)[idx], obs.q[idx])


def test_linearity_in_q():
    rng = np.random.default_rng(17)
    z = rng.standard_normal((30, 3))
    q = rng.standard_normal(30)
    obs = ObservationSet(y=np.zeros(30), x=z[:, :1], z=z, q=q, tau0=0.0)
    doubled = ObservationSet(y=np.zeros(30), x=z[:, :1], z=z, q=2 * q, tau0=0.0)
    i1 = np.arange(15)
    idx = np.arange(15, 30)
    eta = residuals_eta(fit_gamma(obs, i1), obs)[idx]
    eta2 = residuals_eta(fit_gamma(doubled, i1), doubled)[idx]
    assert np.abs(eta2 - 2 * eta).max() <= 1e-10 * (1 + np.abs(eta).max())


def test_orthogonality_on_fit_split():
    rng = np.random.default_rng(23)
    z = rng.standard_normal((60, 4))
    q = z @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.uniform(-1, 1, 60)
    obs = ObservationSet(y=np.zeros(60), x=z[:, :1], z=z, q=q, tau0=0.0)
    i1 = np.arange(30)
    eta = residuals_eta(fit_gamma(obs, i1), obs)[i1]
    scale = 1 + np.abs(obs.z[i1]).max() * np.abs(eta).max()
    assert np.abs(obs.z[i1].T @ eta).max() <= 1e-8 * scale


def test_errors():
    obs, _ = _noiseless_obs()
    with pytest.raises(SplitTooSmall):
        fit_gamma(obs, np.arange(obs.d_z - 1))
    gamma_hat = fit_gamma(obs, np.arange(20))
    with pytest.raises(DimensionMismatch, match=r"shape \(3,\); obs has d_z = 4"):
        residuals_eta(gamma_hat[:3], obs)
