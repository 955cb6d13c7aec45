import re

import numpy as np
import pytest

from threshmatch import (
    DgpConfig,
    DimensionMismatch,
    EmptyControlGroup,
    ObservationSet,
    TooFewControls,
    first_differences,
    fit_beta,
    fit_gamma,
    generate,
    order_by_eta,
    residuals_eta,
    split_three_way,
)

from conftest import make_pl_obs


class TestOrderByEta:
    def test_tie_keeps_the_order_rows_are_listed_in(self):
        eta = np.zeros(10)
        eta[5], eta[9], eta[2] = 0.3, -1.0, 0.3
        out = order_by_eta(eta, np.array([5, 9, 2]))
        assert out.tolist() == [9, 5, 2]

    def test_singleton(self):
        out = order_by_eta(np.arange(10.0), np.array([4]))
        assert out.tolist() == [4]

    def test_against_sort_oracle(self):
        rng = np.random.default_rng(12)
        eta = rng.standard_normal(100)
        idx = rng.permutation(100)[:60]
        expected = [i for _, i in sorted((eta[i], i) for i in idx)]
        assert order_by_eta(eta, idx).tolist() == expected

    def test_empty_raises(self):
        with pytest.raises(EmptyControlGroup):
            order_by_eta(np.arange(5.0), np.array([], dtype=int))

    # a 2-D eta_hat used to raise numpy's bare "could not broadcast" ValueError
    @pytest.mark.parametrize("shape", [(10, 1), (1, 10), (2, 5), ()], ids=str)
    def test_eta_hat_that_is_not_1d_raises(self, shape):
        eta = np.arange(float(np.prod(shape))).reshape(shape)
        with pytest.raises(DimensionMismatch, match="1-D"):
            order_by_eta(eta, np.array([0]))

    @staticmethod
    def _stable_order(eta, idx):
        return idx[np.argsort(eta[idx], kind="stable")]

    @staticmethod
    def _random_ties(seed):
        # few distinct values, signed zeros among them; a bootstrap
        # resample's repeated rows tie the same way
        rng = np.random.default_rng(seed)
        n = 50 + 400 * seed
        eta = rng.integers(-3, 4, size=n) / 2.0
        eta[rng.random(n) < 0.2] = -0.0
        return eta, rng.permutation(n)[: n - seed]

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_stable_argsort_on_random_ties(self, seed):
        eta, idx = self._random_ties(seed)  # unsorted labels
        assert np.array_equal(order_by_eta(eta, idx), self._stable_order(eta, idx))

    @pytest.mark.parametrize("seed", range(6))
    def test_ascending_rows_tie_to_the_smaller_index_on_random_ties(self, seed):
        # a pipeline run lists a split's rows ascending, as SplitAssignment
        # stores them, so there ties go to the smaller index
        eta, idx = self._random_ties(seed)
        idx = np.sort(idx)
        assert np.array_equal(order_by_eta(eta, idx), idx[np.lexsort((idx, eta[idx]))])

    def test_signed_zeros_tie(self):
        eta = np.zeros(6)
        eta[[1, 4]] = -0.0
        for idx in (np.array([4, 3, 1, 0]), np.array([0, 1, 3, 4])):
            assert order_by_eta(eta, idx).tolist() == idx.tolist()

    def test_nan_comes_last_in_list_order_as_in_a_stable_argsort(self):
        eta = np.array([0.5, np.nan, -1.0, np.nan, 0.5, 2.0, np.nan])
        idx = np.array([6, 5, 3, 4, 1, 0, 2])
        out = order_by_eta(eta, idx)
        assert out.tolist() == [2, 4, 0, 5, 6, 3, 1]
        assert np.array_equal(out, self._stable_order(eta, idx))


class TestFirstDifferences:
    def test_two_rows(self):
        obs = make_pl_obs(seed=1, n=9, beta=np.array([1.0]))
        dx, dy = first_differences(np.array([0, 1]), obs)
        assert dx.shape == (1, 1)
        assert dx[0, 0] == obs.x[1, 0] - obs.x[0, 0]
        assert dy[0] == obs.y[1] - obs.y[0]

    def test_constant_x_vanishes(self):
        x = np.ones((9, 2))
        obs = ObservationSet(
            y=np.arange(9.0), x=x, z=np.arange(9.0)[:, None] + 1, q=np.arange(9.0), tau0=100.0
        )
        dx, _ = first_differences(np.arange(9), obs)
        assert np.all(dx == 0.0)

    def test_hand_fixture(self):
        y = np.array([1.0, 4.0, 9.0, 16.0, 25.0, 0.0, 0.0, 0.0, 0.0])
        x = np.arange(9.0)[:, None]
        obs = ObservationSet(y=y, x=x, z=x + 1, q=np.arange(9.0), tau0=100.0)
        dx, dy = first_differences(np.array([0, 1, 2, 3, 4]), obs)
        assert dx.ravel().tolist() == [1.0, 1.0, 1.0, 1.0]
        assert dy.tolist() == [3.0, 5.0, 7.0, 9.0]

    @pytest.mark.parametrize("d_x", [1, 3])
    def test_dx_holds_np_diffs_bits_column_major(self, d_x):
        obs = make_pl_obs(seed=3, n=200, beta=np.linspace(1.0, 2.0, d_x))
        idx = np.random.default_rng(4).permutation(obs.n)[:150]
        dx, dy = first_differences(idx, obs)
        assert dx.flags.f_contiguous
        assert dx.shape == (149, d_x)
        assert dx.tobytes(order="F") == np.diff(obs.x[idx], axis=0).tobytes(order="F")
        assert dy.tobytes() == np.diff(obs.y[idx]).tobytes()

    def test_too_few(self):
        obs = make_pl_obs(seed=2, n=9, beta=np.array([1.0]))
        with pytest.raises(TooFewControls):
            first_differences(np.array([3]), obs)


class TestFitBeta:
    def test_noiseless_null_recovers_exactly(self):
        beta = np.array([2.0, -1.0])
        obs = make_pl_obs(seed=3, n=60, beta=beta)
        i2 = np.arange(obs.n)
        eta = obs.q - obs.z[:, 3]
        beta_hat = fit_beta(obs, i2, eta)
        assert np.abs(beta_hat - beta).max() <= 1e-8
        # treated rows of i2 are discarded: the controls alone give the same bits
        controls = i2[obs.q[i2] < obs.tau0]
        assert controls.size < i2.size
        assert np.array_equal(fit_beta(obs, controls, eta), beta_hat)

    def test_hand_pipeline_oracle(self):
        # six control points, quadratic nuisance in eta, no noise; the
        # oracle recomputes differences and solves the 2x2 normal equations
        eta = np.array([0.1, -0.5, 0.9, 0.3, -0.2, 0.7])
        x = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.0], [1.5, 1.0], [0.0, 1.0], [2.5, -0.5]])
        beta = np.array([1.5, -2.0])
        y = x @ beta + eta**2
        pad = 3  # extra treated rows so n >= 9
        x_all = np.vstack([x, np.ones((pad, 2))])
        y_all = np.concatenate([y, np.zeros(pad)])
        q_all = np.concatenate([-np.ones(6), np.ones(pad)])  # first six are controls
        obs = ObservationSet(y=y_all, x=x_all, z=x_all, q=q_all, tau0=0.0)
        eta_all = np.concatenate([eta, np.zeros(pad)])

        beta_hat = fit_beta(obs, np.arange(9), eta_all)

        order = np.argsort(eta)
        dx = np.diff(x[order], axis=0)
        dy = np.diff(y[order])
        oracle = np.linalg.solve(dx.T @ dx, dx.T @ dy)
        assert np.abs(beta_hat - oracle).max() <= 1e-10

    def test_outcome_shift_leaves_beta(self):
        obs = make_pl_obs(seed=4, n=80, beta=np.array([1.0, 0.5]), ell=np.sin, eps_sd=0.1)
        eta = obs.q - obs.z[:, 3]
        base = fit_beta(obs, np.arange(obs.n), eta)
        shifted = ObservationSet(y=obs.y + 17.0, x=obs.x, z=obs.z, q=obs.q, tau0=obs.tau0)
        fit2 = fit_beta(shifted, np.arange(obs.n), eta)
        assert np.abs(fit2 - base).max() <= 1e-10

    def test_eta_shift_leaves_beta(self):
        obs = make_pl_obs(seed=5, n=80, beta=np.array([1.0, 0.5]), ell=np.sin, eps_sd=0.1)
        eta = obs.q - obs.z[:, 3]
        base = fit_beta(obs, np.arange(obs.n), eta)
        fit2 = fit_beta(obs, np.arange(obs.n), eta + 5.0)
        controls = np.flatnonzero(obs.q < obs.tau0)
        assert np.array_equal(order_by_eta(eta + 5.0, controls), order_by_eta(eta, controls))
        assert np.array_equal(fit2, base)

    def test_entry_order_irrelevant(self):
        obs = make_pl_obs(seed=6, n=80, beta=np.array([1.0, 0.5]), ell=np.cos, eps_sd=0.1)
        eta = obs.q - obs.z[:, 3]
        i2 = np.arange(obs.n)
        base = fit_beta(obs, i2, eta)
        rng = np.random.default_rng(0)
        fit2 = fit_beta(obs, rng.permutation(i2), eta)
        assert np.array_equal(fit2, base)

    def test_sort_permutation_is_control_permutation(self):
        obs = make_pl_obs(seed=7, n=60, beta=np.array([1.0]))
        eta = obs.q - obs.z[:, 3]
        i2 = np.arange(obs.n)
        controls = i2[obs.q[i2] < obs.tau0]
        sorted_idx = order_by_eta(eta, controls)
        assert sorted(sorted_idx.tolist()) == sorted(controls.tolist())

    def test_dgp_scale_smoke(self):
        hits = 0
        for k in range(20):
            obs = generate(DgpConfig(n=12000, seed=1000 + k))
            splits = split_three_way(obs.n, seed=k)
            gamma = fit_gamma(obs, splits.i1)
            eta = np.full(obs.n, np.nan)
            idx = np.concatenate([splits.i2, splits.i3])
            eta[idx] = residuals_eta(gamma, obs)[idx]
            beta_hat = fit_beta(obs, splits.i2, eta)
            if np.abs(beta_hat - np.array([1.0, 0.0, 1.0])).max() <= 0.1:
                hits += 1
        assert hits >= 19

    def test_errors(self):
        obs = make_pl_obs(seed=8, n=20, beta=np.array([1.0]))
        eta = obs.q - obs.z[:, 3]
        all_treated = np.where(obs.q >= 0)[0]
        with pytest.raises(EmptyControlGroup):
            fit_beta(obs, all_treated, eta)
        one_control = np.where(obs.q < 0)[0][:1]
        with pytest.raises(TooFewControls):
            fit_beta(obs, one_control, eta)

    # a longer eta_hat used to pass, and a shorter one to raise IndexOutOfRange
    # naming a valid row of obs
    @pytest.mark.parametrize("shape", [(21,), (5,), (20, 1)], ids=["longer", "shorter", "2-D"])
    def test_eta_hat_of_another_shape_raises(self, shape):
        obs = make_pl_obs(seed=8, n=20, beta=np.array([1.0]))
        with pytest.raises(DimensionMismatch, match=re.escape(f"eta_hat has shape {shape}")):
            fit_beta(obs, np.arange(obs.n), np.zeros(shape))
