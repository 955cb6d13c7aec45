import numpy as np
import pytest

import threshmatch.att as att_mod
from threshmatch import (
    AttEstimate,
    DgpConfig,
    EmptyControlGroup,
    EmptyTreatedGroup,
    IndexOutOfRange,
    MatchResult,
    ObservationSet,
    SplitAssignment,
    crossfit_on_splits,
    estimate_att,
    estimate_att_crossfit,
    estimate_theta,
    generate,
    residuals_eta,
    split_three_way,
    treatment_mask,
)

from conftest import make_null_obs, match_controls_brute

# rows 0-2, 3-5 and 6-8 in role order, for the nine-row fixtures
NATURAL_SPLITS_9 = SplitAssignment(np.arange(0, 3), np.arange(3, 6), np.arange(6, 9))


def _hand_fixture():
    # scalar x = z, tau0 = 0, natural-order splits of size 3:
    #   rows 0-2 fit the score regression, rows 3-5 (all controls) fit the
    #   difference regression, rows 6-8 hold one treated and two controls
    z = np.array([1.0, 2.0, -1.0, 0.5, -0.5, 1.0, 0.2, 0.4, -1.0])
    q = np.array([1.0, 3.0, -2.0, -1.0, -0.5, -0.2, 1.0, -0.1, -0.3])
    y = np.array([0.0, 0.0, 0.0, 2.0, -1.0, 0.5, 3.0, 1.0, 0.0])
    return ObservationSet(y=y, x=z[:, None], z=z[:, None], q=q, tau0=0.0)


def _hand_oracle(obs):
    """Independent recomputation of every pipeline stage with plain numpy."""
    i1, i2, i3 = np.arange(0, 3), np.arange(3, 6), np.arange(6, 9)
    z, q, y, x = obs.z[:, 0], obs.q, obs.y, obs.x[:, 0]
    gamma = (z[i1] @ q[i1]) / (z[i1] @ z[i1])
    eta = q - gamma * z
    controls2 = i2[q[i2] < 0]
    order = controls2[np.argsort(eta[controls2], kind="stable")]
    dx = np.diff(x[order])
    dy = np.diff(y[order])
    beta = (dx @ dy) / (dx @ dx)
    treated3 = i3[q[i3] >= 0]
    controls3 = i3[q[i3] < 0]
    diffs = []
    for t in treated3:
        c = controls3[np.argmin(np.abs(eta[controls3] - eta[t]))]
        diffs.append((y[t] - beta * x[t]) - (y[c] - beta * x[c]))
    return gamma, beta, float(np.mean(diffs))


class TestHandFixture:
    def test_full_pipeline_matches_hand_oracle(self):
        obs = _hand_fixture()
        est = estimate_att(obs, NATURAL_SPLITS_9)
        gamma, beta, theta = _hand_oracle(obs)

        assert gamma == pytest.approx(1.5, abs=1e-12)
        assert beta == pytest.approx(0.6, abs=1e-12)
        assert theta == pytest.approx(2.28, abs=1e-12)

        assert est.gamma_hat[0] == pytest.approx(gamma, abs=1e-10)
        assert est.beta_hat[0] == pytest.approx(beta, abs=1e-10)
        assert est.theta_hat == pytest.approx(theta, abs=1e-10)
        assert est.matches.treated_idx.tolist() == [6]
        assert est.matches.control_idx.tolist() == [8]
        controls, counts = est.matches.reuse_counts()
        assert controls.tolist() == [8] and counts.tolist() == [1]
        # the match chose between I3's two controls
        assert (~treatment_mask(obs)[NATURAL_SPLITS_9.i3]).sum() == 2


class TestExactNull:
    def test_theta_zero_under_null(self):
        for seed in range(5):
            obs = make_null_obs(seed=seed, n=120)
            splits = split_three_way(obs.n, seed=seed)
            assert abs(estimate_att(obs, splits).theta_hat) <= 1e-8
            assert abs(estimate_att_crossfit(obs, seed=seed).theta_cf) <= 1e-8


class TestInvariants:
    def test_outcome_shift(self):
        obs = generate(DgpConfig(n=600, seed=3))
        splits = split_three_way(obs.n, seed=3)
        base = estimate_att(obs, splits).theta_hat
        shifted = ObservationSet(y=obs.y + 42.0, x=obs.x, z=obs.z, q=obs.q, tau0=obs.tau0)
        assert estimate_att(shifted, splits).theta_hat == pytest.approx(base, abs=1e-8)

    def test_decomposition_audit(self):
        obs = generate(DgpConfig(n=600, seed=4))
        splits = split_three_way(obs.n, seed=4)
        est = estimate_att(obs, splits)
        beta = est.beta_hat
        recomputed = np.mean(
            [
                (obs.y[t] - obs.x[t] @ beta) - (obs.y[c] - obs.x[c] @ beta)
                for t, c in zip(est.matches.treated_idx, est.matches.control_idx)
            ]
        )
        assert recomputed == est.theta_hat

    def test_eta_hat_is_the_runs_residuals(self):
        obs = generate(DgpConfig(n=600, seed=6))
        splits = split_three_way(obs.n, seed=6)
        est = estimate_att(obs, splits)
        idx23 = np.concatenate([splits.i2, splits.i3])
        assert np.all(np.isnan(est.eta_hat[splits.i1]))
        assert np.array_equal(
            est.eta_hat[idx23], residuals_eta(est.gamma_hat, obs, idx23)
        )
        assert not est.eta_hat.flags.writeable

    def test_rotation_structure(self):
        s = split_three_way(30, seed=1)
        rots = s.rotations()
        blocks = [tuple(s.i1), tuple(s.i2), tuple(s.i3)]
        assert [tuple(map(tuple, r)) for r in rots] == [
            (blocks[0], blocks[1], blocks[2]),
            (blocks[1], blocks[2], blocks[0]),
            (blocks[2], blocks[0], blocks[1]),
        ]

    def test_crossfit_mean_is_exact(self):
        obs = generate(DgpConfig(n=600, seed=5))
        cf = estimate_att_crossfit(obs, seed=5)
        thetas = [r.theta_hat for r in cf.rotations]
        assert cf.theta_cf == (thetas[0] + thetas[1] + thetas[2]) / 3.0
        assert len(cf.rotations) == 3

    def test_identical_rotations_average_to_themselves(self, monkeypatch):
        stub = AttEstimate(
            theta_hat=0.25, beta_hat=None, gamma_hat=None, matches=None, eta_hat=None
        )
        monkeypatch.setattr(att_mod, "_estimate_with_roles", lambda *a, **k: stub)
        obs = make_null_obs(seed=0, n=60)
        assert estimate_att_crossfit(obs, seed=0).theta_cf == 0.25

    @pytest.mark.parametrize("seed", [0, 8, 2**40])
    def test_estimate_theta_is_the_seeded_run(self, seed):
        obs = generate(DgpConfig(n=600, seed=7))
        single = estimate_att(obs, split_three_way(obs.n, seed=seed)).theta_hat
        assert estimate_theta(obs, seed) == single
        assert estimate_theta(obs, seed, crossfit=True) == estimate_att_crossfit(obs, seed).theta_cf


class TestHeavyTies:
    def test_discrete_score_matches_brute_force_oracle(self, monkeypatch):
        # q and z on small integer grids, so many rows of a split share one
        # eta_hat and the tie rule decides which control each treated row gets
        rng = np.random.default_rng(11)
        n = 1200
        z = rng.integers(-1, 2, size=(n, 2)).astype(float)
        q = z.sum(axis=1) + rng.integers(-1, 2, size=n)
        x = rng.standard_normal((n, 2))
        y = x @ np.array([1.0, -0.5]) + 0.3 * q + rng.standard_normal(n)
        obs = ObservationSet(y=y, x=x, z=z, q=q, tau0=0.0)
        splits = split_three_way(obs.n, seed=3)

        single = estimate_att(obs, splits)
        controls3 = splits.i3[~treatment_mask(obs)[splits.i3]]
        assert np.unique(single.eta_hat[controls3]).size * 4 < controls3.size
        assert np.unique(single.matches.control_idx).size > 1
        cf = estimate_att_crossfit(obs, seed=3)

        monkeypatch.setattr(att_mod, "match_controls", match_controls_brute)
        brute_single = estimate_att(obs, splits)
        brute_cf = estimate_att_crossfit(obs, seed=3)
        assert brute_single.theta_hat == single.theta_hat
        assert np.array_equal(brute_single.matches.control_idx, single.matches.control_idx)
        assert brute_cf.theta_cf == cf.theta_cf
        for brute, fast in zip(brute_cf.rotations, cf.rotations):
            assert brute.theta_hat == fast.theta_hat
            assert np.array_equal(brute.matches.control_idx, fast.matches.control_idx)


class TestDgpScale:
    def test_theta_concentrates_near_truth(self):
        thetas = []
        for k in range(30):
            obs = generate(DgpConfig(n=12000, seed=9000 + k))
            splits = split_three_way(obs.n, seed=k)
            thetas.append(estimate_att(obs, splits).theta_hat)
        assert abs(np.mean(thetas) - 4.0 / 3.0) <= 0.1


class TestErrorLabeling:
    def test_no_controls_in_match_split(self):
        # rows 6-8 all treated
        q = np.array([1.0, 3.0, -2.0, -1.0, -0.5, -0.2, 1.0, 2.0, 3.0])
        z = np.arange(1.0, 10.0)
        obs = ObservationSet(y=np.zeros(9), x=z[:, None], z=z[:, None], q=q, tau0=0.0)
        with pytest.raises(EmptyControlGroup) as err:
            estimate_att(obs, NATURAL_SPLITS_9)
        assert err.value.split == "I3"
        assert "I3" in str(err.value)

    def test_no_treated_in_match_split(self):
        # rows 6-8 all controls; matching itself rejects the empty treated side
        q = np.array([1.0, 3.0, -2.0, -1.0, -0.5, -0.2, -1.0, -2.0, -3.0])
        z = np.arange(1.0, 10.0)
        obs = ObservationSet(y=np.zeros(9), x=z[:, None], z=z[:, None], q=q, tau0=0.0)
        with pytest.raises(EmptyTreatedGroup) as err:
            estimate_att(obs, NATURAL_SPLITS_9)
        assert err.value.split == "I3"
        assert "I3" in str(err.value)

    def test_no_controls_in_beta_split(self):
        q = np.array([1.0, 3.0, -2.0, 1.0, 0.5, 0.2, 1.0, -2.0, -3.0])
        z = np.arange(1.0, 10.0)
        obs = ObservationSet(y=np.zeros(9), x=z[:, None], z=z[:, None], q=q, tau0=0.0)
        with pytest.raises(EmptyControlGroup) as err:
            estimate_att(obs, NATURAL_SPLITS_9)
        assert err.value.split == "I2"

    def test_rotation_label_stands_alone_outside_role_blocks(self):
        # row 99 of a 30-row set fails in residuals_eta, outside the I1/I2/I3
        # blocks, so the rotation's label is the only one
        splits = SplitAssignment(np.arange(0, 10), np.r_[10:19, 99], np.arange(20, 30))
        with pytest.raises(IndexOutOfRange) as err:
            crossfit_on_splits(make_null_obs(seed=1, n=30), splits)
        assert err.value.split == "rotation 0"
        assert "None" not in str(err.value)


class TestMatchedDifferences:
    @pytest.mark.parametrize("bad", [-1, 30], ids=["minus-one", "n"])
    @pytest.mark.parametrize("side", ["treated", "control"])
    def test_rows_outside_the_set_raise(self, side, bad):
        # -1 would silently address row 29, and 30 raise numpy's bare IndexError
        obs = make_null_obs(seed=1, n=30)
        good, wrong = np.array([0, 1]), np.array([bad, 1])
        matches = MatchResult(wrong, good) if side == "treated" else MatchResult(good, wrong)
        with pytest.raises(IndexOutOfRange) as err:
            att_mod.matched_differences(obs, np.zeros(3), matches)
        assert err.value.index == bad

    def test_gaps_of_hand_picked_pairs(self):
        obs = make_null_obs(seed=1, n=30)
        beta = np.array([1.0, 0.5, -2.0])
        gaps = att_mod.matched_differences(obs, beta, MatchResult(np.array([3, 7]), np.array([4, 4])))
        adjusted = obs.y - obs.x @ beta
        assert np.array_equal(gaps, adjusted[[3, 7]] - adjusted[[4, 4]])
