import sys
import threading
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import threshmatch.att as att_mod
from threshmatch import (
    AttEstimate,
    CrossfitEstimate,
    DgpConfig,
    DimensionMismatch,
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
    first_differences,
    fit_beta,
    fit_gamma,
    generate,
    match_controls,
    order_by_eta,
    residuals_eta,
    split_three_way,
    treatment_mask,
)

from threshmatch.parallel import map_ranges

from conftest import make_null_obs, match_controls_brute, set_cpus

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

    def test_records_store_what_they_average_only(self):
        # theta_hat and theta_cf are read from the gaps and the rotations
        assert [f.name for f in fields(AttEstimate)] == [
            "beta_hat", "gamma_hat", "matches", "roles", "differences"
        ]
        assert [f.name for f in fields(CrossfitEstimate)] == ["rotations"]

    def test_roles_are_the_runs_splits_read_only(self):
        obs = generate(DgpConfig(n=600, seed=6))
        splits = split_three_way(obs.n, seed=6)
        est = estimate_att(obs, splits)
        for role, part in zip(est.roles, (splits.i1, splits.i2, splits.i3), strict=True):
            assert role is part
            assert not role.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            est.roles[2][0] = est.roles[0][0]

    def test_each_rotation_holds_the_partitions_parts_rotated(self):
        obs = generate(DgpConfig(n=600, seed=6))
        splits = split_three_way(obs.n, seed=6)
        crossfit = crossfit_on_splits(obs, splits)
        parts = (splits.i1, splits.i2, splits.i3)
        for r, est in enumerate(crossfit.rotations):
            # rotation r: parts r, r+1 and r+2 (mod 3) score, difference and
            # match, the partition's own arrays rather than copies
            assert all(est.roles[k] is parts[(r + k) % 3] for k in range(3))

    def test_differences_are_the_runs_matched_gaps(self):
        obs = generate(DgpConfig(n=600, seed=6))
        splits = split_three_way(obs.n, seed=6)
        est = estimate_att(obs, splits)
        treated3 = splits.i3[treatment_mask(obs)[splits.i3]]
        assert est.differences.shape == treated3.shape
        assert np.array_equal(
            est.differences, att_mod.matched_differences(obs, est.beta_hat, est.matches)
        )
        assert est.theta_hat == float(np.mean(est.differences))
        assert not est.differences.flags.writeable

    def test_rotation_structure(self):
        # rotation r is the single run that gives parts r, r+1 and r+2 (mod 3)
        # the score, difference and matching roles
        obs = generate(DgpConfig(n=600, seed=1))
        s = split_three_way(obs.n, seed=1)
        parts = (s.i1, s.i2, s.i3)
        cf = crossfit_on_splits(obs, s)
        for r, est in enumerate(cf.rotations):
            single = estimate_att(obs, SplitAssignment(*(parts[(r + k) % 3] for k in range(3))))
            assert est.theta_hat == single.theta_hat
            assert np.array_equal(est.gamma_hat, single.gamma_hat)
            assert np.array_equal(est.beta_hat, single.beta_hat)
            assert all(np.array_equal(a, b) for a, b in zip(est.roles, single.roles, strict=True))
            assert np.array_equal(est.matches.treated_idx, single.matches.treated_idx)
            assert np.array_equal(est.matches.control_idx, single.matches.control_idx)

    def test_crossfit_mean_is_exact(self):
        obs = generate(DgpConfig(n=600, seed=5))
        cf = estimate_att_crossfit(obs, seed=5)
        thetas = [r.theta_hat for r in cf.rotations]
        assert cf.theta_cf == (thetas[0] + thetas[1] + thetas[2]) / 3.0
        assert len(cf.rotations) == 3

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "two-threads"])
    def test_identical_rotations_average_to_themselves(self, monkeypatch, cpus):
        # on two threads the caller fits each rotation's scores and hands the
        # run its gamma_hat; the runs themselves are stubbed either way
        set_cpus(monkeypatch, cpus)
        stub = AttEstimate(
            beta_hat=None, gamma_hat=None, matches=None, roles=None,
            differences=np.array([0.25]),
        )
        runs = []
        monkeypatch.setattr(att_mod, "_estimate_with_roles", lambda *a, **k: runs.append(a) or stub)
        obs = make_null_obs(seed=0, n=60)
        cf = estimate_att_crossfit(obs, seed=0)
        assert cf.theta_cf == 0.25
        assert cf.rotations == [stub, stub, stub]
        assert len(runs) == 3

    @pytest.mark.parametrize("seed", [0, 8, 2**40])
    def test_estimate_theta_is_the_seeded_run(self, seed):
        obs = generate(DgpConfig(n=600, seed=7))
        single = estimate_att(obs, split_three_way(obs.n, seed=seed)).theta_hat
        assert estimate_theta(obs, seed) == single
        assert estimate_theta(obs, seed, crossfit=True) == estimate_att_crossfit(obs, seed).theta_cf


def rederive(obs: ObservationSet, est: AttEstimate) -> None:
    """Re-run a record's stages from its roles and ``gamma_hat``; each gives its fields exactly."""
    score, diff, match = est.roles
    assert np.array_equal(fit_gamma(obs, score), est.gamma_hat)
    eta = residuals_eta(est.gamma_hat, obs)
    assert np.array_equal(fit_beta(obs, diff, eta), est.beta_hat)
    treated = treatment_mask(obs)[match]
    t, c = match[treated], match[~treated]
    matches = match_controls(eta[t], t, eta[c], c)
    assert np.array_equal(matches.treated_idx, est.matches.treated_idx)
    assert np.array_equal(matches.control_idx, est.matches.control_idx)
    assert np.array_equal(att_mod.matched_differences(obs, est.beta_hat, matches), est.differences)


class TestRecordRederivesItsStages:
    # the residuals a record's readers derive must be those its stages read;
    # 4003 rows take the n-row products past OpenBLAS's threading threshold
    def test_a_single_run(self):
        obs = generate(DgpConfig(n=4003, seed=2))
        rederive(obs, estimate_att(obs, split_three_way(obs.n, seed=3)))

    def test_every_rotation_of_a_two_thread_crossfit(self, monkeypatch):
        obs = generate(DgpConfig(n=4003, seed=2))
        set_cpus(monkeypatch, 2)
        for est in estimate_att_crossfit(obs, seed=3).rotations:
            rederive(obs, est)

    def test_inside_a_map_ranges_item(self, monkeypatch):
        # an item runs OpenBLAS on one thread: it re-derives the records this
        # process built on two, and records of its own
        obs = generate(DgpConfig(n=4003, seed=2))
        set_cpus(monkeypatch, 2)
        caller = estimate_att_crossfit(obs, seed=3).rotations

        def item(r: int) -> None:
            rederive(obs, caller[r])
            rederive(obs, estimate_att_crossfit(obs, seed=3).rotations[r])

        assert map_ranges(item, 3) == [None] * 3


class TestRowIndexShape:
    # an index array that is not 1-D used to raise numpy's bare broadcast
    # ValueError in the gathers, or run on
    @pytest.fixture(scope="class")
    def obs(self):
        return generate(DgpConfig(n=300, seed=1))

    ENTRY_POINTS = {
        "estimate_theta-single": lambda obs, idx: estimate_theta(obs, 1, False, idx),
        "estimate_theta-crossfit": lambda obs, idx: estimate_theta(obs, 1, True, idx),
        "fit_gamma": lambda obs, idx: fit_gamma(obs, idx[:100]),
        "fit_beta": lambda obs, idx: fit_beta(obs, idx, residuals_eta(np.zeros(obs.d_z), obs)),
        "order_by_eta": lambda obs, idx: order_by_eta(obs.q, idx[:10]),
        "first_differences": lambda obs, idx: first_differences(idx, obs),
        "matched_differences": lambda obs, idx: att_mod.matched_differences(
            obs, np.zeros(obs.d_x), MatchResult(idx[:9], idx[:9])
        ),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_a_column_of_rows_is_rejected(self, obs, entry):
        idx = np.arange(obs.n)[:, None]
        with pytest.raises(DimensionMismatch, match=r"1-D, got shape \(\d+, 1\)") as err:
            self.ENTRY_POINTS[entry](obs, idx)
        assert err.value.split is None


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
        assert np.unique(residuals_eta(single.gamma_hat, obs)[controls3]).size * 4 < controls3.size
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


class TestWorkingSet:
    def test_a_serial_crossfit_peak_stays_under_its_bound(self, monkeypatch):
        # measured 12.1 MB; a record that keeps an n-row residual vector takes
        # it to 16.9 MB, and either fit holding a copy of its design beyond
        # the gathered one and Q, or matching keeping its intermediates to
        # its end, adds about 2.8 MB
        obs = generate(DgpConfig(n=300_000, seed=0))
        set_cpus(monkeypatch, 1)
        tracemalloc.start()
        try:
            estimate_att_crossfit(obs, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13.5e6


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


class TestRunPositions:
    # a partition of part of the sample, or a row map of another length,
    # used to run silently (a 150-row partition of 300 rows gave 2.076)
    @pytest.fixture(scope="class")
    def obs(self):
        return generate(DgpConfig(n=300, seed=1))

    def test_partial_partition_is_rejected_by_a_single_run(self, obs):
        with pytest.raises(DimensionMismatch, match=r"run's 300 positions") as err:
            estimate_att(obs, split_three_way(150, seed=0))
        assert err.value.split is None

    @pytest.mark.parametrize(
        "n, splits",
        [
            (300, split_three_way(150, seed=0)),
            (31, SplitAssignment(np.arange(0, 10), np.arange(10, 20), np.arange(20, 30))),
        ],
        ids=["150-of-300", "30-of-31"],
    )
    def test_partial_partition_is_rejected_by_crossfit(self, obs, n, splits):
        # checked once, before any rotation starts, so no label is set
        data = obs if n == obs.n else make_null_obs(seed=1, n=n)
        with pytest.raises(DimensionMismatch, match=rf"run's {n} positions") as err:
            crossfit_on_splits(data, splits)
        assert err.value.split is None
        assert "None" not in str(err.value)

    @pytest.mark.parametrize("extra", [30, -100], ids=["n-plus-30", "n-minus-100"])
    @pytest.mark.parametrize("crossfit", [False, True], ids=["single", "crossfit"])
    def test_row_map_of_another_length_is_rejected(self, obs, extra, crossfit):
        # n + 30 used to give 0.898 (take(rows) gives 0.786), n - 100 a bare IndexError
        rows = np.arange(obs.n + extra) % obs.n
        with pytest.raises(DimensionMismatch, match=rf"run's {obs.n + extra} positions"):
            estimate_theta(obs, seed=0, crossfit=crossfit, rows=rows)

    # a bad entry used to be caught by whichever stage first read it: labelled
    # "I1" in the score split, unlabelled in the other two
    @pytest.mark.parametrize("part", ["i1", "i2", "i3"])
    @pytest.mark.parametrize("bad", [-1, 300], ids=["minus-one", "n"])
    @pytest.mark.parametrize("crossfit", [False, True], ids=["single", "crossfit"])
    def test_a_bad_row_map_entry_raises_unlabelled_in_any_split(self, obs, part, bad, crossfit):
        rows = np.arange(obs.n)
        rows[getattr(split_three_way(obs.n, seed=0), part)[0]] = bad
        with pytest.raises(IndexOutOfRange) as err:
            estimate_theta(obs, seed=0, crossfit=crossfit, rows=rows)
        assert err.value.index == bad
        assert err.value.split is None

    @pytest.mark.parametrize("crossfit", [False, True], ids=["single", "crossfit"])
    def test_a_float_row_map_raises_unlabelled(self, obs, crossfit):
        rows = np.arange(obs.n, dtype=np.float64)
        with pytest.raises(DimensionMismatch, match="integer dtype") as err:
            estimate_theta(obs, seed=0, crossfit=crossfit, rows=rows)
        assert err.value.split is None


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

    @pytest.mark.parametrize("width", [2, 4])
    def test_beta_of_another_width_raises(self, width):
        # numpy's matmul used to raise a bare ValueError
        obs = make_null_obs(seed=1, n=30)
        with pytest.raises(DimensionMismatch, match=rf"shape \({width},\); obs has d_x = 3"):
            att_mod.matched_differences(obs, np.zeros(width), MatchResult(np.array([3]), np.array([4])))


class TestTwoThreadCrossfit:
    """With a second CPU free, the rotations run on the caller and one worker thread."""

    @staticmethod
    def _crossfit_on(monkeypatch, cpus, obs, seed):
        set_cpus(monkeypatch, cpus)
        return estimate_att_crossfit(obs, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_records_equal_the_serial_loop_bit_for_bit(self, monkeypatch, seed):
        # 150k rows: OpenBLAS splits the fits' QR over its threads at this size
        obs = generate(DgpConfig(n=150_000, seed=seed))
        threaded = self._crossfit_on(monkeypatch, 2, obs, seed)
        serial = self._crossfit_on(monkeypatch, 1, obs, seed)
        assert threaded.theta_cf == serial.theta_cf
        for a, b in zip(threaded.rotations, serial.rotations, strict=True):
            assert a.theta_hat == b.theta_hat
            for name in ("beta_hat", "gamma_hat", "differences"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
            assert all(np.array_equal(p, q) for p, q in zip(a.roles, b.roles, strict=True))
            assert np.array_equal(a.matches.treated_idx, b.matches.treated_idx)
            assert np.array_equal(a.matches.control_idx, b.matches.control_idx)

    def test_a_row_map_run_equals_the_serial_loop(self, monkeypatch):
        obs = generate(DgpConfig(n=150_000, seed=4))
        rows = np.random.default_rng(5).integers(0, obs.n, size=obs.n)
        set_cpus(monkeypatch, 2)
        threaded = estimate_theta(obs, seed=6, crossfit=True, rows=rows)
        set_cpus(monkeypatch, 1)
        assert threaded == estimate_theta(obs, seed=6, crossfit=True, rows=rows)

    # block k of the natural 30-row partition serves rotation r as its score
    # split when k == r, difference split when k == r + 1, matching split
    # when k == r + 2 (mod 3)
    @pytest.mark.parametrize("failing, expected", [
        ([(0, "I2"), (1, "I1")], "rotation 0: I2"),
        ([(1, "I1")], "rotation 1: I1"),
        ([(0, "I1"), (0, "I3")], "rotation 0: I1"),
        ([(1, "I3"), (2, "I1")], "rotation 1: I3"),
        ([(0, "I3"), (2, "I2")], "rotation 0: I3"),
        ([(2, "I3")], "rotation 2: I3"),
    ], ids=["worker-first", "caller-fit", "first-fit", "worker-second", "both-finishes",
            "caller-finish"])
    def test_the_serial_loops_first_error_is_raised(self, monkeypatch, failing, expected):
        splits = SplitAssignment(np.arange(0, 10), np.arange(10, 20), np.arange(20, 30))
        obs = make_null_obs(seed=3, n=30)
        fail_on = {((r + ("I1", "I2", "I3").index(stage)) % 3, stage) for r, stage in failing}

        def failing_stage(fn, stage, split_arg):
            def stage_fn(*args):
                if (int(args[split_arg][0]) // 10, stage) in fail_on:
                    raise EmptyControlGroup()
                return fn(*args)
            return stage_fn

        monkeypatch.setattr(att_mod, "fit_gamma", failing_stage(att_mod.fit_gamma, "I1", 1))
        monkeypatch.setattr(att_mod, "fit_beta", failing_stage(att_mod.fit_beta, "I2", 1))
        monkeypatch.setattr(
            att_mod, "match_controls", failing_stage(att_mod.match_controls, "I3", 1)
        )
        raised = []
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            before = threading.active_count()
            with pytest.raises(EmptyControlGroup) as err:
                crossfit_on_splits(obs, splits)
            assert threading.active_count() == before
            raised.append(str(err.value))
        assert raised == [f"[split {expected}] {EmptyControlGroup()}"] * 2

    def test_many_interleavings_keep_the_serial_estimates(self, monkeypatch):
        # eight cross-fits at once, sixteen threads on fewer CPUs, switching
        # every microsecond: a lost hand-off would lose a rotation or swap two
        obs = generate(DgpConfig(n=600, seed=8))
        set_cpus(monkeypatch, 1)
        serial = [estimate_att_crossfit(obs, s).theta_cf for s in range(8)]
        set_cpus(monkeypatch, 2)
        threaded = [None] * 8

        def run(s: int) -> None:
            threaded[s] = estimate_att_crossfit(obs, s).theta_cf

        callers = [threading.Thread(target=run, args=(s,)) for s in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert threaded == serial

    @staticmethod
    def _count_thread_starts(monkeypatch) -> list[str]:
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start", lambda self: (started.append(self.name), start(self))[1]
        )
        return started

    def test_one_worker_is_started_and_joined(self, monkeypatch):
        started = self._count_thread_starts(monkeypatch)
        set_cpus(monkeypatch, 2)
        before = threading.active_count()
        estimate_att_crossfit(make_null_obs(seed=0, n=60), seed=0)
        assert started == ["threshmatch-staged_0"]
        assert threading.active_count() == before

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        started = self._count_thread_starts(monkeypatch)
        set_cpus(monkeypatch, 1)
        estimate_att_crossfit(make_null_obs(seed=0, n=60), seed=0)
        assert started == []

    def test_a_map_ranges_item_starts_no_thread(self, monkeypatch):
        # bootstrap and mc-att replicates run their cross-fits inside such items,
        # in the calling process and in forked children alike
        started = self._count_thread_starts(monkeypatch)
        set_cpus(monkeypatch, 2)
        obs = make_null_obs(seed=0, n=60)

        def item(i: int) -> int:
            estimate_theta(obs, seed=i, crossfit=True)
            return len(started)

        assert map_ranges(item, 4) == [0, 0, 0, 0]
