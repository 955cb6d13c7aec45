import numpy as np
import pytest

import threshmatch.bootstrap as boot_mod
from threshmatch import (
    DgpConfig,
    InputError,
    InvalidLevel,
    TooManyFailures,
    bootstrap_att,
    bootstrap_replicate,
    estimate_att,
    estimate_att_crossfit,
    estimate_theta,
    generate,
    residuals_eta,
    split_three_way,
)
from threshmatch.errors import EmptyControlGroup, IndexOutOfRange, NumericError, StructuralError
from threshmatch.rng import derive_seed, rng_from

from conftest import assert_no_child_left, make_null_obs, set_cpus, synthetic, tie_heavy_obs


class TestFormula:
    def test_replicates_one_two_three(self, monkeypatch):
        # nine rows -> n_tilde = 3; replicates (1, 2, 3) have sample
        # variance 1, so sigma2_hat = 3
        monkeypatch.setattr(
            boot_mod, "bootstrap_replicate", lambda obs, r, seed, crossfit: float(r + 1)
        )
        obs = make_null_obs(seed=0, n=9)
        res = bootstrap_att(obs, b=3, level=0.5, seed=0)
        assert res.sigma2_hat == 3.0
        assert res.replicates.tolist() == [1.0, 2.0, 3.0]
        assert res.ci_low == pytest.approx(1.5)
        assert res.ci_high == pytest.approx(2.5)

    def test_degenerate_replicates(self, monkeypatch):
        monkeypatch.setattr(
            boot_mod, "bootstrap_replicate", lambda obs, r, seed, crossfit: 4.25
        )
        obs = make_null_obs(seed=0, n=9)
        res = bootstrap_att(obs, b=10, level=0.95, seed=0)
        assert res.sigma2_hat == 0.0
        assert (res.ci_low, res.ci_high) == (4.25, 4.25)

    def test_sigma2_recomputable_from_replicates(self):
        obs = generate(DgpConfig(n=600, seed=1))
        res = bootstrap_att(obs, b=40, seed=3)
        n_tilde = obs.n // 3
        assert res.sigma2_hat == n_tilde * np.var(res.replicates, ddof=1)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        obs = generate(DgpConfig(n=600, seed=2))
        a = bootstrap_att(obs, b=30, level=0.9, seed=7)
        b = bootstrap_att(obs, b=30, level=0.9, seed=7)
        assert np.array_equal(a.replicates, b.replicates)
        assert (a.sigma2_hat, a.ci_low, a.ci_high) == (b.sigma2_hat, b.ci_low, b.ci_high)

    def test_replicate_isolated_recompute(self):
        obs = generate(DgpConfig(n=600, seed=3))
        res = bootstrap_att(obs, b=25, seed=11)
        assert res.b_failed == 0
        for r in (0, 7, 24):
            assert bootstrap_replicate(obs, r, seed=11) == res.replicates[r]

    def test_crossfit_replicate_stream(self):
        # rows from stream (seed, r, 0); the cross-fit partition from seed (seed, r, 1)
        obs = generate(DgpConfig(n=600, seed=4))
        for r in (0, 3):
            rows = rng_from(5, r, 0).integers(0, obs.n, size=obs.n)
            expected = estimate_att_crossfit(obs.take(rows), seed=derive_seed(5, r, 1)).theta_cf
            assert bootstrap_replicate(obs, r, 5, crossfit=True) == expected

    def test_crossfit_flag_changes_stream(self):
        obs = generate(DgpConfig(n=600, seed=4))
        plain = bootstrap_att(obs, b=10, seed=5, crossfit=False)
        cf = bootstrap_att(obs, b=10, seed=5, crossfit=True)
        assert not np.array_equal(plain.replicates, cf.replicates)


class TestFailures:
    def test_budget_allows_exactly_two_percent(self, monkeypatch):
        def flaky(obs, r, seed, crossfit):
            if r < 2:
                raise EmptyControlGroup()
            return float(r)

        monkeypatch.setattr(boot_mod, "bootstrap_replicate", flaky)
        obs = make_null_obs(seed=0, n=9)
        res = bootstrap_att(obs, b=100, seed=0)  # 2/100 == budget
        assert res.b_failed == 2
        assert len(res.replicates) == 98

    def test_budget_exceeded(self, monkeypatch):
        def flaky(obs, r, seed, crossfit):
            if r < 3:
                raise EmptyControlGroup()
            return float(r)

        monkeypatch.setattr(boot_mod, "bootstrap_replicate", flaky)
        obs = make_null_obs(seed=0, n=9)
        with pytest.raises(TooManyFailures):
            bootstrap_att(obs, b=100, seed=0)

    def test_invalid_level(self):
        obs = make_null_obs(seed=0, n=60)
        with pytest.raises(InvalidLevel):
            bootstrap_att(obs, b=5, level=1.0)
        with pytest.raises(InputError):
            bootstrap_att(obs, b=1, level=0.9)


class TestAgainstVarianceTarget:
    def test_smoke_on_small_dgp(self):
        obs = generate(DgpConfig(n=2000, seed=6))
        res = bootstrap_att(obs, b=60, seed=8)
        assert 6.0 < res.sigma2_hat < 20.0
        assert res.ci_low < res.ci_high


class TestResampleByIndex:
    @pytest.mark.parametrize("crossfit", [False, True], ids=["single", "crossfit"])
    def test_replicate_equals_the_copied_resample_on_tied_scores(self, crossfit):
        # distinct rows share eta_hat here, so the tie keys decide matches and
        # the eta ordering: they must be resample positions, as on a copy
        obs = tie_heavy_obs(DgpConfig(n=900, seed=2))
        est = estimate_att(obs, split_three_way(obs.n, seed=1))
        eta = residuals_eta(est.gamma_hat, obs)[np.concatenate(est.roles[1:])]
        assert np.unique(eta).size * 50 < eta.size
        for r in range(40):
            rows = rng_from(7, r, 0).integers(0, obs.n, size=obs.n)
            expected = estimate_theta(obs.take(rows), derive_seed(7, r, 1), crossfit)
            assert bootstrap_replicate(obs, r, 7, crossfit) == expected

    @pytest.mark.parametrize("crossfit", [False, True], ids=["single", "crossfit"])
    @pytest.mark.parametrize("d_z", range(1, 8))
    @pytest.mark.parametrize("d_x", range(1, 8))
    def test_replicate_equals_the_copied_resample_up_to_7_columns(self, d_x, d_z, crossfit):
        # README's limit: from 8 columns the row-wide products may differ in the
        # last bits from the copy's, so the promise holds for widths 1-7
        obs = synthetic(1200 + d_x + d_z, d_x, d_z, seed=10 * d_x + d_z)
        for r in range(5):
            rows = rng_from(7, r, 0).integers(0, obs.n, size=obs.n)
            expected = estimate_theta(obs.take(rows), derive_seed(7, r, 1), crossfit)
            assert bootstrap_replicate(obs, r, 7, crossfit).hex() == expected.hex()


def _same_result(a, b):
    assert np.array_equal(a.replicates, b.replicates)
    assert (a.sigma2_hat, a.ci_low, a.ci_high, a.b_failed) == (
        b.sigma2_hat,
        b.ci_low,
        b.ci_high,
        b.b_failed,
    )


class TestChunks:
    @pytest.mark.parametrize("crossfit", [False, True], ids=["single", "crossfit"])
    def test_one_and_three_cpus_agree(self, monkeypatch, crossfit):
        obs = generate(DgpConfig(n=600, seed=5))
        runs = []
        for cpus in (1, 3):
            set_cpus(monkeypatch, cpus)
            runs.append(bootstrap_att(obs, b=20, level=0.9, seed=6, crossfit=crossfit))
            assert_no_child_left()
        _same_result(*runs)

    @pytest.mark.parametrize(
        "n, seed, crossfit, failing",
        [(36, 5, False, (47, 147)), (45, 5, True, (7, 95))],
        ids=["single", "crossfit"],
    )
    def test_failures_in_two_chunks_count_once(self, monkeypatch, n, seed, crossfit, failing):
        # b = 150 on three CPUs runs ranges of 50; the failing replicates
        # fall in two of them, and 2 of 150 stay within the budget
        obs = generate(DgpConfig(n=n, seed=seed))
        for r in failing:
            with pytest.raises((StructuralError, NumericError)):
                bootstrap_replicate(obs, r, seed, crossfit)
        runs = []
        for cpus in (1, 3):
            set_cpus(monkeypatch, cpus)
            runs.append(bootstrap_att(obs, b=150, seed=seed, crossfit=crossfit))
        assert runs[0].b_failed == 2
        _same_result(*runs)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_unexpected_error_in_a_range_reaches_the_caller(self, monkeypatch, cpus):
        def broken(obs, r, seed, crossfit):
            if r == 11:
                raise IndexOutOfRange(9, 9)
            return float(r)

        monkeypatch.setattr(boot_mod, "bootstrap_replicate", broken)
        set_cpus(monkeypatch, cpus)
        with pytest.raises(IndexOutOfRange) as err:
            bootstrap_att(make_null_obs(seed=0, n=9), b=12, seed=0)
        assert str(err.value) == "index 9 out of range for 9 rows"
        assert_no_child_left()
