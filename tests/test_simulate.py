import json
import os
from dataclasses import fields

import numpy as np
import pytest

import threshmatch.simulate as sim_mod
from threshmatch import (
    DgpConfig,
    DimensionMismatch,
    EmptyControlGroup,
    InputError,
    McReport,
    SplineBasisSpec,
    TooFewRows,
    bootstrap_att,
    generate,
    monte_carlo_att,
    monte_carlo_ite,
    split_three_way,
    true_att_oracle,
    true_ite_fn,
)
from threshmatch.rng import derive_seed
from threshmatch.simulate import TRUE_ATT, X_AND_ETA, X_ONLY

from conftest import assert_no_child_left, make_null_obs, set_cpus


class TestGenerate:
    def test_deterministic(self):
        a = generate(DgpConfig(n=500, seed=13))
        b = generate(DgpConfig(n=500, seed=13))
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.q, b.q)

    def test_distinct_seeds_differ(self):
        a = generate(DgpConfig(n=500, seed=13))
        b = generate(DgpConfig(n=500, seed=14))
        assert not np.array_equal(a.y, b.y)

    def test_shapes_and_threshold(self):
        obs = generate(DgpConfig(n=100, seed=0))
        assert obs.d_x == 3 and obs.d_z == 4
        assert obs.tau0 == 0.0
        assert np.array_equal(obs.x, obs.z[:, :3])

    def test_treated_fraction_is_half(self):
        obs = generate(DgpConfig(n=1_000_000, seed=5))
        frac = float((obs.q >= 0).mean())
        assert abs(frac - 0.5) <= 0.005

    def test_confounder_variance_is_one_third(self):
        obs = generate(DgpConfig(n=1_000_000, seed=6))
        eta = obs.q - obs.z[:, 3]  # exact recovery under the true score model
        assert abs(np.var(eta) - 1.0 / 3.0) <= 0.01

    def test_control_outcome_mean_matches_direct_simulation_oracle(self):
        obs = generate(DgpConfig(n=1_000_000, seed=7))
        sample_mean = obs.y[obs.q < 0].mean()

        # independent draw of the same quantities, no shared code path
        rng = np.random.default_rng(987654321)
        m = 10_000_000
        covs = rng.standard_normal((m, 4))
        eta = rng.uniform(-1, 1, size=m)
        ctrl = covs[:, 3] + eta < 0
        vals = (covs[:, 0] + covs[:, 2] + eta / 2.0)[ctrl]
        oracle_mean = vals.mean()
        oracle_se = vals.std() / np.sqrt(ctrl.sum())
        sample_se = obs.y[obs.q < 0].std() / np.sqrt((obs.q < 0).sum())
        tol = 3.0 * float(np.hypot(oracle_se, sample_se))
        assert abs(sample_mean - oracle_mean) <= tol

    def test_config_rejects_small_n_and_unknown_kind(self):
        with pytest.raises(TooFewRows):
            DgpConfig(n=8, seed=0)
        with pytest.raises(DimensionMismatch, match="unknown ite_kind"):
            DgpConfig(n=9, seed=0, ite_kind="x_squared")

    def test_x_only_kind_drops_eta_square(self):
        cfg = DgpConfig(n=50_000, seed=8, ite_kind=X_ONLY)
        obs = generate(cfg)
        cfg2 = DgpConfig(n=50_000, seed=8, ite_kind=X_AND_ETA)
        obs2 = generate(cfg2)
        treated = obs.q >= 0
        eta = obs.q - obs.z[:, 3]
        gap = obs2.y[treated] - obs.y[treated]
        assert np.abs(gap - eta[treated] ** 2).max() <= 1e-12


# an unknown kind used to pass true_att_oracle and true_ite_fn as "x_only"
@pytest.mark.parametrize(
    "build",
    [
        lambda kind: DgpConfig(n=9, seed=0, ite_kind=kind),
        lambda kind: true_att_oracle(20_000, ite_kind=kind),
        true_ite_fn,
    ],
    ids=["DgpConfig", "true_att_oracle", "true_ite_fn"],
)
@pytest.mark.parametrize("kind", ["bogus", "x-only", None])
def test_an_unknown_ite_kind_is_rejected_everywhere(build, kind):
    with pytest.raises(DimensionMismatch, match="unknown ite_kind"):
        build(kind)


class TestTrueAttOracle:
    def test_matches_analytic_value(self):
        val = true_att_oracle(1_000_000, seed=3)
        assert abs(val - 4.0 / 3.0) <= 0.02
        assert abs(val - TRUE_ATT[X_AND_ETA]) <= 0.02

    def test_x_only_truth_is_one(self):
        val = true_att_oracle(1_000_000, seed=4, ite_kind=X_ONLY)
        assert abs(val - 1.0) <= 0.02


class TestTrueIteFn:
    def test_recovers_surface_from_rows(self):
        obs = generate(DgpConfig(n=1000, seed=9))
        eta = obs.q - obs.z[:, 3]
        truth = true_ite_fn(X_AND_ETA)(obs.x, obs.z, obs.q)
        expected = obs.x[:, 0] ** 2 + obs.x[:, 1] * obs.x[:, 2] + eta**2
        assert np.abs(truth - expected).max() <= 1e-12
        truth_x = true_ite_fn(X_ONLY)(obs.x, obs.z, obs.q)
        assert np.abs(truth_x - (obs.x[:, 0] ** 2 + obs.x[:, 1] * obs.x[:, 2])).max() == 0.0


class TestMonteCarloAtt:
    def test_determinism(self):
        cfg = DgpConfig(n=600, seed=1)
        a = monte_carlo_att(cfg, reps=30)
        b = monte_carlo_att(cfg, reps=30)
        assert np.array_equal(a.zetas, b.zetas)

    def test_zeta_scaling_single_vs_crossfit(self):
        cfg = DgpConfig(n=600, seed=2)
        single = monte_carlo_att(cfg, reps=30, crossfit=False)
        cf = monte_carlo_att(cfg, reps=30, crossfit=True)
        assert len(single.zetas) == len(cf.zetas) == 30
        assert single.variance > 0 and cf.variance > 0

    def test_degenerate_estimator_hook(self, monkeypatch):
        monkeypatch.setattr(
            sim_mod, "estimate_theta", lambda obs, seed, crossfit: TRUE_ATT[X_AND_ETA]
        )
        rep = monte_carlo_att(DgpConfig(n=90, seed=3), reps=30)
        assert np.all(rep.zetas == 0.0)
        assert rep.variance == 0.0
        assert sum(c for _, _, c in rep.histogram) == 30

    def test_report_serialization(self, tmp_path):
        rep = monte_carlo_att(DgpConfig(n=600, seed=4), reps=30)
        doc = json.loads(json.dumps(rep.to_json_dict(), sort_keys=True))
        assert set(doc) == {
            "zetas", "mean", "variance", "skewness", "excess_kurtosis", "ks_stat", "histogram",
        }
        assert len(doc["zetas"]) == 30
        assert sum(h["count"] for h in doc["histogram"]) == 30

        path = tmp_path / "hist.csv"
        rep.write_histogram_csv(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == len(rep.histogram) + 1

    def test_report_derives_its_summary_from_its_errors(self):
        rep = monte_carlo_att(DgpConfig(n=600, seed=4), reps=30)
        assert [f.name for f in fields(McReport)] == ["zetas"]
        shifted = McReport(rep.zetas + 1.0)
        assert shifted.mean == pytest.approx(rep.mean + 1.0)
        assert shifted.variance == pytest.approx(rep.variance)
        assert np.allclose(np.array(shifted.histogram)[:, :2] - 1.0, np.array(rep.histogram)[:, :2])

    def test_minimum_reps_enforced(self):
        with pytest.raises(Exception):
            monte_carlo_att(DgpConfig(n=600, seed=0), reps=10)


class TestMonteCarloIte:
    def test_empty_seed_list_rejected(self):
        with pytest.raises(DimensionMismatch):
            monte_carlo_ite(DgpConfig(n=600, seed=0), SplineBasisSpec(), [])


def _run_mc_ite():
    return monte_carlo_ite(DgpConfig(n=900, seed=0), SplineBasisSpec(), [11, 12, 13])


def _run_mc_att():
    return monte_carlo_att(DgpConfig(n=600, seed=0), reps=30)


class TestReplicateLabels:
    # the patched call fails for replicates 1 and 2, which it tells by the
    # seed it is passed; on three CPUs mc-ite runs them in two children
    @pytest.mark.parametrize("target, run, seed_of, failing", [
        ("fit_ite", _run_mc_ite, lambda args, kwargs: kwargs["cv_seed"],
         {derive_seed(s, 2) for s in (12, 13)}),
        ("estimate_theta", _run_mc_att, lambda args, kwargs: args[1],
         {derive_seed(0, k, 1) for k in (1, 2)}),
    ], ids=["mc-ite", "mc-att"])
    @pytest.mark.parametrize("split, label", [
        (None, "replicate 1"),
        ("I2", "replicate 1: I2"),
    ], ids=["unlabelled", "labelled"])
    def test_failure_names_the_second_replicate(
        self, monkeypatch, target, run, seed_of, failing, split, label
    ):
        real = getattr(sim_mod, target)

        def fail_on_replicates_one_and_two(*args, **kwargs):
            calls.append(None)
            if seed_of(args, kwargs) in failing:
                exc = EmptyControlGroup()
                exc.split = split
                raise exc
            return real(*args, **kwargs)

        monkeypatch.setattr(sim_mod, target, fail_on_replicates_one_and_two)
        for cpus in (1, 3):
            set_cpus(monkeypatch, cpus)
            calls = []
            with pytest.raises(EmptyControlGroup) as err:
                run()
            assert err.value.split == label
            assert str(err.value).startswith(f"[split {label}] ")
            assert_no_child_left()
            if cpus == 1:
                assert len(calls) == 2  # a serial run stops at the first failure


class TestChunks:
    def test_mc_att_on_one_and_three_cpus_agree(self, monkeypatch):
        reports = []
        for cpus in (1, 3):
            set_cpus(monkeypatch, cpus)
            reports.append(monte_carlo_att(DgpConfig(n=600, seed=5), reps=30))
        assert np.array_equal(reports[0].zetas, reports[1].zetas)
        assert reports[0].histogram == reports[1].histogram

    def test_mc_ite_on_one_and_three_cpus_agree(self, monkeypatch):
        mses = []
        for cpus in (1, 3):
            set_cpus(monkeypatch, cpus)
            mses.append(_run_mc_ite())
        assert mses[0] == mses[1]

    def test_one_seed_runs_in_process(self, monkeypatch):
        # the replicate runs here; the only forks are its CV grid's k - 1 = 2 children
        set_cpus(monkeypatch, 3)
        fit_pids, forks = [], []
        real_fork, real_fit = os.fork, sim_mod.fit_ite

        def counting_fork():
            forks.append(os.getpid())
            return real_fork()

        def fit(*args, **kwargs):
            fit_pids.append(os.getpid())
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(sim_mod, "fit_ite", fit)
        assert len(monte_carlo_ite(DgpConfig(n=900, seed=0), SplineBasisSpec(), [11])) == 1
        assert fit_pids == [os.getpid()]
        assert forks == [os.getpid()] * 2
        assert_no_child_left()


class TestSeedIndependence:
    def test_replicate_datasets_are_recomputable(self):
        from threshmatch.rng import derive_seed

        cfg = DgpConfig(n=600, seed=0)
        # dataset of replicate k=2 under master seed 9, recomputed directly
        direct = generate(DgpConfig(n=600, seed=derive_seed(9, 2, 0)))
        other = generate(DgpConfig(n=600, seed=derive_seed(9, 3, 0)))
        assert not np.array_equal(direct.y, other.y)
        again = generate(DgpConfig(n=600, seed=derive_seed(9, 2, 0)))
        assert np.array_equal(direct.y, again.y)


@pytest.mark.parametrize("call, name", [
    (lambda: generate(DgpConfig(n=300.5, seed=0)), "n"),
    (lambda: split_three_way(300.5), "n"),
    (lambda: bootstrap_att(make_null_obs(seed=0, n=30), b=3.5), "b"),
    (lambda: monte_carlo_att(DgpConfig(n=600, seed=0), reps=30.5), "reps"),
    (lambda: true_att_oracle(0), "samples"),
    (lambda: true_att_oracle(-5), "samples"),
], ids=["dgp-n", "split-n", "bootstrap-b", "mc-att-reps", "oracle-zero", "oracle-negative"])
def test_counts_raise_input_errors_naming_the_argument(call, name):
    # a count is a whole number by operator.index; a float or an empty
    # oracle used to escape as a bare TypeError, AxisError or ZeroDivisionError
    with pytest.raises(InputError, match=rf"^{name}[ =]"):
        call()
