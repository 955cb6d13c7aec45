"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in this
file's output capture on failure).  Frozen master seeds make every run
deterministic; the statistical bands were sized for the scaled-down
replicate counts and verified on pilot runs.
"""

import re
import time
from pathlib import Path

import numpy as np
from scipy import stats

from threshmatch import (
    DgpConfig,
    SplineBasisSpec,
    bootstrap_att,
    bootstrap_replicate,
    estimate_att,
    estimate_att_crossfit,
    generate,
    match_controls,
    monte_carlo_att,
    monte_carlo_ite,
    split_three_way,
    true_att_oracle,
)
from threshmatch.cli import main
from threshmatch.rng import derive_seed
from threshmatch.simulate import BETA_TRUE, X_AND_ETA, X_ONLY

from conftest import FIXTURES, make_null_obs, match_controls_brute

README = Path(__file__).parent.parent / "README.md"
NULL_CSV = str(FIXTURES / "null_fixture.csv")


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_truth_oracle():
    started = time.perf_counter()
    value = true_att_oracle(1_000_000, seed=2024)
    elapsed = time.perf_counter() - started
    ok = abs(value - 1.3333) <= 0.01 and abs(value - 4.0 / 3.0) <= 0.01 and elapsed < 5.0
    _report(1, ok, f"oracle={value:.4f} (target 1.3333 +/- 0.01), {elapsed:.2f}s < 5s")


def test_criterion_2_simulation_crossfit():
    started = time.perf_counter()
    report = monte_carlo_att(
        DgpConfig(n=12_000, seed=7), reps=300, crossfit=True
    )
    elapsed = time.perf_counter() - started
    ok = (
        -0.5 <= report.mean <= 0.5
        and 9.0 <= report.variance <= 14.5
        and elapsed < 600.0
    )
    _report(
        2,
        ok,
        f"crossfit mean={report.mean:+.3f} in [-0.5,0.5], "
        f"var={report.variance:.2f} in [9.0,14.5], {elapsed:.0f}s < 600s",
    )


def test_criterion_3_simulation_single_run():
    report = monte_carlo_att(
        DgpConfig(n=12_000, seed=7), reps=300, crossfit=False
    )
    n_tilde = 12_000 // 3
    mean_theta = 4.0 / 3.0 + report.mean / np.sqrt(n_tilde)
    ok = (
        9.0 <= report.variance <= 15.5
        and -0.5 <= report.mean <= 0.5
        and abs(mean_theta - 1.333) <= 0.35
    )
    _report(
        3,
        ok,
        f"single-run var={report.variance:.2f} in [9.0,15.5], "
        f"mean zeta={report.mean:+.3f} in [-0.5,0.5], mean theta={mean_theta:.4f}",
    )


def test_criterion_4_bootstrap_variance():
    started = time.perf_counter()
    inside = 0
    values = []
    for d in range(20):
        obs = generate(DgpConfig(n=5_000, seed=derive_seed(99, d, 0)))
        res = bootstrap_att(obs, b=200, level=0.95, seed=derive_seed(99, d, 1))
        values.append(res.sigma2_hat)
        if 9.0 < res.sigma2_hat < 14.5:
            inside += 1
    elapsed = time.perf_counter() - started
    ok = inside >= 16 and elapsed < 900.0
    _report(
        4,
        ok,
        f"sigma2 in (9.0,14.5) for {inside}/20 datasets (need >=16), "
        f"mean={np.mean(values):.2f}, {elapsed:.0f}s < 900s",
    )


def test_criterion_5_ite_mse():
    seeds = [derive_seed(55, k) for k in range(20)]
    spec_x = SplineBasisSpec(include_eta=False)
    spec_xe = SplineBasisSpec(include_eta=True)

    med = {}
    for n in (5_000, 10_000, 20_000):
        mses = monte_carlo_ite(DgpConfig(n=n, seed=0, ite_kind=X_ONLY), spec_x, seeds)
        med[("I", n)] = float(np.median(mses))
    for n in (5_000, 20_000):
        mses = monte_carlo_ite(DgpConfig(n=n, seed=0, ite_kind=X_AND_ETA), spec_xe, seeds)
        med[("II", n)] = float(np.median(mses))

    ok = (
        med[("I", 10_000)] <= 0.15
        and med[("II", 20_000)] <= 0.2
        and med[("I", 20_000)] < med[("I", 5_000)]
        and med[("II", 20_000)] < med[("II", 5_000)]
    )
    _report(
        5,
        ok,
        f"case I median MSE @10k={med[('I', 10_000)]:.4f} (<=0.15), "
        f"case II @20k={med[('II', 20_000)]:.4f} (<=0.2), "
        f"decreasing I {med[('I', 5_000)]:.4f}->{med[('I', 20_000)]:.4f}, "
        f"II {med[('II', 5_000)]:.4f}->{med[('II', 20_000)]:.4f}",
    )


def test_criterion_6_beta_consistency():
    betas = []
    for k in range(100):
        obs = generate(DgpConfig(n=12_000, seed=derive_seed(77, k, 0)))
        splits = split_three_way(obs.n, seed=derive_seed(77, k, 1))
        est = estimate_att(obs, splits)
        betas.append(est.beta_hat)
    betas = np.array(betas)
    hits = int((np.abs(betas - BETA_TRUE).max(axis=1) <= 0.1).sum())
    skews = stats.skew(betas, axis=0)
    ok = hits >= 95 and np.abs(skews).max() <= 0.5
    _report(
        6,
        ok,
        f"|beta - (1,0,1)|_inf <= 0.1 in {hits}/100 seeds (need >=95), "
        f"max |skew|={np.abs(skews).max():.3f} <= 0.5",
    )


def test_criterion_7_exact_null():
    rng = np.random.default_rng(2468)
    worst_single = worst_cf = 0.0
    for _ in range(50):
        seed = int(rng.integers(0, 2**31))
        obs = make_null_obs(seed=seed, n=150)
        splits = split_three_way(obs.n, seed=seed)
        worst_single = max(worst_single, abs(estimate_att(obs, splits).theta_hat))
        worst_cf = max(worst_cf, abs(estimate_att_crossfit(obs, seed=seed).theta_cf))
    ok = worst_single <= 1e-8 and worst_cf <= 1e-8
    _report(
        7,
        ok,
        f"max |theta|={worst_single:.2e}, max |theta_cf|={worst_cf:.2e} (both <= 1e-8) "
        f"over 50 null seeds",
    )


def test_criterion_8_matching_oracle():
    rng = np.random.default_rng(1357)
    mismatches = 0
    for trial in range(1000):
        n1 = int(rng.integers(1, 51))
        n0 = int(rng.integers(1, 51))
        if trial % 3 == 0:  # coarse grid to force ties
            t_vals = rng.integers(-4, 5, size=n1) / 4.0
            c_vals = rng.integers(-4, 5, size=n0) / 4.0
        else:
            t_vals = rng.standard_normal(n1)
            c_vals = rng.standard_normal(n0)
        idx = rng.permutation(n1 + n0)
        fast = match_controls(t_vals, idx[:n1], c_vals, idx[n1:])
        slow = match_controls_brute(t_vals, idx[:n1], c_vals, idx[n1:])
        same = np.array_equal(fast.treated_idx, slow.treated_idx) and np.array_equal(
            fast.control_idx, slow.control_idx
        )
        same = same and all(
            np.array_equal(a, b) for a, b in zip(fast.reuse_counts(), slow.reuse_counts())
        )
        if not same:
            mismatches += 1
    _report(8, mismatches == 0, f"{1000 - mismatches}/1000 instances identical to brute force")


def _strip_duration(text: str) -> str:
    return re.sub(r'"duration_s": [0-9eE.+-]+', '"duration_s": 0', text)


def test_criterion_9_cli_determinism(tmp_path, capsys):
    est_flags = ["--data", NULL_CSV, "--y", "y", "--q", "q",
                 "--x", "x1,x2,x3", "--z", "x1,x2,x3,x4", "--tau", "0.0", "--seed", "21"]
    gen_path = tmp_path / "gen.csv"
    runs = {
        "estimate": ["estimate", *est_flags, "--crossfit"],
        "bootstrap": ["bootstrap", *est_flags, "--b", "8"],
        "ite": ["ite", *est_flags, "--model-out", str(tmp_path / "m.txt")],
        "simulate": ["simulate", "--mode", "gen", "--n", "50", "--seed", "21",
                      "--out", str(gen_path)],
        "simulate-mc": ["simulate", "--mode", "mc-att", "--n", "600", "--reps", "30",
                         "--seed", "21"],
    }
    identical = {}
    for name, argv in runs.items():
        outputs = []
        for _ in range(2):
            code = main(argv)
            assert code == 0, f"{name} exited {code}"
            outputs.append(_strip_duration(capsys.readouterr().out))
        identical[name] = outputs[0] == outputs[1]

    obs = generate(DgpConfig(n=900, seed=33))
    batch = bootstrap_att(obs, b=20, seed=33)
    isolated_ok = all(
        bootstrap_replicate(obs, r, seed=33) == batch.replicates[r] for r in range(20)
    )

    ok = all(identical.values()) and isolated_ok
    _report(
        9,
        ok,
        f"byte-identical reruns: {identical}; "
        f"isolated bootstrap replicates match batch: {isolated_ok}",
    )


def test_criterion_10_real_data_workflow_documented():
    # the two published-study reproductions are not automated (their data
    # sets are not bundled); the CSV-driven CLI path they need is exercised
    # by criterion 9 and must be documented with concrete column recipes
    text = README.read_text(encoding="utf-8")
    ok = "--add-intercept-z" in text and "Real-data workflow" in text
    _report(10, ok, "README documents the real-data CLI recipe (datasets not bundled)")
