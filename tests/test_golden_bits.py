"""Fixed-seed outputs, pinned bit for bit as ``float.hex`` strings.

README promises that fixed-seed outputs stay bit-identical across
refactors.  ``tests/fixtures/golden_bits.json`` holds, per case:

- ``estimate``: one run's ``theta_hat``, ``beta_hat`` and ``gamma_hat``,
  then digests of its score residuals, NaN on its score split, and of its
  matched differences;
- ``crossfit``: ``theta_cf`` and the three rotations' ``theta_hat``;
- ``bootstrap``: the 20 replicates of ``bootstrap_att``, its
  ``sigma2_hat``, ``ci_low`` and ``ci_high``;
- ``ite``: ``training_mse`` of ``fit_ite`` on the single run.

Three cases pin the synthetic design itself: ``monte_carlo_att``'s report
(a digest of its scaled errors, then its moments, ``ks_stat`` and every
histogram bin), single and cross-fit; ``true_att_oracle`` over two draw
chunks, for both effect surfaces; and digests of
``conftest.generate_discrete``'s ``y``, ``x``, ``z`` and ``q``.

The cases cover every ``n mod 4``, covariate widths 1-7 in C-ordered,
F-ordered, row-strided and row-reversed layouts (each layout must give
the C-ordered bits), the generator's own column views, ``with_z_intercept``,
``conftest.tie_heavy_obs``, a design with 8 outcome and 9 score columns,
and matching splits that hold a single treated row.

The values were recorded with numpy 2.4.6 on OpenBLAS 0.3.31, whose
dynamic kernel choice took its SkylakeX kernels on the recording host
(x86-64, 2 CPUs); another BLAS or kernel may sum in another order.  Rerecord with
``PYTHONPATH=src python tests/test_golden_bits.py`` only for a change that
is meant to move bits, and list every old and new value it moves.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # conftest, when run as a script

from threshmatch import (  # noqa: E402
    DgpConfig,
    ObservationSet,
    SplineBasisSpec,
    SplitAssignment,
    bootstrap_att,
    estimate_att,
    estimate_att_crossfit,
    fit_ite,
    generate,
    monte_carlo_att,
    residuals_eta,
    split_three_way,
    true_att_oracle,
)
from threshmatch.simulate import X_AND_ETA, X_ONLY  # noqa: E402

from conftest import FIXTURES, LAYOUTS, generate_discrete, synthetic, tie_heavy_obs  # noqa: E402

GOLDEN_PATH = FIXTURES / "golden_bits.json"
WIDTHS = range(1, 8)
SPLIT_SEED, BOOT_SEED = 5, 7
NARROW_GRID = SplineBasisSpec(df_grid=(3, 4), include_eta=True)
DEFAULT_GRID = SplineBasisSpec(include_eta=True)
X_ONLY_GRID = SplineBasisSpec()  # a discrete eta_hat has too few distinct values for knots


def single_treated_splits(obs: ObservationSet) -> SplitAssignment:
    """Natural thirds, except that the matching split keeps one treated row.

    The last third's other treated rows move to the difference split,
    whose fit discards treated rows.
    """
    k = obs.n // 3
    last = np.arange(2 * k, obs.n)
    treated = last[obs.q[last] >= obs.tau0]
    controls = last[obs.q[last] < obs.tau0]
    return SplitAssignment(
        np.arange(k), np.r_[np.arange(k, 2 * k), treated[1:]], np.r_[controls, treated[:1]]
    )


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()[:16]


def record_estimate(obs: ObservationSet, splits: SplitAssignment) -> list[str]:
    est = estimate_att(obs, splits)
    assert est.theta_hat == float(np.mean(est.differences))
    eta = residuals_eta(est.gamma_hat, obs)
    eta[est.roles[0]] = np.nan  # the rows whose residuals the run does not read
    return [
        *_hex([est.theta_hat, *est.beta_hat, *est.gamma_hat]),
        _digest(eta),
        _digest(est.differences),
    ]


def record(obs: ObservationSet, spec: SplineBasisSpec) -> dict[str, list[str]]:
    splits = split_three_way(obs.n, seed=SPLIT_SEED)
    cf = estimate_att_crossfit(obs, seed=SPLIT_SEED)
    boot = bootstrap_att(obs, b=20, seed=BOOT_SEED)
    ite = fit_ite(obs, estimate_att(obs, splits), spec)
    return {
        "estimate": record_estimate(obs, splits),
        "crossfit": _hex([cf.theta_cf, *(r.theta_hat for r in cf.rotations)]),
        "bootstrap": _hex([*boot.replicates, boot.sigma2_hat, boot.ci_low, boot.ci_high]),
        "ite": _hex([ite.training_mse]),
    }


def width_obs(width: int, layout: str = "C") -> ObservationSet:
    # n = 600 + width runs through every n mod 4
    return synthetic(600 + width, width, width, seed=10 + width, layout=layout)


def wide_obs(layout: str = "C") -> ObservationSet:
    return synthetic(1203, 8, 9, seed=31, layout=layout)


# name -> (sample, spline spec); every n mod 4 appears among the n's
DESIGNS = {
    "generator-1202": (lambda: generate(DgpConfig(n=1202, seed=3)), DEFAULT_GRID),
    # n * d_z past OpenBLAS's threading threshold for the full-length products
    "generator-4003": (lambda: generate(DgpConfig(n=4003, seed=4)), DEFAULT_GRID),
    "intercept-1201": (lambda: generate(DgpConfig(n=1201, seed=5)).with_z_intercept(), DEFAULT_GRID),
    "tie-heavy-1200": (lambda: tie_heavy_obs(DgpConfig(n=1200, seed=6)), X_ONLY_GRID),
    "wide-8x9-1203": (wide_obs, NARROW_GRID),
}

# name -> sample whose matching split keeps a single treated row
SINGLE_TREATED = {
    "single-treated-w3": lambda: width_obs(3),
    "single-treated-8x9": wide_obs,
}


def record_mc_att(crossfit: bool) -> list[str]:
    report = monte_carlo_att(DgpConfig(n=600, seed=8), reps=30, crossfit=crossfit)
    summary = [report.mean, report.variance, report.skewness, report.excess_kurtosis, report.ks_stat]
    return [_digest(report.zetas), *_hex(summary), *_hex(v for bin_ in report.histogram for v in bin_)]


def record_oracle() -> dict[str, list[str]]:
    # past the oracle's 1M-draw chunk, so the second chunk's draws count too
    return {kind: _hex([true_att_oracle(1_200_000, seed=9, ite_kind=kind)]) for kind in (X_AND_ETA, X_ONLY)}


def record_discrete() -> list[str]:
    obs = generate_discrete(DgpConfig(n=1201, seed=10))
    return [_digest(a) for a in (obs.y, obs.x, obs.z, obs.q)]


# name -> recorder of a case that pins the synthetic design
SYNTHETIC = {
    "mc-att-600": lambda: {"single": record_mc_att(False), "crossfit": record_mc_att(True)},
    "oracle-1200000": record_oracle,
    "discrete-1201": lambda: {"arrays": record_discrete()},
}


def all_records() -> dict[str, dict[str, list[str]]]:
    out = {f"width-{w}": record(width_obs(w), NARROW_GRID) for w in WIDTHS}
    out.update({name: record(make(), spec) for name, (make, spec) in DESIGNS.items()})
    for name, make in SINGLE_TREATED.items():
        obs = make()
        out[name] = {"estimate": record_estimate(obs, single_treated_splits(obs))}
    out.update({name: make() for name, make in SYNTHETIC.items()})
    return out


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, list[str]]]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("width", WIDTHS)
def test_widths_in_every_layout(golden, width, layout):
    assert record(width_obs(width, layout), NARROW_GRID) == golden[f"width-{width}"]


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_designs(golden, name):
    make, spec = DESIGNS[name]
    assert record(make(), spec) == golden[name]


@pytest.mark.parametrize("layout", [lay for lay in LAYOUTS if lay != "C"])
def test_wide_design_in_other_layouts(golden, layout):
    assert record(wide_obs(layout), NARROW_GRID) == golden["wide-8x9-1203"]


@pytest.mark.parametrize("name", sorted(SINGLE_TREATED))
def test_single_treated_row(golden, name):
    obs = SINGLE_TREATED[name]()
    splits = single_treated_splits(obs)
    assert np.count_nonzero(obs.q[splits.i3] >= obs.tau0) == 1
    assert record_estimate(obs, splits) == golden[name]["estimate"]


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_synthetic_design(golden, name):
    assert SYNTHETIC[name]() == golden[name]


def test_every_pinned_case_is_checked(golden):
    names = {f"width-{w}" for w in WIDTHS} | set(DESIGNS) | set(SINGLE_TREATED) | set(SYNTHETIC)
    assert set(golden) == names


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(all_records(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
