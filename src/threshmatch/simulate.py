"""Synthetic data generator and Monte-Carlo validation harness.

The built-in generator draws four standard-normal covariates, a uniform
confounder ``eta`` on (-1, 1), and Gaussian outcome noise with variance
one half, then sets::

    q = x4 + eta                       (threshold tau0 = 0)
    y = alpha(x, eta) * 1{q >= 0} + x1 + x3 + eta / 2 + eps

with the true effect surface either ``alpha = x1^2 + x2*x3`` ("x_only")
or ``alpha = x1^2 + x2*x3 + eta^2`` ("x_and_eta").  The score-side
covariates are ``z = (x1..x4)`` and the outcome-side ones ``x = (x1..x3)``,
so the true score coefficients are ``(0, 0, 0, 1)`` and the true outcome
coefficients ``(1, 0, 1)``.

The sign-flip symmetry ``(x4, eta) -> (-x4, -eta)`` keeps ``eta^2``
invariant while exchanging the treated and control halves, so the treated
fraction is exactly one half and the true ATT is ``E[x1^2] + E[x2*x3] +
E[eta^2]`` = ``1 + 0 + 1/3`` for "x_and_eta" (and ``1`` for "x_only").
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .att import estimate_att, estimate_theta
from .data_model import MIN_ROWS, ObservationSet, split_three_way
from .errors import DimensionMismatch, TooFewRows, labelled
from .ite import SplineBasisSpec, fit_ite, ite_mse
from .parallel import map_ranges
from .rng import derive_seed, rng_from

X_ONLY = "x_only"
X_AND_ETA = "x_and_eta"

GAMMA_TRUE = np.array([0.0, 0.0, 0.0, 1.0])
BETA_TRUE = np.array([1.0, 0.0, 1.0])
TRUE_ATT = {X_AND_ETA: 4.0 / 3.0, X_ONLY: 1.0}

# Outcome noise sd, sqrt(1/2).  Fixed rather than configurable because
# TARGET_ZETA_VARIANCE below holds only at this value.
EPS_SD = float(np.sqrt(0.5))

# Reference variance of the scaled estimation error under this generator;
# Monte-Carlo reports measure their KS distance against N(0, this).
TARGET_ZETA_VARIANCE = 11.455


@dataclass(frozen=True)
class DgpConfig:
    """Size, seed, and effect-surface kind of one dataset."""

    n: int
    seed: int
    ite_kind: str = X_AND_ETA

    def __post_init__(self):
        if self.n < MIN_ROWS:
            raise TooFewRows(self.n, MIN_ROWS)
        if self.ite_kind not in (X_ONLY, X_AND_ETA):
            raise DimensionMismatch(f"unknown ite_kind {self.ite_kind!r}")


def _effect_surface(x: np.ndarray, eta, ite_kind: str) -> np.ndarray:
    """``x1^2 + x2*x3``, plus ``eta^2`` for "x_and_eta"; ``x`` starts with x1..x3."""
    alpha = x[:, 0] ** 2 + x[:, 1] * x[:, 2]
    if ite_kind == X_AND_ETA:
        alpha = alpha + eta**2
    return alpha


def true_ite_fn(ite_kind: str):
    """Vectorized truth ``alpha(x, z, q)`` for the built-in generator.

    The confounder is recovered exactly as ``eta = q - z @ (0,0,0,1)``,
    which only works for data from :func:`generate`.
    """

    def alpha(x: np.ndarray, z: np.ndarray, q: np.ndarray) -> np.ndarray:
        eta = None
        if ite_kind == X_AND_ETA:
            eta = np.asarray(q) - np.atleast_2d(z) @ GAMMA_TRUE
        return _effect_surface(np.atleast_2d(x), eta, ite_kind)

    return alpha


def generate(config: DgpConfig) -> ObservationSet:
    """Draw one i.i.d. dataset; bit-identical for a fixed config."""
    rng = rng_from(config.seed)
    covs = rng.standard_normal((config.n, 4))
    eta = rng.uniform(-1.0, 1.0, size=config.n)
    eps = rng.normal(0.0, EPS_SD, size=config.n)
    q = covs[:, 3] + eta
    alpha = _effect_surface(covs, eta, config.ite_kind)
    y = alpha * (q >= 0.0) + covs[:, 0] + covs[:, 2] + eta / 2.0 + eps
    return ObservationSet(y=y, x=covs[:, :3], z=covs, q=q, tau0=0.0)


def true_att_oracle(samples: int, seed: int = 0, ite_kind: str = X_AND_ETA) -> float:
    """Monte-Carlo evaluation of the true ATT, independent of the estimator.

    Draws fresh ``(x, eta)`` pairs and averages the effect surface over the
    treated region ``x4 + eta >= 0``.
    """
    rng = rng_from(seed)
    total = 0.0
    count = 0
    remaining = int(samples)
    while remaining > 0:
        m = min(remaining, 1_000_000)
        covs = rng.standard_normal((m, 4))
        eta = rng.uniform(-1.0, 1.0, size=m)
        treated = covs[:, 3] + eta >= 0.0
        alpha = _effect_surface(covs, eta, ite_kind)
        total += float(alpha[treated].sum())
        count += int(treated.sum())
        remaining -= m
    return total / count


@dataclass(frozen=True)
class McReport:
    """Moments, normality diagnostics, and histogram of the scaled errors."""

    zetas: np.ndarray
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    ks_stat: float
    histogram: list[tuple[float, float, int]]

    def to_json_dict(self) -> dict:
        return {
            "zetas": [float(z) for z in self.zetas],
            "mean": self.mean,
            "variance": self.variance,
            "skewness": self.skewness,
            "excess_kurtosis": self.excess_kurtosis,
            "ks_stat": self.ks_stat,
            "histogram": [
                {"bin_left": left, "bin_right": right, "count": count}
                for left, right, count in self.histogram
            ],
        }

    def write_histogram_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("bin_left,bin_right,count\n")
            for left, right, count in self.histogram:
                fh.write(f"{left!r},{right!r},{count}\n")


def _report_from_zetas(zetas: np.ndarray) -> McReport:
    from scipy import stats  # deferred: estimation never needs it

    counts, edges = np.histogram(zetas, bins="fd")
    histogram = [
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(len(counts))
    ]
    ks = stats.kstest(zetas, stats.norm(loc=0.0, scale=np.sqrt(TARGET_ZETA_VARIANCE)).cdf)
    return McReport(
        zetas=zetas,
        mean=float(np.mean(zetas)),
        variance=float(np.var(zetas, ddof=1)),
        skewness=float(stats.skew(zetas)),
        excess_kurtosis=float(stats.kurtosis(zetas)),
        ks_stat=float(ks.statistic),
        histogram=histogram,
    )


def monte_carlo_att(
    config: DgpConfig, reps: int, crossfit: bool = False, master_seed: int = 0
) -> McReport:
    """Repeatedly generate and estimate, reporting the scaled errors.

    Replicate ``k`` draws its dataset from stream ``(master_seed, k, 0)``
    and its split from ``(master_seed, k, 1)``; ``config.seed`` is not
    used.  The scaled error is
    ``sqrt(n/3) * (theta_hat - theta0)`` for single runs and
    ``sqrt(n) * (theta_cf - theta0)`` for cross-fitted ones.  The
    replicates run in contiguous ranges on up to one process per CPU
    (:func:`threshmatch.parallel.map_ranges`); the first failing replicate
    in order raises, its error labelled ``replicate k``.
    """
    if reps < 30:
        raise DimensionMismatch("need at least 30 replicates for stable moments")
    theta0 = TRUE_ATT[config.ite_kind]
    scale = np.sqrt(config.n if crossfit else config.n // 3)

    def theta(k: int) -> float:
        with labelled(f"replicate {k}"):
            obs = generate(replace(config, seed=derive_seed(master_seed, k, 0)))
            return estimate_theta(obs, derive_seed(master_seed, k, 1), crossfit)

    zetas = scale * (np.array(map_ranges(theta, reps)) - theta0)
    return _report_from_zetas(zetas)


def monte_carlo_ite(config: DgpConfig, spec: SplineBasisSpec, seeds: list[int]) -> list[float]:
    """Per-seed MSE of the fitted effect surface against the known truth.

    Each seed ``s`` runs the single-split pipeline, fits the surface on
    the matching split's treated rows, and scores it against the
    generator's true surface on those same rows.  The dataset comes from
    stream ``(s, 0)``, the split from ``(s, 1)`` and the CV folds from
    ``(s, 2)``; ``config.seed`` is not used.  An empty ``seeds`` list
    raises :class:`DimensionMismatch`: there is no MSE to report.  The
    seeds run as :func:`monte_carlo_att`'s replicates do, and one seed runs
    in the calling process.  The first failing replicate in order raises,
    its error labelled ``replicate k``, ``k`` its index into ``seeds``.
    """
    if not seeds:
        raise DimensionMismatch("need at least one seed (one Monte-Carlo replicate)")
    truth = true_ite_fn(config.ite_kind)

    def mse(k: int) -> float:
        s = seeds[k]
        with labelled(f"replicate {k}"):
            obs = generate(replace(config, seed=derive_seed(s, 0)))
            est = estimate_att(obs, split_three_way(obs.n, seed=derive_seed(s, 1)))
            model = fit_ite(obs, est, spec, cv_seed=derive_seed(s, 2))
            return ite_mse(model, obs, est, truth)

    return map_ranges(mse, len(seeds))
