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

The draw and the outcome equation are each written once: ``_draw`` gives
the covariates and then ``eta``, for :func:`generate` and for
:func:`true_att_oracle` alike, and ``_outcome`` draws ``eps`` and builds
``y``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .att import estimate_att, estimate_theta
from .data_model import MIN_ROWS, ObservationSet, split_three_way, whole_number
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

# One histogram bin: its edges and the number of scaled errors in it.
_HISTOGRAM_COLUMNS = ("bin_left", "bin_right", "count")

# The keys of a report's JSON form: its scaled errors, then their summary.
_REPORT_KEYS = ("zetas", "mean", "variance", "skewness", "excess_kurtosis", "ks_stat", "histogram")


@dataclass(frozen=True)
class DgpConfig:
    """Size, seed, and effect-surface kind of one dataset.

    :func:`monte_carlo_att` derives every replicate's streams from ``seed``.
    Construction checks ``seed`` by :mod:`threshmatch.rng`'s rule, so a
    seed that rule rejects raises InputError here, before any replicate.
    """

    n: int
    seed: int
    ite_kind: str = X_AND_ETA

    def __post_init__(self):
        if whole_number(self.n, "n") < MIN_ROWS:
            raise TooFewRows(self.n, MIN_ROWS)
        _check_ite_kind(self.ite_kind)
        derive_seed(self.seed)  # raises InputError unless rng takes it as a seed


def _check_ite_kind(ite_kind: str) -> None:
    """Raise DimensionMismatch unless ``ite_kind`` is "x_only" or "x_and_eta"."""
    if ite_kind not in (X_ONLY, X_AND_ETA):
        raise DimensionMismatch(f"unknown ite_kind {ite_kind!r}")


def _effect_surface(x: np.ndarray, eta, ite_kind: str) -> np.ndarray:
    """``x1^2 + x2*x3``, plus ``eta^2`` for "x_and_eta"; ``x`` starts with x1..x3."""
    alpha = x[:, 0] ** 2 + x[:, 1] * x[:, 2]
    if ite_kind == X_AND_ETA:
        alpha = alpha + eta**2
    return alpha


def true_ite_fn(ite_kind: str):
    """Vectorized truth ``alpha(x, z, q)`` for the built-in generator.

    The confounder is recovered exactly as ``eta = q - z @ (0,0,0,1)``,
    which only works for data from :func:`generate`.  Both kinds read
    ``z`` and ``q``; "x_only" then ignores the recovered ``eta``.  Any
    other kind raises DimensionMismatch here, before a truth is built.
    """
    _check_ite_kind(ite_kind)

    def alpha(x: np.ndarray, z: np.ndarray, q: np.ndarray) -> np.ndarray:
        return _effect_surface(np.atleast_2d(x), np.asarray(q) - np.atleast_2d(z) @ GAMMA_TRUE, ite_kind)

    return alpha


def _draw(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` rows of the covariates ``x1..x4``, then their ``n`` confounders ``eta``."""
    covs = rng.standard_normal((n, 4))
    return covs, rng.uniform(-1.0, 1.0, size=n)


def _outcome(rng: np.random.Generator, covs: np.ndarray, eta: np.ndarray, alpha, treated):
    """``y = alpha * treated + x1 + x3 + eta / 2 + eps``, drawing the noise ``eps`` from ``rng``."""
    eps = rng.normal(0.0, EPS_SD, size=eta.shape[0])
    return alpha * treated + covs[:, 0] + covs[:, 2] + eta / 2.0 + eps


def generate(config: DgpConfig) -> ObservationSet:
    """Draw one i.i.d. dataset; bit-identical for a fixed config."""
    rng = rng_from(config.seed)
    covs, eta = _draw(rng, config.n)
    q = covs[:, 3] + eta
    y = _outcome(rng, covs, eta, _effect_surface(covs, eta, config.ite_kind), q >= 0.0)
    return ObservationSet(y=y, x=covs[:, :3], z=covs, q=q, tau0=0.0)


def true_att_oracle(samples: int, seed: int = 0, ite_kind: str = X_AND_ETA) -> float:
    """Monte-Carlo evaluation of the true ATT, independent of the estimator.

    Draws ``samples`` fresh ``(x, eta)`` pairs, as :func:`generate` draws
    them, in chunks of up to a million, and averages the effect surface
    over the treated region ``x4 + eta >= 0``.  ``samples`` is an
    integer.  When no draw is treated, as when ``samples < 1``, there is
    no average, and DimensionMismatch names ``samples``.  An ``ite_kind``
    other than "x_only" or "x_and_eta" raises DimensionMismatch before
    any draw.
    """
    _check_ite_kind(ite_kind)
    rng = rng_from(seed)
    total, count = 0.0, 0
    remaining = whole_number(samples, "samples")
    while remaining > 0:
        m = min(remaining, 1_000_000)
        covs, eta = _draw(rng, m)
        treated = covs[:, 3] + eta >= 0.0
        alpha = _effect_surface(covs, eta, ite_kind)
        total += float(alpha[treated].sum())
        count += int(treated.sum())
        remaining -= m
    if count == 0:
        raise DimensionMismatch(f"samples={samples} gave no treated draw to average over")
    return total / count


@dataclass(frozen=True, eq=False)
class McReport:
    """The scaled errors of a Monte-Carlo run, and the summary derived from them.

    ``zetas`` is the one field.  ``mean``, ``variance`` (``ddof=1``),
    ``skewness``, ``excess_kurtosis``, ``ks_stat`` (the KS distance to
    ``N(0, TARGET_ZETA_VARIANCE)``) and ``histogram`` (Freedman-Diaconis
    bins, each ``(left, right, count)``) are read-only properties computed
    from ``zetas`` on each access, so a report cannot disagree with its
    own errors.  Only these properties import SciPy.
    """

    zetas: np.ndarray

    @property
    def mean(self) -> float:
        return float(np.mean(self.zetas))

    @property
    def variance(self) -> float:
        return float(np.var(self.zetas, ddof=1))

    @property
    def skewness(self) -> float:
        from scipy import stats  # deferred: estimation never needs it

        return float(stats.skew(self.zetas))

    @property
    def excess_kurtosis(self) -> float:
        from scipy import stats

        return float(stats.kurtosis(self.zetas))

    @property
    def ks_stat(self) -> float:
        from scipy import stats

        target = stats.norm(loc=0.0, scale=np.sqrt(TARGET_ZETA_VARIANCE))
        return float(stats.kstest(self.zetas, target.cdf).statistic)

    @property
    def histogram(self) -> list[tuple[float, float, int]]:
        counts, edges = np.histogram(self.zetas, bins="fd")
        return [(float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(len(counts))]

    def to_json_dict(self) -> dict:
        """Each of :data:`_REPORT_KEYS` by name: ``zetas`` as a list, each histogram bin as a dict."""
        out = {key: getattr(self, key) for key in _REPORT_KEYS}
        out["zetas"] = self.zetas.tolist()
        out["histogram"] = [dict(zip(_HISTOGRAM_COLUMNS, bin_)) for bin_ in out["histogram"]]
        return out

    def write_histogram_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(_HISTOGRAM_COLUMNS) + "\n")
            for left, right, count in self.histogram:
                fh.write(f"{left!r},{right!r},{count}\n")


def monte_carlo_att(config: DgpConfig, reps: int, crossfit: bool = False) -> McReport:
    """Repeatedly generate and estimate, reporting the scaled errors.

    Replicate ``k`` draws its dataset from stream ``(config.seed, k, 0)``
    and its split from ``(config.seed, k, 1)``.  The scaled error is
    ``sqrt(n/3) * (theta_hat - theta0)`` for single runs and
    ``sqrt(n) * (theta_cf - theta0)`` for cross-fitted ones.  The
    replicates run in contiguous ranges on up to one process per CPU
    (:func:`threshmatch.parallel.map_ranges`); the first failing replicate
    in order raises, its error labelled ``replicate k``.
    """
    if whole_number(reps, "reps") < 30:
        raise DimensionMismatch("need at least 30 replicates for stable moments")
    theta0 = TRUE_ATT[config.ite_kind]
    scale = np.sqrt(config.n if crossfit else config.n // 3)

    def theta(k: int) -> float:
        with labelled(f"replicate {k}"):
            obs = generate(replace(config, seed=derive_seed(config.seed, k, 0)))
            return estimate_theta(obs, derive_seed(config.seed, k, 1), crossfit)

    return McReport(scale * (np.array(map_ranges(theta, reps)) - theta0))


def monte_carlo_ite(config: DgpConfig, spec: SplineBasisSpec, seeds: list[int]) -> list[float]:
    """Per-seed MSE of the fitted effect surface against the known truth.

    Each seed ``s`` runs the single-split pipeline, fits the surface on
    the matching split's treated rows, and scores it against the
    generator's true surface on those same rows.  The dataset comes from
    stream ``(s, 0)``, the split from ``(s, 1)`` and the CV folds from
    ``(s, 2)``; ``config.seed`` is not used.  An empty ``seeds`` list
    raises :class:`DimensionMismatch`: there is no MSE to report.  The
    seeds run as :func:`monte_carlo_att`'s replicates do, and one seed runs
    in the calling process, its fit's CV grid on every CPU.  The first
    failing replicate in order raises, its error labelled ``replicate k``,
    ``k`` its index into ``seeds``.
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
