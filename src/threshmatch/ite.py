"""Individual treatment effect surface via spline-basis regression.

After the pipeline's matching step, the matched adjusted-outcome gap of a
treated observation is (up to noise) its individual treatment effect.
Regressing those gaps on the treated rows' covariates -- and, when the
effect is allowed to depend on the unobserved confounder, on ``eta_hat``
as well -- recovers the effect surface nonparametrically.

The regression design is additive cubic B-spline blocks per covariate
(interior knots at equally spaced quantiles of the training values), an
explicit constant column, and the pairwise products of distinct raw
covariates, which are always included.  The per-covariate degrees of
freedom are chosen by 4-fold cross-validation over a small grid.
Evaluation outside the training range clamps to the boundary knots, so
predictions stay bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .att import AttEstimate, matched_differences
from .data_model import ObservationSet
from .errors import (
    ArityMismatch,
    DegenerateCovariate,
    DimensionMismatch,
    NonFiniteValue,
    TooFewRows,
)
from .linreg import ols
from .rng import rng_from

DEFAULT_DF_GRID = (3, 4, 5, 6, 8, 10)
CV_FOLDS = 4
DEGREE = 3  # cubic splines; model files record it and the loader accepts only this


@dataclass(frozen=True)
class SplineBasisSpec:
    """Configuration of the spline regression design.

    ``df`` is the per-covariate degrees of freedom actually used to build
    a basis; it is None until cross-validation picks one from ``df_grid``.
    """

    df_grid: tuple[int, ...] = DEFAULT_DF_GRID
    include_eta: bool = False
    df: int | None = None

    def __post_init__(self):
        grid = tuple(int(v) for v in self.df_grid)
        if not grid:
            raise DimensionMismatch("df_grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DimensionMismatch("df_grid must be strictly increasing")
        if grid[0] < DEGREE:
            raise DimensionMismatch(f"every df must be >= degree ({DEGREE})")
        if self.df is not None and self.df < DEGREE:
            raise DimensionMismatch(f"df must be >= degree ({DEGREE})")
        object.__setattr__(self, "df_grid", grid)

    def dimension(self, n_covariates: int, df: int | None = None) -> int:
        """Number of design columns for ``n_covariates`` raw covariates."""
        df = self.df if df is None else df
        return 1 + n_covariates * df + n_covariates * (n_covariates - 1) // 2


@dataclass(frozen=True)
class IteModel:
    """Fitted effect-surface model: knots, chosen spec, and coefficients."""

    basis: SplineBasisSpec
    knots: list[np.ndarray]
    coef: np.ndarray
    training_mse: float


def quantile_knots(values: np.ndarray, df: int, col: int = 0) -> np.ndarray:
    """Augmented knot vector with interior knots at equally spaced quantiles.

    ``df - DEGREE`` interior knots sit at quantiles ``j / (df - DEGREE + 1)``
    of the training values; the boundary knots (repeated ``DEGREE + 1``
    times) sit at the training min and max.
    """
    values = np.asarray(values, dtype=np.float64)
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        raise DegenerateCovariate(col)
    n_interior = df - DEGREE
    if n_interior > 0:
        qs = np.arange(1, n_interior + 1) / (n_interior + 1)
        interior = np.quantile(values, qs)
    else:
        interior = np.empty(0)
    return np.concatenate([[lo] * (DEGREE + 1), interior, [hi] * (DEGREE + 1)])


def bspline_block(values: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """All cubic B-spline basis functions over ``knots``, evaluated with clamping.

    Rows sum to one inside the knot range (partition of unity); values
    outside the boundary knots are clamped onto it first.
    """
    from scipy.interpolate import BSpline  # deferred: estimation never needs it

    values = np.clip(np.asarray(values, dtype=np.float64), knots[0], knots[-1])
    return BSpline.design_matrix(values, knots, DEGREE).toarray()


def build_basis(
    covariates: np.ndarray,
    spec: SplineBasisSpec,
    knots: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Assemble the regression design for an ``m x d`` covariate matrix.

    Layout: constant column, then one spline block per covariate (the
    block's first basis function is dropped, since the constant column
    already carries the level), then pairwise products of distinct raw
    covariates.  When ``knots`` is None they are computed from the
    covariates themselves (training mode), which requires at least as many
    rows as design columns; with given knots at least one row is needed.
    """
    covariates = np.atleast_2d(np.asarray(covariates, dtype=np.float64))
    m, d = covariates.shape
    if spec.df is None:
        raise DimensionMismatch("spec.df is unset; pick a df before building a basis")
    training = knots is None
    if training:
        if m < spec.dimension(d):
            raise TooFewRows(m, spec.dimension(d))
        knots = [quantile_knots(covariates[:, j], spec.df, col=j) for j in range(d)]
    elif m == 0:
        raise TooFewRows(0, 1)
    if len(knots) != d:
        raise ArityMismatch(f"model has {len(knots)} covariates, got {d}")

    blocks = [np.ones((m, 1))]
    for j in range(d):
        full = bspline_block(covariates[:, j], knots[j])
        blocks.append(full[:, 1:])
    for a, b in combinations(range(d), 2):
        blocks.append((covariates[:, a] * covariates[:, b])[:, None])
    return np.hstack(blocks), knots


def _treated_covariates(
    obs: ObservationSet, est: AttEstimate, include_eta: bool
) -> tuple[np.ndarray, np.ndarray]:
    treated = est.matches.treated_idx
    cov = obs.x[treated]
    if include_eta:
        cov = np.hstack([cov, est.eta_hat[treated][:, None]])
    return treated, cov


def fit_ite(
    obs: ObservationSet, est: AttEstimate, spec: SplineBasisSpec, cv_seed: int = 0
) -> IteModel:
    """Fit the effect surface on the treated rows of one pipeline run.

    The rows are ``est.matches.treated_idx``, the treated rows of the run's
    matching split, so the estimate of any cross-fit rotation works as well
    as a single run's.  The response is the matched adjusted-outcome gap
    per treated row; the covariates are that row's ``x`` (plus its
    ``est.eta_hat`` when the spec includes it).  ``df`` is chosen by 4-fold
    cross-validation minimizing mean validation MSE, ties to the smaller
    df; the returned model is refit on all treated rows at the chosen df.
    """
    _, cov = _treated_covariates(obs, est, spec.include_eta)
    response = matched_differences(obs, est.beta_hat, est.matches)
    m, d = cov.shape
    max_dim = spec.dimension(d, df=spec.df_grid[-1])
    if m < max_dim:
        raise TooFewRows(m, max_dim)

    perm = rng_from(cv_seed).permutation(m)
    folds = np.array_split(perm, CV_FOLDS)
    if m - max(len(f) for f in folds) < max_dim:
        raise TooFewRows(m, max_dim + max(len(f) for f in folds))

    best_df, best_mse = None, np.inf
    for df in spec.df_grid:
        cand = replace(spec, df=int(df))
        fold_mse = []
        for hold in folds:
            train = np.setdiff1d(perm, hold, assume_unique=True)
            design, knots = build_basis(cov[train], cand)
            coef = ols(design, response[train])
            held_design, _ = build_basis(cov[hold], cand, knots)
            err = response[hold] - held_design @ coef
            fold_mse.append(float(np.mean(err**2)))
        mean_mse = float(np.mean(fold_mse))
        if mean_mse < best_mse:
            best_df, best_mse = int(df), mean_mse

    chosen = replace(spec, df=best_df)
    design, knots = build_basis(cov, chosen)
    coef = ols(design, response)
    training_mse = float(np.mean((response - design @ coef) ** 2))
    return IteModel(basis=chosen, knots=knots, coef=coef, training_mse=training_mse)


def predict_ite_batch(model: IteModel, covariates: np.ndarray) -> np.ndarray:
    """Evaluate the surface on an ``m x d`` covariate matrix (clamped).

    The one way to evaluate a fitted surface.  Columns follow the layout
    the model was fit on: the ``x`` columns, then ``eta_hat`` when
    ``model.basis.include_eta``; any other width raises ArityMismatch.  A
    non-finite covariate raises NonFiniteValue naming the first such row
    and its covariate position.
    """
    covariates = np.atleast_2d(np.asarray(covariates, dtype=np.float64))
    finite = np.isfinite(covariates)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFiniteValue(int(row), f"covariate {col}")
    design, _ = build_basis(covariates, model.basis, model.knots)
    if design.shape[1] != model.coef.shape[0]:
        raise ArityMismatch(
            f"design has {design.shape[1]} columns, model has {model.coef.shape[0]}"
        )
    return design @ model.coef


def ite_mse(model: IteModel, obs: ObservationSet, est: AttEstimate, truth) -> float:
    """Mean squared error of the fitted surface against a known truth.

    ``truth(x, z, q)`` receives the treated rows' covariate matrices and
    score vector and returns the true effect per row; only simulations can
    supply it.  The average runs over ``est.matches.treated_idx``, the
    treated rows of the run's matching split (any cross-fit rotation's
    estimate works), with the model evaluated at ``(x, est.eta_hat)``
    exactly as it predicts.
    """
    treated, cov = _treated_covariates(obs, est, model.basis.include_eta)
    predicted = predict_ite_batch(model, cov)
    actual = np.asarray(truth(obs.x[treated], obs.z[treated], obs.q[treated]), dtype=np.float64)
    return float(np.mean((predicted - actual) ** 2))


def save_ite_model(model: IteModel, path: str) -> None:
    """Serialize to a flat text file; floats in hex so round-trips are bit-exact."""
    lines = ["threshmatch-ite-model v1"]
    spec = model.basis
    lines.append(f"degree {DEGREE}")
    lines.append(f"df {spec.df}")
    lines.append(f"df_grid {','.join(str(v) for v in spec.df_grid)}")
    lines.append(f"include_eta {int(spec.include_eta)}")
    lines.append("interactions 1")
    lines.append(f"training_mse {float(model.training_mse).hex()}")
    for j, kn in enumerate(model.knots):
        lines.append(f"knots{j} " + " ".join(float(v).hex() for v in kn))
    lines.append("coef " + " ".join(float(v).hex() for v in model.coef))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_ite_model(path: str) -> IteModel:
    """Inverse of :func:`save_ite_model`.

    A file that is not one, or whose coefficients, knots or training MSE
    are not finite, or whose knot vectors decrease, raises ArityMismatch
    naming the path.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != "threshmatch-ite-model v1":
        raise ArityMismatch(f"{path}: not a threshmatch ITE model file")
    fields: dict[str, str] = {}
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        fields[key] = rest
    # neither changes the coefficient count, so a mismatch would predict wrongly
    if fields.get("degree") != str(DEGREE) or fields.get("interactions") != "1":
        raise ArityMismatch(f"{path}: only cubic models with interactions are supported")
    try:
        knot_keys = sorted((k for k in fields if k.startswith("knots")), key=lambda s: int(s[5:]))
        knots = [
            np.array([float.fromhex(tok) for tok in fields[k].split()]) for k in knot_keys
        ]
        spec = SplineBasisSpec(
            df_grid=tuple(int(v) for v in fields["df_grid"].split(",")),
            include_eta=bool(int(fields["include_eta"])),
            df=int(fields["df"]),
        )
        coef = np.array([float.fromhex(tok) for tok in fields["coef"].split()])
        training_mse = float.fromhex(fields["training_mse"])
    except (KeyError, ValueError) as exc:
        raise ArityMismatch(f"{path}: missing or malformed field ({exc!r})") from None
    if not all(np.isfinite(values).all() for values in (coef, training_mse, *knots)):
        raise ArityMismatch(f"{path}: a coefficient, knot or training_mse is not finite")
    if any((np.diff(kn) < 0).any() for kn in knots):
        raise ArityMismatch(f"{path}: a knot vector decreases")
    return IteModel(basis=spec, knots=knots, coef=coef, training_mse=training_mse)
