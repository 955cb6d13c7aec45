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
freedom are chosen by 4-fold cross-validation over a small grid, whose
fits run on up to one process per CPU (:func:`threshmatch.parallel.map_ranges`).
Evaluation outside the training range clamps to the boundary knots, so
predictions stay bounded.

The B-splines are evaluated in numpy, vectorised over rows, by the de
Boor-Cox recurrence in the form SciPy's ``_deBoor_D`` uses: the same float
operations in the same order, so designs are bit-equal to
``scipy.interpolate.BSpline.design_matrix`` without importing SciPy.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from itertools import combinations, count, zip_longest

import numpy as np

from .att import AttEstimate
from .data_model import ObservationSet, linear_quantiles, utf8_text, whole_number
from .errors import (
    ArityMismatch,
    DegenerateCovariate,
    DimensionMismatch,
    NonFiniteValue,
    TooFewRows,
)
from .linreg import ols
from .parallel import map_ranges
from .residualize import residuals_eta
from .rng import rng_from

DEFAULT_DF_GRID = (3, 4, 5, 6, 8, 10)
CV_FOLDS = 4
DEGREE = 3  # cubic splines; model files record it and the loader accepts only this
_MODEL_HEADER = "threshmatch-ite-model v1"


@dataclass(frozen=True)
class SplineBasisSpec:
    """Configuration of the spline regression design.

    ``df`` is the per-covariate degrees of freedom actually used to build
    a basis; it is None until cross-validation picks one from ``df_grid``.
    ``df`` and the grid's entries are integers (of any integer type) of at
    least ``DEGREE``, the grid nonempty and strictly increasing; anything
    else raises DimensionMismatch.
    """

    df_grid: tuple[int, ...] = DEFAULT_DF_GRID
    include_eta: bool = False
    df: int | None = None

    def __post_init__(self):
        grid = tuple(whole_number(v, "every df_grid entry") for v in self.df_grid)
        if not grid:
            raise DimensionMismatch("df_grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DimensionMismatch("df_grid must be strictly increasing")
        if grid[0] < DEGREE:
            raise DimensionMismatch(f"every df must be >= degree ({DEGREE})")
        if self.df is not None and whole_number(self.df, "df") < DEGREE:
            raise DimensionMismatch(f"df must be >= degree ({DEGREE})")
        object.__setattr__(self, "df_grid", grid)

    def dimension(self, n_covariates: int) -> int:
        """Number of design columns for ``n_covariates`` raw covariates at ``df``.

        An unset ``df`` raises DimensionMismatch.
        """
        if self.df is None:
            raise DimensionMismatch("build_basis needs spec.df set")
        return 1 + n_covariates * self.df + n_covariates * (n_covariates - 1) // 2


@dataclass(frozen=True, eq=False)
class IteModel:
    """Fitted effect-surface model: knots, chosen spec, and coefficients.

    Construction checks the one rule for a valid model, else ArityMismatch:
    ``basis.df`` is set; each knot vector is ``df + 5`` finite, non-decreasing
    knots, the first 4 equal to ``lo`` and the last 4 to ``hi > lo``; ``coef`` is
    ``basis.dimension(len(knots))`` finite values; ``training_mse`` is finite.
    """

    basis: SplineBasisSpec
    knots: list[np.ndarray]
    coef: np.ndarray
    training_mse: float

    def __post_init__(self):
        df = self.basis.df
        if df is None:
            raise ArityMismatch("model has no df")
        size = df + DEGREE + 2
        for j, kn in enumerate(self.knots):
            ok = kn.shape == (size,) and np.isfinite(kn).all() and (np.diff(kn) >= 0).all()
            if not (ok and kn[DEGREE] == kn[0] < kn[-1] == kn[-DEGREE - 1]):
                raise ArityMismatch(f"knots{j} is not {size} finite, non-decreasing, clamped knots")
        width = self.basis.dimension(len(self.knots))
        if self.coef.shape != (width,) or not np.isfinite(self.coef).all():
            raise ArityMismatch(f"coef is not {width} finite values")
        if not np.isfinite(self.training_mse):
            raise ArityMismatch("training_mse is not finite")


def _covariate_matrix(covariates: np.ndarray) -> np.ndarray:
    """``covariates`` as a float64 ``m x d`` matrix of at least one row, all finite.

    A vector is one row; an array of more than two dimensions raises
    DimensionMismatch naming its shape, a non-finite covariate raises
    NonFiniteValue naming the first such row and its covariate position,
    and no rows raise TooFewRows.
    """
    covariates = np.atleast_2d(np.asarray(covariates, dtype=np.float64))
    if covariates.ndim != 2:
        raise DimensionMismatch(f"covariates must be an m x d matrix, got shape {covariates.shape}")
    finite = np.isfinite(covariates)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFiniteValue(int(row), f"covariate {col}")
    if covariates.shape[0] == 0:
        raise TooFewRows(0, 1)
    return covariates


def quantile_knots(covariates: np.ndarray, df: int) -> list[np.ndarray]:
    """One augmented knot vector per column of an ``m x d`` training matrix.

    ``df - DEGREE`` interior knots sit at quantiles ``j / (df - DEGREE + 1)``
    of the column, the bits of ``np.quantile``'s "linear" method, from
    :func:`threshmatch.data_model.linear_quantiles`; the boundary knots
    (``DEGREE + 1`` times each) sit at its min and max.  The matrix is
    checked as :func:`build_basis` checks its covariates: an empty one
    raises TooFewRows and a non-finite entry NonFiniteValue.  A constant
    column raises DegenerateCovariate.
    """
    columns = np.ascontiguousarray(_covariate_matrix(covariates).T)  # one row each
    lo, hi = columns.min(axis=1), columns.max(axis=1)
    constant = np.flatnonzero(lo == hi)
    if constant.size:
        raise DegenerateCovariate(int(constant[0]))
    qs = np.arange(1, df - DEGREE + 1) / (df - DEGREE + 1)
    knots = np.empty((columns.shape[0], df + DEGREE + 2))
    knots[:, : DEGREE + 1] = lo[:, None]
    knots[:, DEGREE + 1 : -DEGREE - 1] = linear_quantiles(columns, qs, axis=1).T
    knots[:, -DEGREE - 1 :] = hi[:, None]
    return list(knots)


def bspline_block(values: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """All cubic B-spline basis functions over ``knots``, evaluated with clamping.

    Rows sum to one inside the knot range (partition of unity); values
    outside the boundary knots are clamped onto it first.  Bit-equal to
    ``BSpline.design_matrix(clipped values, knots, 3).toarray()``.
    """
    t = np.asarray(knots, dtype=np.float64)
    x = np.clip(np.asarray(values, dtype=np.float64), t[0], t[-1])
    n_basis = t.size - DEGREE - 1
    # interval index: the last knot <= x, clipped to [DEGREE, n_basis - 1]
    ell = DEGREE + np.searchsorted(t[DEGREE + 1 : n_basis], x, side="right")
    # knot[c] holds t[ell + c] per row, for each offset the recurrence reads
    knot = {c: t[ell + c] for c in range(1 - DEGREE, DEGREE + 1)}
    # h holds the j + 1 nonzero degree-j B-splines on the interval, left to right
    h = [np.ones_like(x)]
    for j in range(1, DEGREE + 1):
        hh, h = h, [np.zeros_like(x)]
        for n in range(1, j + 1):
            xb, xa = knot[n], knot[n - j]
            span = xb - xa
            # a zero-width span (repeated knots) contributes 0
            w = np.divide(hh[n - 1], span, out=np.zeros_like(x), where=span != 0)
            h[n - 1] += w * (xb - x)
            h.append(w * (x - xa))
    block = np.zeros((x.size, n_basis))
    flat = block.reshape(-1)
    first = np.arange(x.size) * n_basis + (ell - DEGREE)
    for c in range(DEGREE + 1):
        flat[first + c] = h[c] + 0.0  # + 0.0 turns -0.0 into 0.0
    return block


def build_basis(
    covariates: np.ndarray, spec: SplineBasisSpec, knots: list[np.ndarray], *, order: str = "C"
) -> np.ndarray:
    """Assemble the regression design for an ``m x d`` covariate matrix.

    Layout: constant column, then one spline block per covariate over its
    ``knots`` (the block's first basis function is dropped, since the
    constant column already carries the level), then pairwise products of
    distinct raw covariates: ``spec.dimension(d)`` columns in all.  A
    vector is one row; an array of more than two dimensions raises
    DimensionMismatch naming its shape, and a non-finite covariate raises
    NonFiniteValue naming the first such row and its covariate position.
    At least one row is needed, and one knot vector per column.  An unset
    ``spec.df`` raises DimensionMismatch, and a knot vector of another
    length than ``df + 5`` raises ArityMismatch.

    The design is stored row-major (``order="C"``), the layout a
    matrix-vector product reads, or column-major (``order="F"``), the
    layout :func:`ols` factors in place; the values are the same.
    """
    covariates = _covariate_matrix(covariates)
    m, d = covariates.shape
    if len(knots) != d:
        raise ArityMismatch(f"model has {len(knots)} covariates, got {d}")
    width = spec.dimension(d)  # raises on an unset df
    df = spec.df
    for j, kn in enumerate(knots):
        if len(kn) != df + DEGREE + 2:
            raise ArityMismatch(f"knots{j} has {len(kn)} knots; df {df} needs {df + DEGREE + 2}")

    design = np.empty((m, width), order=order)
    design[:, 0] = 1.0
    for j in range(d):
        design[:, 1 + j * df : 1 + (j + 1) * df] = bspline_block(covariates[:, j], knots[j])[:, 1:]
    for k, (a, b) in enumerate(combinations(range(d), 2), start=1 + d * df):
        design[:, k] = covariates[:, a] * covariates[:, b]
    return design


def _treated_covariates(
    obs: ObservationSet, est: AttEstimate, include_eta: bool
) -> tuple[np.ndarray, np.ndarray]:
    rows = sum(part.size for part in est.roles)
    if rows != obs.n:
        raise DimensionMismatch(f"the estimate is of a {rows}-row sample; obs has {obs.n} rows")
    treated = est.matches.treated_idx
    cov = obs.x[treated]
    if include_eta:
        cov = np.hstack([cov, residuals_eta(est.gamma_hat, obs)[treated][:, None]])
    return treated, cov


def fit_ite(
    obs: ObservationSet, est: AttEstimate, spec: SplineBasisSpec, cv_seed: int = 0
) -> IteModel:
    """Fit the effect surface on the treated rows of one pipeline run.

    The rows are ``est.matches.treated_idx``, the treated rows of the run's
    matching split, so the estimate of any cross-fit rotation works as well
    as a single run's.  The response is the run's ``est.differences``,
    the matched adjusted-outcome gap per treated row; the covariates are
    that row's ``x``, plus, when the spec includes it, its score residual
    ``residuals_eta(est.gamma_hat, obs)``.  ``est`` must come from a run
    on ``obs`` itself, since its indices are read as rows of ``obs``;
    every public record is (see the row-map contract in
    :mod:`threshmatch.att`).  An estimate whose roles do not partition
    ``obs.n`` rows raises DimensionMismatch.
    ``df`` is chosen by 4-fold cross-validation minimizing mean validation
    MSE, ties to the smaller df; the returned model is refit on all
    treated rows at the chosen df.

    The ``len(df_grid) * 4`` fold fits run on up to one process per CPU
    through :func:`threshmatch.parallel.map_ranges`, or here when called
    inside another call's ranges; the chosen df and the model do not
    depend on how many run.  The items run in fold-major order (every df
    of the first fold, then of the next), and the first failing fit in that
    order raises, as ``map_ranges`` raises; fits after it in the caller's
    range are not run.  The refit runs here.

    Each item evaluates the basis on its training rows alone, column-major,
    for :func:`ols` to factor in place, and again on its held-out rows,
    row-major, for the validation product; the refit builds its design
    both ways too, the second for ``training_mse``.  So no design is held
    for more rows than it is read on, and no fit copies one.  The bits
    equal those of one design on all treated rows, its rows taken out:
    each basis row depends on its own covariates only, and each product
    reads the rows in the same layout and order.  ``tests/test_ite.py``
    compares every item's MSE and the model with such a fit.

    Cross-validation picks ``df``, so a ``spec`` whose ``df`` is already set
    raises DimensionMismatch.
    """
    if spec.df is not None:
        raise DimensionMismatch(f"spec.df is {spec.df}; fit_ite picks df from df_grid")
    _, cov = _treated_covariates(obs, est, spec.include_eta)
    response = est.differences
    m, d = cov.shape
    # the smallest training set, floor(3m/4) rows, must fit the widest design
    max_dim = replace(spec, df=spec.df_grid[-1]).dimension(d)
    if (CV_FOLDS - 1) * m // CV_FOLDS < max_dim:
        raise TooFewRows(m, -(-CV_FOLDS * max_dim // (CV_FOLDS - 1)))

    perm = rng_from(cv_seed).permutation(m)
    folds = [(np.setdiff1d(perm, hold, assume_unique=True), hold)
             for hold in np.array_split(perm, CV_FOLDS)]
    grid = spec.df_grid

    def fold_error(i: int) -> float:
        # fold-major items, so every contiguous range holds narrow and wide designs
        fold_spec = replace(spec, df=grid[i % len(grid)])
        train, hold = folds[i // len(grid)]
        cov_train = cov[train]
        knots = quantile_knots(cov_train, fold_spec.df)
        coef = ols(build_basis(cov_train, fold_spec, knots, order="F"), response[train], overwrite_a=True)
        err = response[hold] - build_basis(cov[hold], fold_spec, knots) @ coef
        return float(np.mean(err**2))

    results = map_ranges(fold_error, len(grid) * CV_FOLDS)
    best_df, best_mse = None, np.inf
    for j, df in enumerate(grid):
        mean_mse = float(np.mean(results[j :: len(grid)]))
        if mean_mse < best_mse:
            best_df, best_mse = df, mean_mse

    chosen = replace(spec, df=best_df)
    knots = quantile_knots(cov, best_df)
    coef = ols(build_basis(cov, chosen, knots, order="F"), response, overwrite_a=True)
    training_mse = float(np.mean((response - build_basis(cov, chosen, knots) @ coef) ** 2))
    return IteModel(basis=chosen, knots=knots, coef=coef, training_mse=training_mse)


def predict_ite_batch(model: IteModel, covariates: np.ndarray) -> np.ndarray:
    """Evaluate the surface on an ``m x d`` covariate matrix (clamped).

    The one way to evaluate a fitted surface.  Columns follow the layout
    the model was fit on: the ``x`` columns, then ``eta_hat`` when
    ``model.basis.include_eta``; any other width raises ArityMismatch.
    :func:`build_basis` checks the covariates: an array of more than two
    dimensions raises DimensionMismatch naming its shape, and a non-finite
    covariate raises NonFiniteValue naming the first such row and its
    covariate position.
    """
    return build_basis(covariates, model.basis, model.knots) @ model.coef


def ite_mse(model: IteModel, obs: ObservationSet, est: AttEstimate, truth) -> float:
    """Mean squared error of the fitted surface against a known truth.

    ``truth(x, z, q)`` receives the treated rows' covariate matrices and
    score vector and returns the true effect per row; only simulations can
    supply it.  The average runs over ``est.matches.treated_idx``, the
    treated rows of the run's matching split (any cross-fit rotation's
    estimate works), with the model evaluated at ``x`` and, when it was
    fit on them, the residuals ``residuals_eta(est.gamma_hat, obs)``,
    exactly as it predicts.  As in :func:`fit_ite`, ``est`` must come from
    a run on ``obs`` itself, and one of another row count raises
    DimensionMismatch.
    """
    treated, cov = _treated_covariates(obs, est, model.basis.include_eta)
    predicted = predict_ite_batch(model, cov)
    actual = np.asarray(truth(obs.x[treated], obs.z[treated], obs.q[treated]), dtype=np.float64)
    return float(np.mean((predicted - actual) ** 2))


def _model_text(model: IteModel) -> str:
    """The text of ``model``'s file: the one statement of the format."""
    spec = model.basis
    lines = [
        _MODEL_HEADER,
        f"degree {DEGREE}",
        f"df {spec.df}",
        f"df_grid {','.join(str(v) for v in spec.df_grid)}",
        f"include_eta {int(spec.include_eta)}",
        "interactions 1",
        f"training_mse {float(model.training_mse).hex()}",
        *(f"knots{j} " + " ".join(float(v).hex() for v in kn) for j, kn in enumerate(model.knots)),
        "coef " + " ".join(float(v).hex() for v in model.coef),
    ]
    return "\n".join(lines) + "\n"


def save_ite_model(model: IteModel, path: str) -> None:
    """Serialize to a flat text file; floats in hex so round-trips are bit-exact."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_model_text(model))


def _hex_floats(field: str) -> np.ndarray:
    return np.array([float.fromhex(tok) for tok in field.split()])


def load_ite_model(path: str) -> IteModel:
    """Inverse of :func:`save_ite_model`.

    A file loads if and only if it is the text :func:`save_ite_model` writes
    for the valid :class:`IteModel` it describes, with any newline
    convention.  The lines after the first are parsed by key into a model,
    whose construction checks it, and the file must then be that model's
    text.  Any other file raises ArityMismatch naming the path: one that is
    not UTF-8 names the offset of its first bad byte, and one that is not
    the writer's text names its first line that differs and what the writer
    writes there.  A file that cannot be opened raises OSError.
    """
    # universal newlines, line ends kept
    lines = io.StringIO(utf8_text(path, ArityMismatch), newline=None).readlines()
    if not lines or lines[0].rstrip("\n") != _MODEL_HEADER:
        raise ArityMismatch(f"{path}: not a threshmatch ITE model file")
    fields = dict(ln.rstrip("\n").partition(" ")[::2] for ln in lines[1:])
    try:
        spec = SplineBasisSpec(
            df_grid=tuple(int(v) for v in fields["df_grid"].split(",")),
            include_eta=fields["include_eta"] == "1",
            df=int(fields["df"]),
        )
        n_knots = next(j for j in count() if f"knots{j}" not in fields)
        model = IteModel(
            basis=spec,
            knots=[_hex_floats(fields[f"knots{j}"]) for j in range(n_knots)],
            coef=_hex_floats(fields["coef"]),
            training_mse=float.fromhex(fields["training_mse"]),
        )
    except KeyError as exc:
        raise ArityMismatch(f"{path}: no {exc.args[0]} line") from None
    except (ValueError, OverflowError) as exc:
        raise ArityMismatch(f"{path}: malformed field ({exc!r})") from None
    except (ArityMismatch, DimensionMismatch) as exc:
        raise ArityMismatch(f"{path}: {exc}") from None
    written = io.StringIO(_model_text(model)).readlines()
    for k, (got, want) in enumerate(zip_longest(lines, written, fillvalue=""), start=1):
        if got != want:
            raise ArityMismatch(f"{path}: line {k} is not what save_ite_model writes there, {want!r}")
    return model
