import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import threshmatch.ite as ite_mod
from threshmatch import (
    ArityMismatch,
    DegenerateCovariate,
    DgpConfig,
    DimensionMismatch,
    InputError,
    MatchResult,
    NonFiniteValue,
    NumericError,
    SplineBasisSpec,
    TooFewRows,
    build_basis,
    estimate_att,
    fit_ite,
    generate,
    ite_mse,
    load_ite_model,
    ols,
    predict_ite_batch,
    residuals_eta,
    save_ite_model,
    split_three_way,
)
from threshmatch.att import crossfit_on_splits, matched_differences
from threshmatch.data_model import treatment_mask
from threshmatch.ite import DEFAULT_DF_GRID, IteModel, bspline_block, quantile_knots
from threshmatch.parallel import map_ranges
from threshmatch.simulate import X_AND_ETA, X_ONLY

from conftest import assert_no_child_left, fit_ite_reference, make_pl_obs, set_cpus

TIE_KINDS = ("continuous", "integer", "cubed", "rounded", "one-point")


def deboor_basis(x: float, knots: np.ndarray, degree: int) -> np.ndarray:
    """Textbook Cox-de Boor recursion; right boundary closed like scipy."""
    b = np.zeros(len(knots) - 1)
    for i in range(len(knots) - 1):
        if knots[i] <= x < knots[i + 1]:
            b[i] = 1.0
    if x == knots[-1]:
        for i in range(len(knots) - 1, 0, -1):
            if knots[i - 1] < knots[i]:
                b[i - 1] = 1.0
                break
    for k in range(1, degree + 1):
        nxt = np.zeros(len(knots) - k - 1)
        for i in range(len(nxt)):
            acc = 0.0
            if knots[i + k] != knots[i]:
                acc += (x - knots[i]) / (knots[i + k] - knots[i]) * b[i]
            if knots[i + k + 1] != knots[i + 1]:
                acc += (knots[i + k + 1] - x) / (knots[i + k + 1] - knots[i + 1]) * b[i + 1]
            nxt[i] = acc
        b = nxt
    return b


def _fitted_pipeline(seed, n, alpha, include_eta=False, df_grid=DEFAULT_DF_GRID):
    obs = make_pl_obs(seed=seed, n=n, beta=np.array([2.0, -1.0, 0.5]), alpha=alpha)
    splits = split_three_way(obs.n, seed=seed)
    est = estimate_att(obs, splits)
    spec = SplineBasisSpec(df_grid=df_grid, include_eta=include_eta)
    model = fit_ite(obs, est, spec, cv_seed=seed)
    return obs, splits, est, model


class TestBasis:
    def test_cubic_span_contains_lines(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, size=50)[:, None]
        spec = SplineBasisSpec(df_grid=(3,), df=3)
        design = build_basis(x, spec, quantile_knots(x, 3))
        target = 1.5 + 2.0 * x[:, 0]
        coef = ols(design, target)
        assert np.abs(target - design @ coef).max() <= 1e-8

    @pytest.mark.parametrize(
        "df, knot_df, error, message",
        [
            (None, 4, DimensionMismatch, "spec.df"),
            (4, 5, ArityMismatch, "knots1 has 10 knots; df 4 needs 9"),
            (5, 4, ArityMismatch, "knots1 has 9 knots; df 5 needs 10"),
        ],
        ids=["unset-df", "longer-knots", "shorter-knots"],
    )
    def test_spec_and_knots_must_agree(self, df, knot_df, error, message):
        # used to raise a bare TypeError (no df) or numpy's broadcast ValueError
        x = np.random.default_rng(2).uniform(-2, 2, size=(50, 2))
        knots = quantile_knots(x, df or knot_df)
        knots[1] = quantile_knots(x, knot_df)[1]
        with pytest.raises(error, match=re.escape(message)):
            build_basis(x, SplineBasisSpec(df=df), knots)

    def test_dimension_needs_a_df(self):
        # used to raise a bare TypeError from int * None
        with pytest.raises(DimensionMismatch, match=re.escape("build_basis needs spec.df set")):
            SplineBasisSpec().dimension(3)

    def test_knots_of_no_rows_is_an_input_error(self):
        # used to raise numpy's bare zero-size reduction ValueError
        with pytest.raises(TooFewRows, match=r"need at least 1 rows, got 0$") as err:
            quantile_knots(np.empty((0, 3)), 4)
        assert err.value.n == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_knots_of_a_non_finite_column_name_row_and_position(self, value):
        # a NaN used to give all-NaN knots and raise nothing
        x = np.random.default_rng(4).uniform(-2, 2, size=(20, 3))
        x[5, 2] = value
        x[7, 0] = value
        with pytest.raises(NonFiniteValue) as err:
            quantile_knots(x, 4)
        assert (err.value.row, err.value.col) == (5, "covariate 2")

    def test_constant_covariate_rejected(self):
        # two constant columns: the error names the first
        x = np.column_stack([np.arange(30.0), np.ones(30), np.arange(30.0), np.zeros(30)])
        with pytest.raises(DegenerateCovariate) as err:
            quantile_knots(x, 3)
        assert err.value.col == 1

    def test_partition_of_unity_and_deboor_oracle(self):
        rng = np.random.default_rng(1)
        train = rng.uniform(0, 5, size=200)
        (knots,) = quantile_knots(train[:, None], df=5)
        points = np.concatenate([rng.uniform(0, 5, size=100), [train.min(), train.max()]])
        block = bspline_block(points, knots)
        assert np.abs(block.sum(axis=1) - 1.0).max() <= 1e-10
        for k, xv in enumerate(points):
            oracle = deboor_basis(float(xv), knots, degree=3)
            assert np.abs(block[k] - oracle).max() <= 1e-10

    def test_out_of_range_clamps_to_boundary(self):
        train = np.linspace(0.0, 1.0, 40)
        (knots,) = quantile_knots(train[:, None], df=4)
        low = bspline_block(np.array([-5.0, 0.0]), knots)
        high = bspline_block(np.array([7.0, 1.0]), knots)
        assert np.array_equal(low[0], low[1])
        assert np.array_equal(high[0], high[1])

    @pytest.mark.parametrize("kind", TIE_KINDS)
    def test_bit_equal_to_scipy_design_matrix(self, kind):
        # the evaluator repeats SciPy's recurrence, so every tie pattern must give
        # SciPy's bytes; SciPy itself is only a test dependency
        from scipy.interpolate import BSpline

        rng = np.random.default_rng(TIE_KINDS.index(kind))
        knot_vectors = []
        for _ in range(30):
            m = int(rng.integers(8, 300))
            values = rng.normal(size=m)
            if kind == "integer":
                values = rng.integers(0, 5, size=m).astype(float)
            elif kind == "cubed":
                values = values**3
            elif kind == "rounded":
                values = np.round(values, 1)
            elif kind == "one-point":
                # the point is the min, an inner value or the max, so interior
                # knots coincide with either boundary or with each other
                point = rng.choice([values.min(), values[0], values.max()])
                values = np.where(rng.random(m) < 0.7, point, values)
            for df in DEFAULT_DF_GRID:
                knot_vectors.append((values, *quantile_knots(values[:, None], df)))
        # hand-made vectors with repeated interior knots, at and off the boundary
        for knots in ([0, 0, 0, 0, 0, 1, 2, 2, 2, 2], [0, 0, 0, 0, 1, 2, 2, 2, 2, 2],
                      [0, 0, 0, 0, 1, 1, 1, 2, 3, 3, 3, 3], [0, 0, 0, 0, 1, 1, 1, 1, 3, 3, 3, 3]):
            knots = np.array(knots, dtype=np.float64)
            knot_vectors.append((rng.uniform(-0.5, 3.5, size=50), knots))
        for values, knots in knot_vectors:
            queries = np.concatenate([
                values, knots, np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf),
                [knots[0] - 1.0, knots[-1] + 1.0, -1e300, 1e300, -0.0],
            ])
            block = bspline_block(queries, knots)
            expected = BSpline.design_matrix(np.clip(queries, knots[0], knots[-1]), knots, 3)
            expected = expected.toarray()
            assert block.shape == expected.shape
            assert block.tobytes() == expected.tobytes()


class TestFitIte:
    def test_linear_surface_interpolated_at_any_df(self):
        alpha = lambda x, eta: 2.0 + x[:, 0] - 3.0 * x[:, 1]
        for df in (3, 4, 10):
            _, _, _, model = _fitted_pipeline(seed=df, n=900, alpha=alpha, df_grid=(df,))
            assert model.training_mse <= 1e-8
            assert model.basis.df == df

    def test_delegation_to_least_squares_is_exact(self):
        alpha = lambda x, eta: x[:, 0] ** 2
        obs, splits, est, model = _fitted_pipeline(seed=5, n=900, alpha=alpha)
        # a cross-fit rotation fits on its own match block's treated rows
        rotation = crossfit_on_splits(obs, splits).rotations[1]
        rot_model = fit_ite(obs, rotation, SplineBasisSpec(), cv_seed=5)
        mask = treatment_mask(obs)
        # rotation 1 matches on part (1 + 2) % 3, i1
        cases = ((est, model, splits.i3), (rotation, rot_model, splits.i1))
        for run, fitted, block in cases:
            treated = block[mask[block]]
            design = build_basis(obs.x[treated], fitted.basis, fitted.knots)
            response = matched_differences(obs, run.beta_hat, run.matches)
            assert np.array_equal(fitted.coef, ols(design, response))

    def test_response_is_the_records_differences(self, monkeypatch):
        obs, _, est, model = _fitted_pipeline(seed=8, n=900, alpha=lambda x, eta: x[:, 0] ** 2)
        # no second pass over the matches: doubling the record doubles the fit
        monkeypatch.setattr("threshmatch.att.matched_differences", None)
        doubled = fit_ite(obs, replace(est, differences=2.0 * est.differences), SplineBasisSpec(), 8)
        assert doubled.basis.df == model.basis.df
        assert np.array_equal(doubled.coef, 2.0 * model.coef)

    def test_preset_df_is_rejected(self):
        # cross-validation picks df; a preset one used to be silently replaced
        obs, _, est, _ = _fitted_pipeline(seed=9, n=900, alpha=lambda x, eta: x[:, 0])
        with pytest.raises(DimensionMismatch, match="df"):
            fit_ite(obs, est, SplineBasisSpec(include_eta=True, df=10), cv_seed=3)

    def test_cv_requires_enough_rows(self):
        # x_only at the default grid: the widest design has 1 + 3 * 10 + 3 = 34
        # columns, and the smallest training set, floor(3m/4) rows, reaches it at 46
        obs, _, est, _ = _fitted_pipeline(seed=15, n=900, alpha=lambda x, eta: x[:, 0])

        def first(m):
            pairs = MatchResult(est.matches.treated_idx[:m], est.matches.control_idx[:m])
            return replace(est, matches=pairs, differences=est.differences[:m])

        for m in (35, 43, 45):
            with pytest.raises(TooFewRows, match=rf"need at least 46 rows, got {m}$"):
                fit_ite(obs, first(m), SplineBasisSpec())
        assert fit_ite(obs, first(46), SplineBasisSpec()).basis.df in DEFAULT_DF_GRID

    def test_cv_determinism(self):
        alpha = lambda x, eta: x[:, 0] ** 2 + x[:, 1] * x[:, 2]
        _, _, _, m1 = _fitted_pipeline(seed=6, n=900, alpha=alpha)
        _, _, _, m2 = _fitted_pipeline(seed=6, n=900, alpha=alpha)
        assert m1.basis.df == m2.basis.df
        assert np.array_equal(m1.coef, m2.coef)

    def test_knots_lie_in_training_range(self):
        alpha = lambda x, eta: x[:, 0]
        obs, splits, est, model = _fitted_pipeline(seed=7, n=900, alpha=alpha, include_eta=True)
        treated3 = splits.i3[treatment_mask(obs)[splits.i3]]
        cov = np.hstack([obs.x[treated3], residuals_eta(est.gamma_hat, obs)[treated3][:, None]])
        for j, kn in enumerate(model.knots):
            assert np.all(np.diff(kn) >= 0)
            assert kn[0] == cov[:, j].min() and kn[-1] == cov[:, j].max()


class TestCvGrid:
    def test_one_and_three_cpus_fit_the_same_model(self, monkeypatch):
        alpha = lambda x, eta: np.sin(2.0 * x[:, 0]) + x[:, 1] * eta
        models = []
        for cpus in (1, 3):
            set_cpus(monkeypatch, cpus)
            models.append(_fitted_pipeline(seed=8, n=1500, alpha=alpha, include_eta=True)[3])
        one, three = models
        assert one.basis == three.basis
        assert len(one.knots) == len(three.knots)
        assert all(np.array_equal(a, b) for a, b in zip(one.knots, three.knots))
        assert np.array_equal(one.coef, three.coef)
        assert one.training_mse == three.training_mse
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("kind", [X_ONLY, X_AND_ETA])
    def test_fits_equal_slices_of_the_whole_design(self, monkeypatch, cpus, kind):
        # each item builds its training and held-out designs apart, and the
        # refit builds its design twice; every bit equals the slices of one
        # design on all treated rows
        obs = generate(DgpConfig(n=3000, seed=4, ite_kind=kind))
        est = estimate_att(obs, split_three_way(obs.n, seed=4))
        spec = SplineBasisSpec(include_eta=kind == X_AND_ETA)
        fold_mses = []

        def recording_map_ranges(fn, count):
            results = map_ranges(fn, count)
            fold_mses.extend(results)
            return results

        set_cpus(monkeypatch, cpus)
        monkeypatch.setattr(ite_mod, "map_ranges", recording_map_ranges)
        model = fit_ite(obs, est, spec, cv_seed=4)
        mses, best_df, coef, training_mse = fit_ite_reference(obs, est, spec, cv_seed=4)
        assert len(fold_mses) == len(spec.df_grid) * 4
        assert np.array(fold_mses).tobytes() == np.array(mses).tobytes()
        assert model.basis.df == best_df
        assert model.coef.tobytes() == coef.tobytes()
        assert model.training_mse == training_mse
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("failing", [((4, 2), (8, 0)), ((8, 0), (4, 2))])
    def test_first_failure_in_fold_major_order_raises(self, monkeypatch, cpus, failing):
        # df 8 fold 0 comes before df 4 fold 2 in fold-major item order and
        # lies in the caller's range at 3 CPUs; df 4 fold 2 lies in a child's
        obs, _, est, _ = _fitted_pipeline(seed=9, n=900, alpha=lambda x, eta: x[:, 0])
        spec = SplineBasisSpec()
        df_of_width = {replace(spec, df=df).dimension(3): df for df in spec.df_grid}
        calls = []

        def recording_ols(a, b, *, overwrite_a=False):
            calls.append((a.shape[1], b.tobytes()))
            return ols(a, b, overwrite_a=overwrite_a)

        set_cpus(monkeypatch, 1)
        monkeypatch.setattr(ite_mod, "ols", recording_ols)
        fit_ite(obs, est, spec, cv_seed=9)
        # each df's folds are fitted in fold order; the last call is the refit
        fit_of = {}
        for width, response in calls[:-1]:
            df = df_of_width[width]
            fit_of[width, response] = (df, sum(v[0] == df for v in fit_of.values()))
        assert sorted(fit_of.values()) == [(df, f) for df in spec.df_grid for f in range(4)]

        def failing_ols(a, b, *, overwrite_a=False):
            fit = fit_of.get((a.shape[1], b.tobytes()))
            if fit in failing:
                raise NumericError(f"fit df={fit[0]} fold={fit[1]}")
            return ols(a, b, overwrite_a=overwrite_a)

        set_cpus(monkeypatch, cpus)
        monkeypatch.setattr(ite_mod, "ols", failing_ols)
        with pytest.raises(NumericError, match=r"^fit df=8 fold=0$"):
            fit_ite(obs, est, spec, cv_seed=9)
        assert_no_child_left()

    def test_failing_grid_stops_at_its_first_fit(self, monkeypatch):
        # on one CPU the first fold's first fit fails and no other is tried
        obs, _, est, _ = _fitted_pipeline(seed=9, n=900, alpha=lambda x, eta: x[:, 0])
        calls = []

        def failing_ols(a, b, *, overwrite_a=False):
            calls.append(a.shape)
            raise NumericError("fit failed")

        set_cpus(monkeypatch, 1)
        monkeypatch.setattr(ite_mod, "ols", failing_ols)
        with pytest.raises(NumericError, match=r"^fit failed$"):
            fit_ite(obs, est, SplineBasisSpec(), cv_seed=9)
        assert len(calls) == 1


class TestWorkingSet:
    def test_a_serial_fit_peak_stays_under_its_bound(self, monkeypatch):
        # 5018 treated rows, designs of 27 to 47 columns: measured 4.4 MB run
        # alone; each item building its design on all treated rows and taking
        # its training and held-out rows out of it, for ols to copy the
        # training rows again, took it to 7.7 MB
        obs = generate(DgpConfig(n=30_000, seed=0, ite_kind=X_AND_ETA))
        est = estimate_att(obs, split_three_way(obs.n, seed=3))
        set_cpus(monkeypatch, 1)
        tracemalloc.start()
        try:
            fit_ite(obs, est, SplineBasisSpec(include_eta=True), cv_seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.0e6


class TestPredict:
    def test_training_point_matches_fitted_value(self):
        alpha = lambda x, eta: x[:, 0] ** 2
        obs, splits, _, model = _fitted_pipeline(seed=8, n=900, alpha=alpha)
        treated3 = splits.i3[treatment_mask(obs)[splits.i3]]
        design = build_basis(obs.x[treated3], model.basis, model.knots)
        fitted = design @ model.coef
        batch = predict_ite_batch(model, obs.x[treated3])
        assert np.array_equal(batch, fitted)
        single = predict_ite_batch(model, obs.x[treated3[0]][None, :])[0]
        assert single == pytest.approx(fitted[0], abs=1e-12)

    def test_linear_surface_predicts_exactly(self):
        alpha = lambda x, eta: 1.0 + 2.0 * x[:, 0]
        _, _, _, model = _fitted_pipeline(seed=9, n=900, alpha=alpha, df_grid=(3,))
        for xv in ([0.0, 0.0, 0.0], [0.3, -0.2, 0.5]):
            pred = predict_ite_batch(model, np.array(xv)[None, :])[0]
            assert pred == pytest.approx(1.0 + 2.0 * xv[0], abs=1e-6)

    def test_arity_checks(self):
        alpha = lambda x, eta: x[:, 0]
        _, _, _, model = _fitted_pipeline(seed=10, n=900, alpha=alpha)
        with pytest.raises(ArityMismatch):
            predict_ite_batch(model, np.array([[1.0, 2.0]]))  # wrong covariate count
        with pytest.raises(ArityMismatch):
            predict_ite_batch(model, np.array([[1.0, 2.0, 3.0, 0.5]]))  # not an eta model

    def test_empty_batch_is_an_input_error(self):
        alpha = lambda x, eta: x[:, 0]
        _, _, _, model = _fitted_pipeline(seed=10, n=900, alpha=alpha)
        with pytest.raises(TooFewRows) as err:
            predict_ite_batch(model, np.empty((0, 3)))
        assert isinstance(err.value, InputError)
        assert err.value.n == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_covariate_names_row_and_position(self, value):
        _, _, _, model = _fitted_pipeline(seed=10, n=900, alpha=lambda x, eta: x[:, 0])
        batch = np.zeros((4, 3))
        batch[2, 1] = value
        batch[3, 0] = value
        with pytest.raises(NonFiniteValue) as err:
            predict_ite_batch(model, batch)
        assert (err.value.row, err.value.col) == (2, "covariate 1")

    @pytest.mark.parametrize("shape", [(4, 3, 1), (2, 2, 3)], ids=["trailing-axis", "stacked"])
    def test_covariates_of_three_dimensions_name_their_shape(self, shape):
        obs = generate(DgpConfig(n=3000, seed=1))
        model = fit_ite(obs, estimate_att(obs, split_three_way(obs.n, seed=1)), SplineBasisSpec())
        with pytest.raises(DimensionMismatch) as err:
            predict_ite_batch(model, np.zeros(shape))
        assert isinstance(err.value, InputError)
        assert str(shape) in str(err.value)
        with pytest.raises(DimensionMismatch, match=re.escape(str(shape))):
            build_basis(np.zeros(shape), model.basis, model.knots)

    def test_effect_curve_in_eta_tracks_truth(self):
        # fixed x = (0.1, 0.2, 0.8), eta sweeping the confounder's range
        obs = generate(DgpConfig(n=50_000, seed=44, ite_kind=X_AND_ETA))
        splits = split_three_way(obs.n, seed=44)
        est = estimate_att(obs, splits)
        model = fit_ite(obs, est, SplineBasisSpec(include_eta=True), cv_seed=44)

        x_fix = np.array([0.1, 0.2, 0.8])
        grid = np.linspace(-1.0, 1.0, 41)
        preds = np.array(
            [predict_ite_batch(model, np.append(x_fix, e)[None, :])[0] for e in grid]
        )
        truth = x_fix[0] ** 2 + x_fix[1] * x_fix[2] + grid**2
        assert np.abs(preds - truth).max() <= 0.3


class TestEstimateOfAnotherSample:
    @pytest.mark.parametrize("n_est, n_obs", [(1800, 900), (900, 1800)], ids=["larger", "smaller"])
    def test_fit_and_mse_raise(self, n_est, n_obs):
        # a larger sample's estimate raised numpy's bare IndexError, and a
        # smaller one's fitted rows of obs it was never run on
        alpha = lambda x, eta: x[:, 0]
        _, _, est, model = _fitted_pipeline(seed=13, n=n_est, alpha=alpha)
        obs = make_pl_obs(seed=14, n=n_obs, beta=np.array([2.0, -1.0, 0.5]), alpha=alpha)
        message = rf"{n_est}-row sample; obs has {n_obs} rows"
        with pytest.raises(DimensionMismatch, match=message):
            fit_ite(obs, est, SplineBasisSpec())
        with pytest.raises(DimensionMismatch, match=message):
            ite_mse(model, obs, est, lambda x, z, q: x[:, 0])


class TestIteMse:
    def test_zero_when_truth_equals_model(self):
        alpha = lambda x, eta: x[:, 0] ** 2
        obs, _, est, model = _fitted_pipeline(seed=11, n=900, alpha=alpha)
        truth = lambda x, z, q: predict_ite_batch(model, np.atleast_2d(x))
        assert ite_mse(model, obs, est, truth) == 0.0

    def test_constant_model_vs_constant_truth(self):
        alpha = lambda x, eta: np.full(x.shape[0], 2.5)
        obs, _, est, model = _fitted_pipeline(seed=12, n=900, alpha=alpha)
        truth = lambda x, z, q: np.full(np.atleast_2d(x).shape[0], 2.5)
        assert ite_mse(model, obs, est, truth) <= 1e-8

    def test_mse_decreases_with_sample_size(self):
        from threshmatch import monte_carlo_ite
        from threshmatch.rng import derive_seed

        spec = SplineBasisSpec(include_eta=False)
        seeds = [derive_seed(321, k) for k in range(10)]
        small = monte_carlo_ite(DgpConfig(n=5000, seed=0, ite_kind=X_ONLY), spec, seeds)
        large = monte_carlo_ite(DgpConfig(n=20000, seed=0, ite_kind=X_ONLY), spec, seeds)
        wins = sum(l < s for s, l in zip(small, large))
        assert wins >= 9


def _first_coef_in_decimal(line: str) -> str:
    key, first, *rest = line.split()
    return " ".join([key, repr(float.fromhex(first)), *rest]) + "\n"


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        alpha = lambda x, eta: x[:, 0] ** 2 + eta
        _, _, _, model = _fitted_pipeline(seed=13, n=900, alpha=alpha, include_eta=True)
        path = str(tmp_path / "model.txt")
        save_ite_model(model, path)
        loaded = load_ite_model(path)
        assert loaded.basis == model.basis
        assert np.array_equal(loaded.coef, model.coef)
        assert loaded.training_mse == model.training_mse
        assert len(loaded.knots) == len(model.knots)
        for a, b in zip(loaded.knots, model.knots):
            assert np.array_equal(a, b)
        # loaded model predicts identically
        x = np.array([0.1, -0.4, 0.9, 0.2])  # x, then eta_hat
        assert predict_ite_batch(loaded, x[None, :])[0] == predict_ite_batch(model, x[None, :])[0]

    @pytest.mark.parametrize(
        "line, edited",
        [("degree 3", "degree 2"), ("interactions 1", "interactions 0")],
        ids=["degree", "interactions"],
    )
    def test_loader_rejects_other_bases(self, tmp_path, line, edited):
        # same coefficient count, different design: loading would predict wrongly
        _, _, _, model = _fitted_pipeline(seed=14, n=900, alpha=lambda x, eta: x[:, 0])
        path = tmp_path / "model.txt"
        save_ite_model(model, str(path))
        text = path.read_text(encoding="utf-8")
        assert text.count(f"\n{line}\n") == 1
        path.write_text(text.replace(f"\n{line}\n", f"\n{edited}\n"), encoding="utf-8")
        with pytest.raises(ArityMismatch):
            load_ite_model(str(path))

    @pytest.mark.parametrize(
        "body",
        [
            "degree 3\ninteractions 1\ndf 3\n",
            "degree 3\ninteractions 1\ndf_grid 3,4\ninclude_eta 0\ndf x\n",
        ],
        ids=["missing-field", "malformed-df"],
    )
    def test_loader_rejects_broken_fields(self, tmp_path, body):
        path = tmp_path / "model.txt"
        path.write_text("threshmatch-ite-model v1\n" + body, encoding="utf-8")
        with pytest.raises(ArityMismatch, match=re.escape(str(path))):
            load_ite_model(str(path))


    @pytest.mark.parametrize(
        "field, edit",
        [
            ("coef", lambda toks: ["nan", *toks[1:]]),
            ("knots0", lambda toks: [*toks[:-1], "inf"]),
            ("training_mse", lambda toks: ["nan"]),
            ("knots1", lambda toks: toks[::-1]),
            ("knots0", lambda toks: toks[:-1]),
            ("knots0", lambda toks: toks[:1] * len(toks)),
            ("df", lambda toks: ["9"]),
            ("coef", lambda toks: toks[:-1]),
            ("df", lambda toks: ["2"]),
            ("df_grid", lambda toks: [",".join(toks[0].split(",")[::-1])]),
            ("df", lambda toks: ["x"]),
            ("coef", lambda toks: ["0xzz", *toks[1:]]),
            ("training_mse", lambda toks: ["0x1p5000"]),
        ],
        ids=[
            "nan-coef", "inf-knot", "nan-training-mse", "reversed-knots",
            "short-knots", "equal-knots", "df-over-other-knots", "short-coef",
            "df-below-degree", "decreasing-df-grid", "malformed-df", "malformed-coef",
            "overflowing-training-mse",
        ],
    )
    def test_loader_rejects_non_finite_or_decreasing_values(self, tmp_path, field, edit):
        # none describes a valid model, so loading must fail and name the file
        _, _, _, model = _fitted_pipeline(seed=14, n=900, alpha=lambda x, eta: x[:, 0])
        path = tmp_path / "model.txt"
        save_ite_model(model, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith(field + " "))
        lines[i] = " ".join([field, *edit(lines[i].split()[1:])])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ArityMismatch, match=re.escape(str(path))):
            load_ite_model(str(path))


    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: [*lines[:-1], "extra 1\n", lines[-1]],
            lambda lines: [*lines[:-1], "training_mse 0x1.0p-3\n", lines[-1]],
            lambda lines: [ln.replace("include_eta 0", "include_eta 7") for ln in lines],
            lambda lines: [ln.replace("knots0 ", "knots-1 ") for ln in lines],
            lambda lines: [ln.replace("knots2 ", "knots7 ") for ln in lines],
            lambda lines: [lines[0], lines[2], lines[1], *lines[3:]],
            lambda lines: [*lines[:3], "\n", *lines[3:]],
            lambda lines: [*lines[:-1], "coef " + "  ".join(lines[-1].split()[1:]) + "\n"],
            lambda lines: [ln.replace(",", ", ") for ln in lines],
            lambda lines: [re.sub("^df ", "df 0", ln) for ln in lines],
            lambda lines: [*lines[:-1], lines[-1].rstrip("\n")],
            lambda lines: [*lines[:-1], _first_coef_in_decimal(lines[-1])],
        ],
        ids=["unknown-key", "repeated-key", "include-eta-7", "knots-minus-1", "knots-gap",
             "reordered", "blank-line", "two-spaces-in-coef", "spaced-df-grid", "df-03",
             "no-final-newline", "decimal-coef"],
    )
    def test_loader_takes_only_the_lines_the_writer_writes(self, tmp_path, edit):
        # each of these files used to load: unknown keys were ignored, the last
        # repeat won, any integer was a bool, knot lines were sorted by suffix,
        # blank lines were skipped, int() and split() forgave spacing and zeros,
        # and float.fromhex read a decimal coefficient as hex, to another value
        _, _, _, model = _fitted_pipeline(seed=14, n=900, alpha=lambda x, eta: x[:, 0])
        path = tmp_path / "model.txt"
        save_ite_model(model, str(path))
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert [ln.split()[0] for ln in lines[1:]] == [
            "degree", "df", "df_grid", "include_eta", "interactions", "training_mse",
            "knots0", "knots1", "knots2", "coef",
        ]
        path.write_text("".join(edit(lines)), encoding="utf-8")
        with pytest.raises(ArityMismatch, match=re.escape(str(path))):
            load_ite_model(str(path))

    def test_a_differing_line_is_named_with_the_writers_text(self, tmp_path):
        _, _, _, model = _fitted_pipeline(seed=14, n=900, alpha=lambda x, eta: x[:, 0])
        path = tmp_path / "model.txt"
        save_ite_model(model, str(path))
        text = path.read_text(encoding="utf-8")
        line = f"df {model.basis.df}\n"
        assert text.count(f"\n{line}") == 1
        path.write_text(text.replace(f"\n{line}", f"\ndf 0{line[3:]}"), encoding="utf-8")
        named = re.escape(f"{path}: line 3 ") + ".*" + re.escape(repr(line))
        with pytest.raises(ArityMismatch, match=named):
            load_ite_model(str(path))

    def test_crlf_copy_loads_the_same_model(self, tmp_path):
        # a file the writer wrote on Windows; text mode reads any newline convention
        alpha = lambda x, eta: x[:, 0] ** 2 + eta
        _, _, _, model = _fitted_pipeline(seed=13, n=900, alpha=alpha, include_eta=True)
        path = tmp_path / "model.txt"
        save_ite_model(model, str(path))
        data = path.read_bytes()
        assert b"\r" not in data
        path.write_bytes(data.replace(b"\n", b"\r\n"))
        loaded = load_ite_model(str(path))
        assert loaded.basis == model.basis
        assert loaded.coef.tobytes() == model.coef.tobytes()
        assert loaded.training_mse.hex() == model.training_mse.hex()
        assert [k.tobytes() for k in loaded.knots] == [k.tobytes() for k in model.knots]

    def test_non_utf8_file_names_path_and_offset(self, tmp_path):
        _, _, _, model = _fitted_pipeline(seed=14, n=900, alpha=lambda x, eta: x[:, 0])
        path = tmp_path / "model.txt"
        save_ite_model(model, str(path))
        data = path.read_bytes()
        at = data.index(b"\ncoef ") + 1
        path.write_bytes(data[:at] + b"\xff" + data[at:])
        with pytest.raises(ArityMismatch, match=re.escape(f"{path}: byte {at} ")):
            load_ite_model(str(path))
        with pytest.raises(FileNotFoundError):
            load_ite_model(str(tmp_path / "missing.txt"))

    def test_loader_rejects_other_files(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("threshmatch-ite-model v2\ndegree 3\n", encoding="utf-8")
        with pytest.raises(ArityMismatch, match="not a threshmatch ITE model file"):
            load_ite_model(str(path))

    def test_model_needs_a_df(self):
        with pytest.raises(ArityMismatch, match="no df"):
            IteModel(basis=SplineBasisSpec(), knots=[], coef=np.zeros(1), training_mse=0.0)


class TestSpecValidation:
    def test_grid_must_be_increasing_and_above_degree(self):
        from threshmatch import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            SplineBasisSpec(df_grid=(5, 3))
        with pytest.raises(DimensionMismatch):
            SplineBasisSpec(df_grid=(2, 4))
        with pytest.raises(DimensionMismatch):
            SplineBasisSpec(df_grid=())
        # dfs are whole numbers: a fractional one is not truncated to another df
        with pytest.raises(DimensionMismatch, match="df_grid entry"):
            SplineBasisSpec(df_grid=(3.7, 4.2))
        with pytest.raises(DimensionMismatch, match="df must be an integer"):
            SplineBasisSpec(df=4.5)
        assert SplineBasisSpec(df_grid=(np.int64(3), np.int32(5)), df=np.int64(4)).df_grid == (3, 5)
