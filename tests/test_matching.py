import numpy as np
import pytest

from threshmatch import (
    DgpConfig,
    DimensionMismatch,
    EmptyControlGroup,
    EmptyTreatedGroup,
    MatchResult,
    NonFiniteValue,
    estimate_att,
    generate,
    match_controls,
    split_three_way,
)

from conftest import generate_discrete, match_controls_brute, tie_heavy_obs


def _random_instance(rng, ties=False):
    n1 = int(rng.integers(1, 51))
    n0 = int(rng.integers(1, 51))
    if ties:
        # values on a coarse grid so exact ties and duplicates are common
        t_vals = rng.integers(-3, 4, size=n1) / 2.0
        c_vals = rng.integers(-3, 4, size=n0) / 2.0
    else:
        t_vals = rng.standard_normal(n1)
        c_vals = rng.standard_normal(n0)
    idx = rng.permutation(n1 + n0)
    return t_vals, idx[:n1], c_vals, idx[n1:]


def assert_same_matches(fast, slow):
    assert np.array_equal(fast.treated_idx, slow.treated_idx)
    assert np.array_equal(fast.control_idx, slow.control_idx)
    for got, want in zip(fast.reuse_counts(), slow.reuse_counts()):
        assert np.array_equal(got, want)


class TestExamples:
    def test_single_control_takes_everything(self):
        res = match_controls(np.array([0.1, 0.5, -2.0]), np.array([3, 4, 5]),
                             np.array([1.0]), np.array([9]))
        assert res.treated_idx.tolist() == [3, 4, 5]
        assert res.control_idx.tolist() == [9, 9, 9]
        controls, counts = res.reuse_counts()
        assert controls.tolist() == [9] and counts.tolist() == [3]

    def test_equidistant_tie_goes_to_smaller_value(self):
        res = match_controls(np.array([0.5]), np.array([0]),
                             np.array([0.4, 0.6]), np.array([1, 2]))
        assert res.control_idx.tolist() == [1]

    def test_equal_values_tie_goes_to_control_listed_first(self):
        res = match_controls(np.array([0.5]), np.array([0]),
                             np.array([0.4, 0.4]), np.array([12, 9]))
        assert res.control_idx.tolist() == [12]

    def test_exact_match_beats_tie_rule(self):
        res = match_controls(np.array([0.4]), np.array([0]),
                             np.array([0.3, 0.4, 0.5]), np.array([1, 2, 3]))
        assert res.control_idx.tolist() == [2]

    @pytest.mark.parametrize("match", [match_controls, match_controls_brute])
    def test_same_side_rounding_tie_takes_nearer_control(self, match):
        # both distances round to 2.0; the nearest control on the left wins
        res = match(np.array([1.0]), np.array([0]),
                    np.array([-1.0000000000000002, -0.9999999999999999]), np.array([0, 1]))
        assert res.control_idx.tolist() == [1]

    def test_index_arrays_are_intp(self):
        res = match_controls(np.array([0.1]), [4], np.array([0.2]), [7])
        assert res.treated_idx.dtype == np.intp
        assert res.control_idx.dtype == np.intp


class TestOracleEquivalence:
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_brute_force(self, ties):
        rng = np.random.default_rng(1 if ties else 2)
        for _ in range(250):
            t_vals, t_idx, c_vals, c_idx = _random_instance(rng, ties=ties)
            fast = match_controls(t_vals, t_idx, c_vals, c_idx)
            slow = match_controls_brute(t_vals, t_idx, c_vals, c_idx)
            assert_same_matches(fast, slow)

    def test_ascending_controls_tie_to_the_smallest_index(self):
        # a pipeline run lists a split's controls ascending, as
        # SplitAssignment stores them, so there the smallest index holding
        # the winning value wins
        rng = np.random.default_rng(1)
        for _ in range(250):
            t_vals, t_idx, c_vals, c_idx = _random_instance(rng, ties=True)
            c_idx = np.sort(c_idx)
            res = match_controls(t_vals, t_idx, c_vals, c_idx)
            assert_same_matches(res, match_controls_brute(t_vals, t_idx, c_vals, c_idx))
            value_of = dict(zip(c_idx.tolist(), c_vals.tolist()))
            for c in res.control_idx.tolist():
                assert c == min(i for i in value_of if value_of[i] == value_of[c])


class TestAdversarialDistributions:
    def test_matches_brute_on_hostile_value_patterns(self):
        rng = np.random.default_rng(424242)
        for trial in range(500):
            kind = trial % 5
            n1 = int(rng.integers(1, 40))
            n0 = int(rng.integers(1, 40))
            if kind == 0:  # all controls identical
                c = np.full(n0, 1.5)
                t = rng.standard_normal(n1)
            elif kind == 1:  # huge magnitudes
                c = rng.standard_normal(n0) * 1e12
                t = rng.standard_normal(n1) * 1e12
            elif kind == 2:  # gaps at the ulp scale
                c = 1.0 + rng.integers(0, 5, n0) * 1e-15
                t = 1.0 + rng.integers(0, 5, n1) * 1e-15
            elif kind == 3:  # exact integers, heavy ties
                c = rng.integers(-2, 3, n0).astype(float)
                t = rng.integers(-2, 3, n1).astype(float)
            else:  # mixed signs clustered near zero
                c = np.concatenate(
                    [rng.uniform(-1, 0, n0 // 2 + 1), rng.uniform(0, 1, n0 - n0 // 2 - 1)]
                )[:n0]
                t = rng.uniform(-0.5, 0.5, n1)
            idx = rng.permutation(n1 + n0)
            fast = match_controls(t, idx[:n1], c, idx[n1:])
            slow = match_controls_brute(t, idx[:n1], c, idx[n1:])
            assert_same_matches(fast, slow)

    def test_matches_brute_on_layouts_the_fast_path_reorders(self):
        # the fast path sorts the controls by value, takes a per-run minimum of
        # their indices, searches the treated values in ascending order and
        # scatters the winners back; each case below stresses one of those steps
        rng = np.random.default_rng(777)
        for trial in range(400):
            kind = trial % 4
            n1 = int(rng.integers(1, 40))
            n0 = int(rng.integers(1, 40))
            if kind == 0:  # signed zeros mixed into one equal-value run
                c = rng.choice([-0.0, 0.0, -0.5, 0.5], n0)
                t = rng.choice([-0.0, 0.0, -0.25, 0.25, 1.0], n1)
            elif kind == 1:  # treated duplicates, in descending order
                t = np.sort(rng.integers(-3, 4, n1) / 2.0)[::-1].copy()
                c = rng.integers(-3, 4, n0) / 2.0
            elif kind == 2:  # equal-value runs at both ends of the sorted controls
                k = int(rng.integers(0, n0 + 1))
                c = np.concatenate(
                    [np.full(k, -2.0), rng.uniform(-1.0, 1.0, n0 - k)]
                )
                c[rng.random(n0) < 0.3] = 2.0
                t = rng.choice([-3.0, -2.0, -1.5, 0.0, 1.5, 2.0, 3.0], n1)
            else:  # continuous values, integer runs
                c = rng.integers(-2, 3, n0).astype(float)
                t = rng.standard_normal(n1) * 2.0
            # control indices in unsorted order, far from 0..n-1
            idx = rng.permutation(n1 + n0) * 1000 + int(rng.integers(0, 1000))
            fast = match_controls(t, idx[:n1], c, idx[n1:])
            slow = match_controls_brute(t, idx[:n1], c, idx[n1:])
            assert_same_matches(fast, slow)

    def test_signed_zero_run_takes_control_listed_first(self):
        res = match_controls(np.array([0.0, -0.0, 1e-300]), np.array([0, 1, 2]),
                             np.array([0.0, -0.0, 0.0]), np.array([8, 3, 5]))
        assert res.control_idx.tolist() == [8, 8, 8]


class TestProperties:
    def test_optimality(self):
        rng = np.random.default_rng(3)
        t_vals, t_idx, c_vals, c_idx = _random_instance(rng)
        res = match_controls(t_vals, t_idx, c_vals, c_idx)
        value_of = dict(zip(c_idx.tolist(), c_vals.tolist()))
        for c, t_val in zip(res.control_idx.tolist(), t_vals):
            best = abs(t_val - value_of[c])
            assert all(best <= abs(t_val - v) for v in c_vals)

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            t_vals, t_idx, c_vals, c_idx = _random_instance(rng)
            base = match_controls(t_vals, t_idx, c_vals, c_idx)
            shifted = match_controls(t_vals + 3.25, t_idx, c_vals + 3.25, c_idx)
            scaled = match_controls(t_vals * 7.5, t_idx, c_vals * 7.5, c_idx)
            assert np.array_equal(shifted.control_idx, base.control_idx)
            assert np.array_equal(scaled.control_idx, base.control_idx)

    def test_k_counts_sum_to_treated_count(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t_vals, t_idx, c_vals, c_idx = _random_instance(rng)
            res = match_controls(t_vals, t_idx, c_vals, c_idx)
            controls, counts = res.reuse_counts()
            assert counts.sum() == len(t_vals)
            assert np.all(np.isin(controls, c_idx))
            assert len(res.control_idx) == len(t_vals)
            assert np.array_equal(res.treated_idx, t_idx)

    def test_reuse_counts_equal_unique_with_counts(self):
        # one sort and its run starts give np.unique's controls and counts,
        # values and dtypes, on random, grid-tied and discrete-score matches
        rng = np.random.default_rng(6)
        results = [match_controls(*_random_instance(rng, ties)) for ties in (False, True) * 20]
        for make in (generate, generate_discrete, tie_heavy_obs):
            obs = make(DgpConfig(n=3000, seed=2))
            results.append(estimate_att(obs, split_three_way(obs.n, seed=2)).matches)
        empty = np.empty(0, dtype=np.intp)
        results.append(MatchResult(empty, empty))
        for res in results:
            got, want = res.reuse_counts(), np.unique(res.control_idx, return_counts=True)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype == np.intp
                assert np.array_equal(g, w)
        assert results[-2].reuse_counts()[1].max() > 100  # tie-heavy: one control serves many

    def test_empty_groups_raise(self):
        with pytest.raises(EmptyControlGroup):
            match_controls(np.array([1.0]), np.array([0]), np.array([]), np.array([], dtype=int))
        with pytest.raises(EmptyTreatedGroup):
            match_controls(np.array([]), np.array([], dtype=int), np.array([1.0]), np.array([0]))
        with pytest.raises(EmptyControlGroup):
            match_controls_brute(np.array([1.0]), np.array([0]), np.array([]), np.array([], dtype=int))

    @pytest.mark.parametrize("match", [match_controls, match_controls_brute])
    def test_treated_length_mismatch_raises(self, match):
        with pytest.raises(DimensionMismatch, match="treated"):
            match(np.array([0.1, 0.2]), np.array([3]), np.array([1.0]), np.array([9]))
        with pytest.raises(DimensionMismatch, match="treated"):
            match(np.array([[0.1, 0.2]]), np.array([[3, 4]]), np.array([1.0]), np.array([9]))

    @pytest.mark.parametrize("match", [match_controls, match_controls_brute])
    def test_control_length_mismatch_raises(self, match):
        with pytest.raises(DimensionMismatch, match="control"):
            match(np.array([0.1]), np.array([3]), np.array([1.0, 2.0]), np.array([9]))
        with pytest.raises(DimensionMismatch, match="control"):
            match(np.array([0.1]), np.array([3]), np.array(1.0), np.array(9))

    @pytest.mark.parametrize("match", [match_controls, match_controls_brute])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "plus-inf", "minus-inf"])
    @pytest.mark.parametrize("side", ["treated", "control"])
    def test_non_finite_value_raises(self, match, bad, side):
        # a NaN treated value used to match the largest control silently,
        # and an infinite one printed a RuntimeWarning and gave any pair
        treated, controls = np.array([0.1, 0.2]), np.array([-1.0, 0.0, 1.0])
        values = treated if side == "treated" else controls
        values[1:] = bad  # rows 11 and up (treated) or 21 and up (controls) are bad
        with pytest.raises(NonFiniteValue, match=f"eta_{side}") as err:
            match(treated, np.array([10, 11]), controls, np.array([20, 21, 22]))
        assert err.value.row == (11 if side == "treated" else 21)
