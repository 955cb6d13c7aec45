import numpy as np
import pytest

from threshmatch import DimensionMismatch, NumericError, RankDeficient, ols


def test_constant_fit():
    a = np.ones((3, 1))
    b = np.array([2.0, 2.0, 2.0])
    coef = ols(a, b)
    assert coef == pytest.approx([2.0])
    assert b - a @ coef == pytest.approx([0.0, 0.0, 0.0], abs=1e-14)


def test_exactly_consistent_system():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0, 3.0])
    coef = ols(a, b)
    assert coef == pytest.approx([1.0, 2.0], abs=1e-12)
    assert np.abs(b - a @ coef).max() < 1e-12


def test_overdetermined_matches_normal_equation_oracle():
    # expected values solved by hand from the 2x2 normal equations:
    # [[4,10],[10,30]] c = [28,77]  ->  c = (3.5, 1.4)
    a = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
    b = np.array([6.0, 5.0, 7.0, 10.0])
    assert ols(a, b) == pytest.approx([3.5, 1.4], abs=1e-12)


def test_recovers_span_coefficients():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(5, 40))
        p = int(rng.integers(1, min(m, 6) + 1))
        a = rng.standard_normal((m, p))
        v = rng.standard_normal(p)
        coef = ols(a, a @ v)
        assert np.abs(coef - v).max() <= 1e-10 * (1 + np.abs(v).max())


def test_residual_orthogonality_on_random_systems():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        m = int(rng.integers(3, 30))
        p = int(rng.integers(1, min(m, 5) + 1))
        a = rng.standard_normal((m, p))
        b = rng.standard_normal(m)
        residuals = b - a @ ols(a, b)
        scale = 1 + np.abs(a).max() * np.abs(b).max()
        assert np.abs(a.T @ residuals).max() <= 1e-8 * scale


def test_row_permutation_invariance():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((20, 3))
    b = rng.standard_normal(20)
    base = ols(a, b)
    for _ in range(10):
        perm = rng.permutation(20)
        permuted = ols(a[perm], b[perm])
        assert np.abs(permuted - base).max() <= 1e-10 * (1 + np.abs(base).max())


def test_rank_deficient_raises():
    a = np.column_stack([np.ones(5), np.ones(5) * 2.0])
    with pytest.raises(RankDeficient) as err:
        ols(a, np.arange(5.0))
    assert err.value.p_effective == 1


def test_dimension_errors():
    with pytest.raises(DimensionMismatch):
        ols(np.ones((2, 3)), np.ones(2))  # more columns than rows
    with pytest.raises(DimensionMismatch):
        ols(np.ones((3, 1)), np.ones(4))  # row mismatch
    with pytest.raises(DimensionMismatch):
        ols(np.ones(3), np.ones(3))  # 1-D design
    with pytest.raises(DimensionMismatch, match="response must be 1-D"):
        ols(np.ones((3, 1)), np.ones((3, 1)))
    with pytest.raises(DimensionMismatch, match="at least one column"):
        ols(np.ones((3, 0)), np.ones(3))


def test_bits_match_solve_triangular_on_the_same_qr():
    # ols solves R coef = Q^T b in numpy; up to 64 columns that must equal
    # scipy's solve bit for bit, or fixed-seed outputs would drift
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(64)
    for p in range(1, 65):
        for _ in range(6):
            m = p + int(rng.integers(0, 40))
            a = rng.standard_normal((m, p)) * rng.uniform(0.1, 100.0, size=p)
            b = rng.standard_normal(m)
            q_mat, r_mat = np.linalg.qr(a, mode="reduced")
            expected = solve_triangular(r_mat, q_mat.T @ b, lower=False)
            assert ols(a, b).tobytes() == expected.tobytes(), p


def test_overflowing_response_is_a_numeric_error():
    # finite inputs whose projection overflows must not yield inf coefficients
    a = np.column_stack([np.ones(5), np.arange(5.0)])
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        ols(a, np.full(5, 1.7e308))
