import contextlib
import threading

import numpy as np
import pytest

from threshmatch import DimensionMismatch, NumericError, RankDeficient, ols
from threshmatch.parallel import _one_blas_thread

from conftest import LAYOUTS, in_layout, ols_reference


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


def _system(rng, m, p):
    a = rng.standard_normal((m, p)) * rng.uniform(0.1, 100.0, size=p)
    return a, rng.standard_normal(m)


def _layout(a, k):
    """``a`` in the k-th of the caller layouts and a read-only copy, in turn."""
    layouts = (*LAYOUTS, "read-only")
    if layouts[k % len(layouts)] == "read-only":
        a = a.copy()
        a.setflags(write=False)
        return a
    return in_layout(a, layouts[k % len(layouts)])


BLAS_THREADS = {"default": contextlib.nullcontext, "one": _one_blas_thread}


@pytest.mark.parametrize("blas", sorted(BLAS_THREADS))
def test_bits_equal_the_np_linalg_qr_fit(blas):
    # ols calls np.linalg.qr's LAPACK routines in place; from 129 columns
    # they take their blocked path, where the workspace size matters
    rng = np.random.default_rng(129)
    with BLAS_THREADS[blas]():
        for k, p in enumerate([*range(1, 66), *range(129, 201)]):
            m = int(np.exp(rng.uniform(np.log(p), np.log(5000))))
            a, b = _system(rng, m, p)
            assert ols(_layout(a, k), b).tobytes() == ols_reference(a, b).tobytes(), (p, m)
        a, b = _system(rng, 300_000, 4)
        assert ols(a, b).tobytes() == ols_reference(a, b).tobytes()


def _raised(fn, a, b):
    with np.errstate(over="ignore"), pytest.raises(Exception) as err:
        fn(a, b)
    return type(err.value), str(err.value)


@pytest.mark.parametrize("p", [2, 5, 130])
def test_errors_equal_the_np_linalg_qr_fit(p):
    rng = np.random.default_rng(p)
    a, b = _system(rng, 3 * p, p)
    a[:, -1] = 2.0 * a[:, 0]  # rank deficient
    assert _raised(ols, a, b) == _raised(ols_reference, a, b)
    assert _raised(ols, a, b)[0] is RankDeficient
    a, _ = _system(rng, 3 * p, p)
    a[:, 0] = 1.0
    b = np.full(3 * p, 1.7e308)  # Q^T b's first entry is sqrt(3p) * 1.7e308
    assert _raised(ols, a, b) == _raised(ols_reference, a, b)
    assert _raised(ols, a, b)[0] is NumericError


def test_inputs_are_only_read():
    # overwrite_a factors only a writable F-contiguous design in place
    rng = np.random.default_rng(3)
    for layout in (*LAYOUTS, "read-only F"):
        a, b = _system(rng, 50, 4)
        a = np.asfortranarray(a) if layout == "read-only F" else in_layout(a, layout)
        a.setflags(write=layout != "read-only F")
        before = a.tobytes(), b.tobytes()
        ols(a, b)
        assert (a.tobytes(), b.tobytes()) == before, layout
        if layout != "F":
            ols(a, b, overwrite_a=True)
            assert (a.tobytes(), b.tobytes()) == before, layout


@pytest.mark.parametrize("p", [1, 4, 47, 70])
@pytest.mark.parametrize("order", ["C", "F"])
def test_a_fit_in_place_gives_the_bits_of_a_copied_fit(p, order):
    rng = np.random.default_rng(p)
    a, b = _system(rng, 3 * p + 40, p)
    expected = ols(a, b)
    design = np.array(a, order=order)
    assert ols(design, b, overwrite_a=True).tobytes() == expected.tobytes()
    # an F-contiguous design (a one-column C array is one too) was the workspace
    assert (design.tobytes() == a.tobytes()) == (order == "C" and p > 1)


def test_two_threads_give_the_serial_bits():
    rng = np.random.default_rng(2)
    systems = [[_system(rng, 20_000, p) for p in (3, 7, 40)] for _ in range(2)]
    serial = [[ols(a, b).tobytes() for a, b in thread] for thread in systems]
    results = [[], []]
    start = threading.Barrier(2)

    def fit(j):
        start.wait()
        for _ in range(5):
            results[j].append([ols(a, b).tobytes() for a, b in systems[j]])

    threads = [threading.Thread(target=fit, args=(j,)) for j in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert results == [[serial[0]] * 5, [serial[1]] * 5]
