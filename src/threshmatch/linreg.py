"""Dense least squares via Householder QR.

Every regression in the package routes through :func:`ols`: the score
regression, the first-difference coefficient fit, and the spline-basis fit.
No intercept is ever added implicitly; callers append a constant column
when their model has one.

The triangular solve ``R coef = Q^T b`` is a row-oriented back
substitution in numpy, so estimation never imports SciPy, whose import
was the larger part of a cold CLI start.  Up to 64 columns it yields the
same bits as ``scipy.linalg.solve_triangular`` with OpenBLAS, which kept
fixed-seed outputs bit-identical when it replaced that call;
``tests/test_linreg.py`` checks this on random systems.  From 65 columns
(OpenBLAS's first triangular block) the two sum in different orders, so
fits that wide (the ITE spline designs at ``d >= 6``) can differ from
``solve_triangular`` in the last bits.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NumericError, RankDeficient

RANK_TOL = 1e-10  # relative floor on |diag R|; fixed, not configurable


def ols(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimize ``||a @ coef - b||_2`` by reduced QR; deterministic.

    Returns ``coef``, a ``(p,)`` array; callers that need the residuals
    form ``b - a @ coef`` themselves.  Requires ``m >= p >= 1``.  Rank deficiency (smallest |R_jj| below
    ``RANK_TOL`` times the largest) is a hard error rather than a silent
    ridge or pseudo-inverse fallback, since a regularized score fit would
    bias every residual downstream.  Finite inputs whose projection
    ``Q^T b`` overflows raise :class:`NumericError` as well.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatch(f"design must be 2-D, got {a.ndim}-D")
    if b.ndim != 1:
        raise DimensionMismatch(f"response must be 1-D, got {b.ndim}-D")
    m, p = a.shape
    if b.shape[0] != m:
        raise DimensionMismatch(f"design has {m} rows but response has {b.shape[0]}")
    if p < 1:
        raise DimensionMismatch("design needs at least one column")
    if m < p:
        raise DimensionMismatch(f"need at least as many rows ({m}) as columns ({p})")

    q_mat, r_mat = np.linalg.qr(a, mode="reduced")
    diag = np.abs(np.diag(r_mat))
    tol = RANK_TOL * diag.max() if diag.size else 0.0
    p_effective = int(np.sum(diag > tol))
    if p_effective < p:
        raise RankDeficient(p_effective, p)

    qtb = q_mat.T @ b
    if not np.isfinite(qtb).all():
        raise NumericError("least-squares fit overflowed: Q^T b is not finite")
    coef = np.empty(p)
    for k in range(p - 1, -1, -1):
        coef[k] = (qtb[k] - r_mat[k, k + 1 :] @ coef[k + 1 :]) / r_mat[k, k]
    return coef
