"""Dense least squares via Householder QR.

Every regression in the package routes through :func:`ols`: the score
regression, the first-difference coefficient fit, and the spline-basis fit.
No intercept is ever added implicitly; callers append a constant column
when their model has one.

The QR is LAPACK's: ``dgeqrf`` factors the design and ``dorgqr`` forms the
reduced ``Q``, both called in place through ``numpy.linalg.lapack_lite``
on the design in column-major order.  These are the routines, from the
same OpenBLAS library, that ``np.linalg.qr(a, mode="reduced")`` calls,
with the same arguments and the same workspace sizes (``max(1, p)`` or
LAPACK's own workspace query, whichever is larger; the size decides
whether the blocked code runs, from 129 columns).  ``np.linalg.qr``
copies the design into and out of column-major order around each call.
:func:`ols` copies it in once, unless the caller passes ``overwrite_a``
with a writable, F-contiguous float64 design: that one is factored where
it lies.  Every fit in the package does: the score and difference fits
gather their rows straight into that layout, and the spline fits of
:mod:`threshmatch.ite` evaluate their basis into it.  ``R`` and ``Q``
are then copied out in
the row-major layouts ``np.linalg.qr`` returns, so the projection ``Q^T
b`` and the back substitution run the same BLAS kernels and every bit
equals a fit through ``np.linalg.qr``; ``tests/test_linreg.py`` checks
this against that fit.  Unlike numpy's QR, ``lapack_lite`` holds the GIL
while LAPACK runs, so another Python thread waits for the factorization.

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
from numpy.linalg import lapack_lite

from .errors import DimensionMismatch, NumericError, RankDeficient

RANK_TOL = 1e-10  # relative floor on |diag R|; fixed, not configurable


def _lapack(routine, qt: np.ndarray, tau: np.ndarray, *k: int) -> None:
    """Run ``dgeqrf`` (``k`` empty) or ``dorgqr`` (``k = (p,)``) in place on ``qt``.

    ``qt`` is a C-ordered ``(p, m)`` float64 array, an ``m x p`` matrix in
    column-major order, and ``tau`` its ``(p,)`` reflector scales.
    ``lapack_lite`` checks only dtypes and contiguity, so the sizes come
    from ``qt`` itself.  A workspace query comes first, and the workspace
    is sized as ``np.linalg.qr`` sizes it.
    """
    p, m = qt.shape
    query = np.zeros(1)
    routine(m, p, *k, qt, m, tau, query, -1, 0)
    work = np.zeros(max(1, p, int(query[0])))
    info = routine(m, p, *k, qt, m, tau, work, work.size, 0)["info"]
    if info != 0:
        raise NumericError(f"LAPACK QR routine failed with info {info}")


def ols(a: np.ndarray, b: np.ndarray, *, overwrite_a: bool = False) -> np.ndarray:
    """Minimize ``||a @ coef - b||_2`` by reduced QR; deterministic.

    Returns ``coef``, a ``(p,)`` array; callers that need the residuals
    form ``b - a @ coef`` themselves.  Requires ``m >= p >= 1``.  Rank deficiency (smallest |R_jj| below
    ``RANK_TOL`` times the largest) is a hard error rather than a silent
    ridge or pseudo-inverse fallback, since a regularized score fit would
    bias every residual downstream.  Finite inputs whose projection
    ``Q^T b`` overflows raise :class:`NumericError` as well.  ``b`` is
    only read, and so is ``a`` unless ``overwrite_a`` is set and ``a`` is
    a writable, F-contiguous float64 array: then LAPACK factors it in
    place, and its values are lost.  Any other ``a`` is copied, and the
    flag never changes the result's bits.
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

    qt = a.T  # a in column-major order, factored in place
    if not (overwrite_a and qt.flags.c_contiguous and qt.flags.writeable):
        qt = qt.copy()
    tau = np.zeros(p)
    _lapack(lapack_lite.dgeqrf, qt, tau)
    r_mat = qt[:, :p].T.copy()  # R in its upper triangle; the reflectors below are never read
    diag = np.abs(np.diag(r_mat))
    tol = RANK_TOL * diag.max()
    p_effective = int(np.sum(diag > tol))
    if p_effective < p:
        raise RankDeficient(p_effective, p)

    _lapack(lapack_lite.dorgqr, qt, tau, p)
    q_mat = qt.T.copy()
    qtb = q_mat.T @ b
    if not np.isfinite(qtb).all():
        raise NumericError("least-squares fit overflowed: Q^T b is not finite")
    coef = np.empty(p)
    for k in range(p - 1, -1, -1):
        coef[k] = (qtb[k] - r_mat[k, k + 1 :] @ coef[k + 1 :]) / r_mat[k, k]
    return coef
