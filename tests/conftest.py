"""Shared test helpers: the noiseless-null generator, tiny builders, a
sample of any covariate widths in any memory layout, a discrete-score
variant of the generator and its tie-heavy design, the brute-force
matching oracle, the ``np.linalg.qr`` least-squares oracle, a
CPU-count override and a leftover-child check for the replicate runner,
a pipe to read a file's bytes from, and data files holding a field that
``csv`` cannot read."""

from __future__ import annotations

import contextlib
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from threshmatch import DgpConfig, MatchResult, NumericError, ObservationSet, RankDeficient, true_ite_fn
from threshmatch.linreg import RANK_TOL
from threshmatch.matching import _validate
from threshmatch.rng import rng_from
from threshmatch.simulate import _draw, _outcome

FIXTURES = Path(__file__).parent / "fixtures"

NULL_BETA = np.array([2.0, -1.0, 0.5])
NULL_GAMMA = np.array([0.0, 0.0, 0.0, 1.0])


def make_null_obs(seed: int, n: int = 300) -> ObservationSet:
    """Noiseless-null sample: zero treatment effect, zero confounder term,
    zero outcome noise, so ``y = x @ beta`` exactly while the score keeps
    its own residual (``q = z @ gamma + eta``)."""
    rng = np.random.default_rng(seed)
    covs = rng.standard_normal((n, 4))
    eta = rng.uniform(-1.0, 1.0, size=n)
    q = covs @ NULL_GAMMA + eta
    x = covs[:, :3]
    y = x @ NULL_BETA
    return ObservationSet(y=y, x=x, z=covs, q=q, tau0=0.0)


def make_pl_obs(
    seed: int,
    n: int,
    beta: np.ndarray,
    ell=None,
    alpha=None,
    eps_sd: float = 0.0,
) -> ObservationSet:
    """Small partially-linear sample with pluggable nuisance pieces.

    ``ell(eta)`` and ``alpha(x, eta)`` default to zero; ``q = z @ (0,0,0,1)
    + eta`` with four standard-normal score covariates.
    """
    rng = np.random.default_rng(seed)
    beta = np.asarray(beta, dtype=np.float64)
    covs = rng.standard_normal((n, 4))
    eta = rng.uniform(-1.0, 1.0, size=n)
    q = covs[:, 3] + eta
    x = covs[:, : beta.shape[0]]
    y = x @ beta
    if ell is not None:
        y = y + ell(eta)
    if alpha is not None:
        y = y + np.where(q >= 0.0, alpha(x, eta), 0.0)
    if eps_sd > 0:
        y = y + rng.normal(0.0, eps_sd, size=n)
    return ObservationSet(y=y, x=x, z=covs, q=q, tau0=0.0)


# memory layouts a caller may pass for x and z
LAYOUTS = ("C", "F", "row-strided", "row-reversed")


def in_layout(a: np.ndarray, layout: str) -> np.ndarray:
    """The values of ``a`` in the named memory layout."""
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "row-strided":
        # rows two apart, one column in from the left of a wider buffer
        buf = np.zeros((2 * a.shape[0], a.shape[1] + 2))
        buf[::2, 1:-1] = a
        return buf[::2, 1:-1]
    return np.ascontiguousarray(a[::-1])[::-1]  # a negative row stride


def synthetic(n: int, d_x: int, d_z: int, seed: int, layout: str = "C") -> ObservationSet:
    """A sample with ``d_x`` outcome and ``d_z`` score columns over shared draws.

    ``x`` is the first ``d_x`` and ``z`` the last ``d_z`` of ``max(d_x, d_z)``
    standard-normal columns; the effect is ``1 + x1^2 + eta^2``.
    """
    rng = np.random.default_rng(seed)
    width = max(d_x, d_z)
    covs = rng.standard_normal((n, width))
    eta = rng.uniform(-1.0, 1.0, size=n)
    noise = rng.normal(0.0, 0.5, size=n)
    x = np.ascontiguousarray(covs[:, :d_x])
    z = np.ascontiguousarray(covs[:, width - d_z :])
    q = z @ np.linspace(1.0, 0.5, d_z) + eta
    alpha = 1.0 + x[:, 0] ** 2 + eta**2
    y = alpha * (q >= 0.0) + x @ np.linspace(-1.0, 1.0, d_x) + eta / 2.0 + noise
    return ObservationSet(y=y, x=in_layout(x, layout), z=in_layout(z, layout), q=q, tau0=0.0)


def generate_discrete(config: DgpConfig) -> ObservationSet:
    """``generate`` with a discrete score: ``q`` on a 0.5 grid, ``x4`` drawn as +-1.

    It draws through the generator's own draw and outcome equation
    (``simulate._draw`` and ``simulate._outcome``), so ``x1..x3``, ``eta``
    and the noise equal ``generate``'s for the same config; ``x4`` is the
    sign of its normal draw.  Treatment is ``rounded q >= 0``, and the
    effect surface is the generator's at the latent score ``x4 + eta``,
    evaluated at ``latent - x4`` as ``true_ite_fn`` recovers it.  Matching
    on such data pairs clustered ``eta_hat`` values, the shape of a study
    whose score (a GPA's distance from a cutoff) is discrete.
    """
    rng = rng_from(config.seed)
    covs, eta = _draw(rng, config.n)
    covs[:, 3] = np.where(covs[:, 3] >= 0.0, 1.0, -1.0)
    latent = covs[:, 3] + eta
    q = np.round(2.0 * latent) / 2.0
    alpha = true_ite_fn(config.ite_kind)(covs[:, :3], covs, latent)
    y = _outcome(rng, covs, eta, alpha, q >= 0.0)
    return ObservationSet(y=y, x=covs[:, :3], z=covs, q=q, tau0=0.0)


def tie_heavy_obs(config: DgpConfig) -> ObservationSet:
    """``generate_discrete``'s columns with ``z = [x4, 1]``.

    ``x1..x3`` stay out of the score regression, so ``eta_hat`` takes a few
    values on ``q``'s grid and distinct rows tie on it in every split.
    """
    d = generate_discrete(config)
    z = np.column_stack([d.z[:, 3], np.ones(d.n)])
    return ObservationSet(y=d.y, x=d.x, z=z, q=d.q, tau0=d.tau0)


def set_cpus(monkeypatch, cpus: int) -> None:
    """Make ``os.sched_getaffinity`` grant ``cpus`` CPUs, the runner's process count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def null_obs() -> ObservationSet:
    return make_null_obs(seed=1234)


def match_controls_brute(
    eta_treated: np.ndarray,
    treated_idx: np.ndarray,
    eta_control: np.ndarray,
    control_idx: np.ndarray,
) -> MatchResult:
    """Exhaustive-scan reference implementation of ``match_controls``.

    For each treated value ``t`` it scans every control for the nearest
    value below ``t`` and the nearest value at or above it, keeps the left
    one unless the right one's rounded distance is strictly smaller, and
    then scans again for the smallest original index holding the winning
    value.
    """
    eta_treated, treated_idx, eta_control, control_idx = _validate(
        eta_treated, treated_idx, eta_control, control_idx
    )
    matched = np.empty_like(treated_idx)
    for k, t_val in enumerate(eta_treated):
        left = right = None
        for c_val in eta_control:
            if c_val < t_val:
                if left is None or c_val > left:
                    left = c_val
            elif right is None or c_val < right:
                right = c_val
        if right is None or (left is not None and abs(t_val - left) <= abs(right - t_val)):
            winner = left
        else:
            winner = right
        matched[k] = min(c_idx for c_val, c_idx in zip(eta_control, control_idx) if c_val == winner)
    return MatchResult(treated_idx=treated_idx, control_idx=matched)


def ols_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference implementation of ``ols`` through ``np.linalg.qr``.

    For a float64 ``(m, p)`` design and ``(m,)`` response with ``m >= p >=
    1``: the reduced QR, the rank check, the overflow check and the
    row-oriented back substitution, raising what ``ols`` raises.
    """
    q_mat, r_mat = np.linalg.qr(a, mode="reduced")
    diag = np.abs(np.diag(r_mat))
    p_effective = int(np.sum(diag > RANK_TOL * diag.max()))
    if p_effective < a.shape[1]:
        raise RankDeficient(p_effective, a.shape[1])
    qtb = q_mat.T @ b
    if not np.isfinite(qtb).all():
        raise NumericError("least-squares fit overflowed: Q^T b is not finite")
    coef = np.empty(a.shape[1])
    for k in range(a.shape[1] - 1, -1, -1):
        coef[k] = (qtb[k] - r_mat[k, k + 1 :] @ coef[k + 1 :]) / r_mat[k, k]
    return coef


@contextlib.contextmanager
def piped(data: bytes):
    """A ``/dev/fd`` path whose reader reads ``data`` from a pipe, as ``<(cat file)`` gives."""
    read_fd, write_fd = os.pipe()

    def write() -> None:
        with contextlib.suppress(BrokenPipeError), open(write_fd, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        yield f"/dev/fd/{read_fd}"
    finally:
        os.close(read_fd)
        writer.join()


LONG_FIELD_CASES = ["long-header-name", "unclosed-quote", "quoted", "quoted-per-cell", "unquoted-per-cell"]


def long_field_csv(case: str, bad_byte_after: bool = False) -> bytes:
    """A data file of columns ``note, y, a, b, q`` with one field longer
    than ``csv.field_size_limit()``.

    ``"long-header-name"``: the note column's name is a quoted field of
    200,000 characters.  In the others the third row's note is the long
    field.  ``"unclosed-quote"``: of 20,000 rows, the third note opens a
    quote that no later line closes, so the field runs to the end of the
    file.  ``"quoted"``: of 12 rows, the third note is a quoted field of
    200,000 characters, in a block the one-pass reader takes.
    ``"quoted-per-cell"`` adds an Arabic-Indic digit in a requested cell
    of the same block, which sends it to the per-cell reader, and
    ``"unquoted-per-cell"`` also leaves the field unquoted, so that only
    the per-cell reader's ``csv.reader`` reads it.  ``bad_byte_after``
    appends 2,000 more rows, more than a block of lines and a read chunk,
    and then a line whose next-to-last byte is not UTF-8.
    """
    rows = 20_000 if case == "unclosed-quote" else 12
    values = np.random.default_rng(3).normal(size=(rows, 4)).tolist()
    quoted = f'"{"a" * 200_000}"'
    long = {"unclosed-quote": '"open', "unquoted-per-cell": "a" * 200_000}.get(case, quoted)
    lines = [f"{quoted},y,a,b,q" if case == "long-header-name" else "note,y,a,b,q"]
    for r, row in enumerate(values):
        cells = [long if r == 2 and case != "long-header-name" else "n", *map(repr, row)]
        if case.endswith("per-cell") and r == 4:
            cells[2] = "\u0663"
        lines.append(",".join(cells))
    lines += ["n,1.0,2.0,3.0,4.0"] * 2000 if bad_byte_after else []
    return ("\n".join(lines) + "\n").encode("utf-8") + (b"caf\xe9\n" if bad_byte_after else b"")
