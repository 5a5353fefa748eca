"""Dense damped least squares and the damped Gauss-Newton direction solve."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

# LAPACK's Cholesky factor and solve, bound from scipy by ``_bind_lapack``
# on the first solve, so that a process that never solves (``eppr
# predict``) never imports scipy.
dpotrf = dpotrs = None

# Damping scale relative to the mean diagonal of the Gram matrix.
DEFAULT_DAMPING_SCALE = 1e-8

# How many times the Gauss-Newton damping is escalated (x10) before the
# step is declared failed.
_MAX_ESCALATIONS = 6


@dataclass
class LsSolution:
    """Fitted coefficients, their SSE and residual target - design b."""

    coefficients: np.ndarray
    sse: float
    residual: np.ndarray


def gram_mean_diag(design: np.ndarray) -> float:
    """Mean diagonal entry of design' design, without forming the Gram."""
    return float(np.sum(design * design) / design.shape[1])


def solve_ridge_ls(
    design: np.ndarray,
    target: np.ndarray,
    damping: float | None = None,
) -> LsSolution:
    """Minimize ||target - design b||^2 + damping ||b||^2.

    Solves the damped normal equations through a Cholesky factorization.
    ``damping=None`` selects ``1e-8`` times the mean diagonal of the Gram
    matrix.  With ``damping == 0`` an eigenvalue check first decides
    whether the Gram matrix is numerically singular; a singular undamped
    system, or any failed factorization, falls back to the minimum-norm
    ``lstsq`` solution.  A damped system skips the eigenvalue check.
    ``design`` is (n, m) with m >= 1, ``target`` is (n,) and ``damping``
    is >= 0; only finiteness is checked here.
    """
    if not (np.isfinite(design).all() and np.isfinite(target).all()):
        raise NumericError("non-finite entries in least-squares inputs")

    gram = design.T @ design
    rhs = design.T @ target
    if damping is None:
        damping = DEFAULT_DAMPING_SCALE * _mean_diagonal(gram)

    beta = None
    if damping > 0.0 or not _numerically_singular(gram):
        # design and target are checked finite above; a non-finite
        # solution is caught below.
        beta = _cholesky_solve(_damped(gram, damping), rhs)
    if beta is None:
        # Undamped singular system or failed factorization: take the
        # minimum-norm solution.
        beta = np.linalg.lstsq(design, target, rcond=None)[0]
    if not np.isfinite(beta).all():
        raise NumericError("least-squares solve produced non-finite values")
    residual = target - design @ beta
    return LsSolution(
        coefficients=beta, sse=float(residual @ residual), residual=residual
    )


def _mean_diagonal(gram: np.ndarray) -> float:
    """``np.mean(np.diag(gram))`` without numpy's wrappers: the same sum."""
    return float(np.add.reduce(gram.diagonal()) / gram.shape[0])


def _damped(gram: np.ndarray, damping: float) -> np.ndarray:
    """``gram + damping * np.eye(m)`` entry for entry, without the identity.

    Off the diagonal that sum added ``damping * 0.0``, which is 0.0 for a
    finite damping (so a -0.0 entry became 0.0) and NaN for an infinite
    one; the diagonal added ``damping * 1.0 == damping``.
    """
    system = gram + damping * 0.0
    system.reshape(-1)[:: gram.shape[0] + 1] = gram.diagonal() + damping
    return system


def _cholesky_solve(system: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve ``system x = rhs`` for a symmetric positive definite system.

    Calls LAPACK's dpotrf/dpotrs on the lower triangle: the routines that
    scipy.linalg's Cholesky factor-and-solve helpers call, without their
    per-call argument checks, so the results are bit-identical to theirs.
    Returns ``None`` where those helpers raise ``LinAlgError``, that is
    when the system is not numerically positive definite.
    """
    if dpotrf is None:
        _bind_lapack()
    factor, info = dpotrf(system, lower=1, clean=0)
    if info != 0:
        return None
    solution, info = dpotrs(factor, rhs, lower=1)
    return solution if info == 0 else None


def _bind_lapack() -> None:
    global dpotrf, dpotrs
    from scipy.linalg.lapack import dpotrf, dpotrs


def _numerically_singular(gram: np.ndarray) -> bool:
    eigs = np.linalg.eigvalsh(gram)
    largest = max(float(eigs[-1]), 0.0)
    return bool(eigs[0] <= gram.shape[0] * np.finfo(float).eps * largest)


def gauss_newton_delta(
    residuals: np.ndarray,
    jacobian: np.ndarray,
) -> np.ndarray | None:
    """Solve the damped Gauss-Newton system for the update direction.

    ``jacobian`` rows are d(fitted)/d(theta), so the normal equations read
    (J'J + damping I) delta = J' residuals.  Damping escalates tenfold on
    factorization failure; ``None`` signals failure after all escalations.
    """
    gram = jacobian.T @ jacobian
    rhs = jacobian.T @ residuals
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        return None
    damping = DEFAULT_DAMPING_SCALE * max(_mean_diagonal(gram), 1e-12)
    for _ in range(_MAX_ESCALATIONS + 1):
        delta = _cholesky_solve(_damped(gram, damping), rhs)
        if delta is not None and np.isfinite(delta).all():
            return delta
        damping *= 10.0
    return None
