"""Dense damped least squares and the damped Gauss-Newton direction solve.

Both solve small damped normal equations with numpy's LAPACK solver, an
LU factorization with partial pivoting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

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

    Solves the damped normal equations with ``np.linalg.solve``.
    ``damping=None`` selects ``1e-8`` times the mean diagonal of the Gram
    matrix.  With ``damping == 0`` an eigenvalue check first decides
    whether the Gram matrix is numerically singular; a singular undamped
    system, a failed solve or a non-finite solution falls back to the
    minimum-norm ``lstsq`` solution.  A damped system skips the eigenvalue
    check.  ``design`` is (n, m) with m >= 1, ``target`` is (n,) and
    ``damping`` is >= 0; only finiteness is checked here.
    """
    if not (np.isfinite(design).all() and np.isfinite(target).all()):
        raise NumericError("non-finite entries in least-squares inputs")

    gram = design.T @ design
    rhs = design.T @ target
    if damping is None:
        damping = DEFAULT_DAMPING_SCALE * _mean_diagonal(gram)

    beta = None
    if damping > 0.0 or not _numerically_singular(gram):
        # A view of the diagonal: the product gram is C-contiguous.
        gram.reshape(-1)[:: gram.shape[0] + 1] += damping
        beta = _solve(gram, rhs)
    if beta is None:
        # Undamped singular system, failed solve or non-finite solution:
        # take the minimum-norm solution.
        beta = np.linalg.lstsq(design, target, rcond=None)[0]
        if not np.isfinite(beta).all():
            raise NumericError(
                "least-squares solve produced non-finite values"
            )
    residual = target - design @ beta
    return LsSolution(
        coefficients=beta, sse=float(residual @ residual), residual=residual
    )


def _mean_diagonal(gram: np.ndarray) -> float:
    """Mean diagonal entry of ``gram``, equal to ``np.mean(np.diag(gram))``."""
    return float(np.add.reduce(gram.diagonal()) / gram.shape[0])


def _solve(system: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solution of ``system x = rhs``, or ``None`` when LAPACK finds the
    system singular or the solution is not finite."""
    try:
        solution = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        return None
    return solution if np.isfinite(solution).all() else None


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
    (J'J + damping I) delta = J' residuals.  The damping escalates tenfold
    when the solve fails or its solution is not finite; ``None`` signals
    failure after all escalations, or a non-finite J'J or J' residuals.
    """
    gram = jacobian.T @ jacobian
    rhs = jacobian.T @ residuals
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        return None
    damping = DEFAULT_DAMPING_SCALE * max(_mean_diagonal(gram), 1e-12)
    diagonal = gram.reshape(-1)[:: gram.shape[0] + 1]
    diagonal += damping
    for _ in range(_MAX_ESCALATIONS + 1):
        delta = _solve(gram, rhs)
        if delta is not None:
            return delta
        # Raise the damping already added to ten times itself.
        diagonal += 9.0 * damping
        damping *= 10.0
    return None
