"""Dense damped least squares and a sphere-constrained Gauss-Newton step."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericError

# Damping scale relative to the mean diagonal of the Gram matrix.
DEFAULT_DAMPING_SCALE = 1e-8

# How many times the Gauss-Newton damping is escalated (x10) before the
# step is declared failed.
_MAX_ESCALATIONS = 6


@dataclass
class LsSolution:
    coefficients: np.ndarray
    sse: float


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
    """
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    if design.ndim != 2 or target.ndim != 1 or design.shape[0] != target.shape[0]:
        raise ValueError("design must be (n, m) and target (n,)")
    if design.shape[0] < 1 or design.shape[1] < 1:
        raise ValueError("design must have at least one row and one column")
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(target))):
        raise NumericError("non-finite entries in least-squares inputs")
    if damping is not None and damping < 0.0:
        raise ValueError("damping must be >= 0")

    gram = design.T @ design
    rhs = design.T @ target
    if damping is None:
        damping = DEFAULT_DAMPING_SCALE * float(np.mean(np.diag(gram)))

    m = gram.shape[0]
    beta = None
    if damping > 0.0 or not _numerically_singular(gram):
        system = gram + damping * np.eye(m)
        try:
            # design and target are checked finite above; a non-finite
            # solution is caught below.
            factor = scipy.linalg.cho_factor(
                system, lower=True, check_finite=False
            )
            beta = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
        except scipy.linalg.LinAlgError:
            pass
    if beta is None:
        # Undamped singular system or failed factorization: take the
        # minimum-norm solution.
        beta = np.linalg.lstsq(design, target, rcond=None)[0]
    if not np.all(np.isfinite(beta)):
        raise NumericError("least-squares solve produced non-finite values")
    residual = target - design @ beta
    return LsSolution(coefficients=beta, sse=float(residual @ residual))


def _numerically_singular(gram: np.ndarray) -> bool:
    eigs = np.linalg.eigvalsh(gram)
    largest = max(float(eigs[-1]), 0.0)
    return bool(eigs[0] <= gram.shape[0] * np.finfo(float).eps * largest)


def gauss_newton_delta(
    theta: np.ndarray,
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
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
        return None
    q = gram.shape[0]
    damping = DEFAULT_DAMPING_SCALE * max(float(np.mean(np.diag(gram))), 1e-12)
    for _ in range(_MAX_ESCALATIONS + 1):
        try:
            factor = scipy.linalg.cho_factor(
                gram + damping * np.eye(q), lower=True, check_finite=False
            )
            delta = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
            if np.all(np.isfinite(delta)):
                return delta
        except scipy.linalg.LinAlgError:
            pass
        damping *= 10.0
    return None


def gauss_newton_sphere_step(
    theta: np.ndarray,
    residuals: np.ndarray,
    jacobian: np.ndarray,
) -> np.ndarray | None:
    """One full Gauss-Newton step projected back onto the unit sphere.

    Returns the unit vector normalize(theta + delta), or ``None`` when the
    damped system stays singular and the caller should keep ``theta``.
    """
    theta = np.asarray(theta, dtype=float)
    if abs(float(theta @ theta) - 1.0) > 1e-8:
        raise ValueError("theta must be a unit vector")
    delta = gauss_newton_delta(theta, residuals, jacobian)
    if delta is None:
        return None
    candidate = theta + delta
    norm = float(np.linalg.norm(candidate))
    if norm == 0.0 or not np.isfinite(norm):
        return None
    return candidate / norm
