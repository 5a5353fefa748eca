"""Damped least squares and the Gauss-Newton sphere step."""

import numpy as np
import pytest
import scipy.linalg

from eppr.errors import NumericError
from eppr.numerics import (
    DEFAULT_DAMPING_SCALE,
    gauss_newton_sphere_step,
    gram_mean_diag,
    solve_ridge_ls,
)
from eppr.spline import basis_deriv_matrix, basis_matrix, make_uniform_knots


class TestSolveRidgeLs:
    def test_identity_design(self) -> None:
        target = np.array([1.0, 2.0, 3.0])
        sol = solve_ridge_ls(np.eye(3), target, damping=0.0)
        np.testing.assert_allclose(sol.coefficients, target, atol=1e-12)
        assert sol.sse == pytest.approx(0.0, abs=1e-20)

    def test_duplicated_column_matches_reduced_fit(self) -> None:
        rng = np.random.default_rng(0)
        base = rng.standard_normal((40, 3))
        design = np.column_stack([base, base[:, 0]])
        target = rng.standard_normal(40)
        sol = solve_ridge_ls(design, target, damping=1e-8)
        # The damped fit must match the fit on the reduced design.
        reduced = solve_ridge_ls(base, target, damping=1e-8)
        assert sol.sse == pytest.approx(reduced.sse, rel=1e-6, abs=1e-8)

    def test_normal_equation_optimality(self) -> None:
        # At the optimum of the damped objective, the gradient
        # design'(design b - target) + damping b vanishes.
        rng = np.random.default_rng(1)
        design = rng.standard_normal((50, 10))
        target = rng.standard_normal(50)
        damping = 1e-8
        sol = solve_ridge_ls(design, target, damping=damping)
        grad = design.T @ (design @ sol.coefficients - target)
        grad += damping * sol.coefficients
        assert np.max(np.abs(grad)) < 1e-8

    def test_sse_recomputes(self) -> None:
        rng = np.random.default_rng(2)
        design = rng.standard_normal((30, 5))
        target = rng.standard_normal(30)
        sol = solve_ridge_ls(design, target)
        resid = target - design @ sol.coefficients
        assert sol.sse == pytest.approx(float(resid @ resid), rel=1e-8)

    def test_default_damping_rule(self) -> None:
        # None selects 1e-8 x mean Gram diagonal; explicit value must match.
        rng = np.random.default_rng(3)
        design = rng.standard_normal((40, 6))
        target = rng.standard_normal(40)
        auto = solve_ridge_ls(design, target)
        gram = design.T @ design
        manual = solve_ridge_ls(
            design, target, damping=1e-8 * float(np.mean(np.diag(gram)))
        )
        np.testing.assert_allclose(
            auto.coefficients, manual.coefficients, atol=1e-14
        )

    def test_damping_shrinks_norm(self) -> None:
        rng = np.random.default_rng(4)
        design = rng.standard_normal((30, 8))
        target = rng.standard_normal(30)
        norms = [
            float(np.linalg.norm(
                solve_ridge_ls(design, target, damping=d).coefficients
            ))
            for d in (0.0, 1e-4, 1e-2, 1.0)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_non_finite_rejected(self) -> None:
        with pytest.raises(NumericError):
            solve_ridge_ls(np.array([[np.nan]]), np.array([1.0]))
        with pytest.raises(NumericError):
            solve_ridge_ls(np.eye(2), np.array([1.0, np.inf]))

    def test_gram_mean_diag(self) -> None:
        rng = np.random.default_rng(5)
        design = rng.standard_normal((20, 4))
        gram = design.T @ design
        assert gram_mean_diag(design) == pytest.approx(
            float(np.mean(np.diag(gram))), rel=1e-12
        )


def reference_solve_ridge_ls(design, target, damping=None):
    """The solve before it skipped the eigenvalue check on damped systems.

    Returns (coefficients, sse, rank_deficient); inputs are trusted.
    """
    gram = design.T @ design
    rhs = design.T @ target
    if damping is None:
        damping = DEFAULT_DAMPING_SCALE * float(np.mean(np.diag(gram)))
    eigs = np.linalg.eigvalsh(gram)
    m = gram.shape[0]
    largest = max(float(eigs[-1]), 0.0)
    rank_deficient = bool(eigs[0] <= m * np.finfo(float).eps * largest)
    beta = None
    if damping > 0.0 or not rank_deficient:
        system = gram + damping * np.eye(m)
        try:
            factor = scipy.linalg.cho_factor(system, lower=True)
            beta = scipy.linalg.cho_solve(factor, rhs)
        except scipy.linalg.LinAlgError:
            rank_deficient = True
    if beta is None:
        beta = np.linalg.lstsq(design, target, rcond=None)[0]
    residual = target - design @ beta
    return beta, float(residual @ residual), rank_deficient


def random_design(rng):
    return rng.standard_normal((60, 8))


def ill_conditioned_design(rng):
    # Monomials up to degree 9 on [0, 1]: condition number above 1e6.
    return np.vander(np.sort(rng.uniform(0.0, 1.0, 60)), 10)


def duplicated_column_design(rng):
    base = rng.standard_normal((60, 4))
    return np.column_stack([base, base[:, 1]])


def spline_design(rng):
    return basis_matrix(make_uniform_knots(10, 3), rng.uniform(-1.0, 1.0, 60))


class TestLeanSolveMatchesReference:
    @pytest.mark.parametrize("make_design", [
        random_design, ill_conditioned_design, duplicated_column_design,
        spline_design,
    ])
    @pytest.mark.parametrize("damping", [None, 1e-8, 1e-3])
    def test_damped_bit_identical(self, make_design, damping) -> None:
        rng = np.random.default_rng(7)
        design = make_design(rng)
        target = rng.standard_normal(design.shape[0])
        beta, sse, _ = reference_solve_ridge_ls(design, target, damping)
        sol = solve_ridge_ls(design, target, damping)
        assert np.array_equal(sol.coefficients, beta)
        assert np.array_equal(sol.sse, sse)

    @pytest.mark.parametrize("kind", ["duplicate", "zero", "near_duplicate"])
    def test_undamped_singular_takes_lstsq(self, kind) -> None:
        # The zero column is the oga refit after a zero ridge.  The near
        # duplicate is singular to the eigenvalue check, yet Cholesky would
        # factor it and return a different answer.
        rng = np.random.default_rng(8)
        design = duplicated_column_design(rng)
        if kind == "zero":
            design[:, -1] = 0.0
        elif kind == "near_duplicate":
            design[:, -1] += 3e-8 * rng.standard_normal(design.shape[0])
        target = rng.standard_normal(design.shape[0])
        beta, sse, rank_deficient = reference_solve_ridge_ls(
            design, target, 0.0
        )
        assert rank_deficient
        sol = solve_ridge_ls(design, target, damping=0.0)
        lstsq = np.linalg.lstsq(design, target, rcond=None)[0]
        assert np.array_equal(sol.coefficients, lstsq)
        assert np.array_equal(sol.coefficients, beta)
        assert sol.sse == sse
        if kind == "zero":
            assert abs(sol.coefficients[-1]) < 1e-12
        elif kind == "duplicate":
            # Minimum norm splits the weight evenly between the copies.
            assert sol.coefficients[1] == pytest.approx(sol.coefficients[-1])

    def test_undamped_full_rank_uses_cholesky(self) -> None:
        rng = np.random.default_rng(9)
        design = random_design(rng)
        target = rng.standard_normal(design.shape[0])
        beta, sse, rank_deficient = reference_solve_ridge_ls(
            design, target, 0.0
        )
        assert not rank_deficient
        sol = solve_ridge_ls(design, target, damping=0.0)
        assert np.array_equal(sol.coefficients, beta)
        assert sol.sse == sse


class TestGaussNewtonSphereStep:
    def ridge_setup(self, theta: np.ndarray, seed: int = 0):
        """A tiny spline-ridge SSE problem with analytic Jacobian."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, (80, theta.size))
        kv = make_uniform_knots(4, 3)
        theta_true = np.zeros(theta.size)
        theta_true[0] = 1.0
        scale = 1.0 / np.sqrt(theta.size)

        def model(th):
            z = X @ th
            v = np.clip(z * scale, -1.0, 1.0)
            return v

        coeffs = np.array([0.0, 0.5, 1.0, 2.0])
        y = basis_matrix(kv, model(theta_true)) @ coeffs

        def sse_at(th):
            fitted = basis_matrix(kv, model(th)) @ coeffs
            r = y - fitted
            return float(r @ r)

        def parts(th):
            v = model(th)
            fitted = basis_matrix(kv, v) @ coeffs
            slope = basis_deriv_matrix(kv, v) @ coeffs
            jac = (slope * scale)[:, None] * X
            return y - fitted, jac

        return sse_at, parts

    def test_zero_residuals_leave_theta_fixed(self) -> None:
        theta = np.array([0.6, 0.8])
        jac = np.random.default_rng(1).standard_normal((30, 2))
        out = gauss_newton_sphere_step(theta, np.zeros(30), jac)
        np.testing.assert_allclose(out, theta, atol=1e-12)

    def test_returns_unit_vector(self) -> None:
        rng = np.random.default_rng(2)
        theta = rng.standard_normal(5)
        theta /= np.linalg.norm(theta)
        out = gauss_newton_sphere_step(
            theta, rng.standard_normal(40), rng.standard_normal((40, 5))
        )
        assert abs(float(out @ out) - 1.0) < 1e-12

    def test_one_dimensional_sign(self) -> None:
        # q = 1: the step lands on +1 or -1 along the descent direction.
        theta = np.array([1.0])
        jac = np.ones((10, 1))
        residuals = np.full(10, -5.0)  # fitted too high: push theta down
        out = gauss_newton_sphere_step(theta, residuals, jac)
        assert out[0] == -1.0
        out_up = gauss_newton_sphere_step(theta, np.full(10, 5.0), jac)
        assert out_up[0] == 1.0

    def test_step_reduces_sse_near_optimum(self) -> None:
        sse_at, parts = self.ridge_setup(np.zeros(3))
        theta_true = np.array([1.0, 0.0, 0.0])
        perturbed = np.array([0.9, 0.3, np.sqrt(1 - 0.81 - 0.09)])
        residuals, jac = parts(perturbed)
        stepped = gauss_newton_sphere_step(perturbed, residuals, jac)
        assert sse_at(stepped) < sse_at(perturbed)
        assert abs(stepped @ theta_true) > abs(perturbed @ theta_true)

    def test_singular_system_signals_failure_or_stays(self) -> None:
        # A rank-0 Jacobian gives no information; the damped solve returns
        # a zero step rather than blowing up.
        theta = np.array([1.0, 0.0])
        out = gauss_newton_sphere_step(
            theta, np.ones(10), np.zeros((10, 2))
        )
        assert out is None or np.allclose(out, theta)

    def test_non_unit_theta_rejected(self) -> None:
        with pytest.raises(ValueError, match="unit"):
            gauss_newton_sphere_step(
                np.array([2.0, 0.0]), np.zeros(5), np.zeros((5, 2))
            )
