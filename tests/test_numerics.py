"""Damped least squares and the damped Gauss-Newton direction solve."""

import numpy as np
import pytest
import scipy.linalg

from eppr import numerics
from eppr.errors import NumericError
from eppr.numerics import (
    DEFAULT_DAMPING_SCALE,
    gauss_newton_delta,
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


def reference_gauss_newton_delta(residuals, jacobian):
    """The direction solve before it called LAPACK directly."""
    gram = jacobian.T @ jacobian
    rhs = jacobian.T @ residuals
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
        return None
    q = gram.shape[0]
    damping = DEFAULT_DAMPING_SCALE * max(float(np.mean(np.diag(gram))), 1e-12)
    for _ in range(7):
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


    @pytest.mark.parametrize("make_jacobian", [
        random_design, duplicated_column_design, ill_conditioned_design,
        lambda rng: np.zeros((60, 3)),
    ], ids=["random", "duplicated_column", "ill_conditioned", "all_zero"])
    def test_gauss_newton_bit_identical(self, make_jacobian) -> None:
        rng = np.random.default_rng(10)
        jacobian = make_jacobian(rng)
        residuals = rng.standard_normal(jacobian.shape[0])
        expected = reference_gauss_newton_delta(residuals, jacobian)
        assert np.array_equal(gauss_newton_delta(residuals, jacobian), expected)


class TestGaussNewtonDelta:
    def test_zero_residuals_give_zero_step(self) -> None:
        jac = np.random.default_rng(1).standard_normal((30, 2))
        delta = gauss_newton_delta(np.zeros(30), jac)
        np.testing.assert_allclose(delta, np.zeros(2), atol=1e-12)

    def test_matches_damped_normal_equations(self) -> None:
        rng = np.random.default_rng(2)
        jac = rng.standard_normal((40, 5))
        residuals = rng.standard_normal(40)
        gram = jac.T @ jac
        damping = DEFAULT_DAMPING_SCALE * float(np.mean(np.diag(gram)))
        expected = np.linalg.solve(
            gram + damping * np.eye(5), jac.T @ residuals
        )
        np.testing.assert_allclose(
            gauss_newton_delta(residuals, jac), expected, rtol=1e-10
        )

    def test_step_reduces_sse_near_optimum(self) -> None:
        # A spline ridge at a perturbed direction: the normalized step
        # moves toward the true direction and lowers the SSE.
        rng = np.random.default_rng(0)
        X = rng.uniform(-1.0, 1.0, (80, 3))
        kv = make_uniform_knots(4, 3)
        coeffs = np.array([0.0, 0.5, 1.0, 2.0])
        scale = 1.0 / np.sqrt(3.0)
        theta_true = np.array([1.0, 0.0, 0.0])

        def fitted(theta):
            return basis_matrix(kv, np.clip(X @ theta * scale, -1, 1)) @ coeffs

        def sse(theta):
            r = fitted(theta_true) - fitted(theta)
            return float(r @ r)

        theta = np.array([0.9, 0.3, np.sqrt(1 - 0.81 - 0.09)])
        v = np.clip(X @ theta * scale, -1, 1)
        slope = basis_deriv_matrix(kv, v) @ coeffs
        jac = (slope * scale)[:, None] * X
        delta = gauss_newton_delta(fitted(theta_true) - fitted(theta), jac)
        stepped = (theta + delta) / np.linalg.norm(theta + delta)
        assert sse(stepped) < sse(theta)
        assert stepped @ theta_true > theta @ theta_true

    def test_rank_zero_jacobian_gives_zero_step(self) -> None:
        delta = gauss_newton_delta(np.ones(10), np.zeros((10, 2)))
        np.testing.assert_array_equal(delta, np.zeros(2))

    def test_non_finite_jacobian_fails(self) -> None:
        jac = np.ones((10, 2))
        jac[3, 1] = np.inf
        assert gauss_newton_delta(np.ones(10), jac) is None


class TestFailedFactorization:
    """A non-zero LAPACK info takes each solve's fallback."""

    @staticmethod
    def fail_first(monkeypatch, failures: int) -> list:
        systems: list = []
        numerics._bind_lapack()
        real = numerics.dpotrf

        def dpotrf(system, **kwargs):
            systems.append(system.copy())
            if len(systems) <= failures:
                return system, 1
            return real(system, **kwargs)

        monkeypatch.setattr(numerics, "dpotrf", dpotrf)
        return systems

    def test_ridge_ls_takes_lstsq(self, monkeypatch) -> None:
        rng = np.random.default_rng(11)
        design = random_design(rng)
        target = rng.standard_normal(design.shape[0])
        systems = self.fail_first(monkeypatch, 1)
        sol = solve_ridge_ls(design, target)
        assert len(systems) == 1
        lstsq = np.linalg.lstsq(design, target, rcond=None)[0]
        assert np.array_equal(sol.coefficients, lstsq)

    def test_gauss_newton_escalates_damping_tenfold(self, monkeypatch) -> None:
        rng = np.random.default_rng(12)
        jac = rng.standard_normal((40, 4))
        residuals = rng.standard_normal(40)
        systems = self.fail_first(monkeypatch, 2)
        delta = gauss_newton_delta(residuals, jac)
        assert len(systems) == 3
        gram = jac.T @ jac
        dampings = [float(np.mean(np.diag(s - gram))) for s in systems]
        assert dampings[1] == pytest.approx(10.0 * dampings[0])
        assert dampings[2] == pytest.approx(100.0 * dampings[0])
        np.testing.assert_allclose(
            delta, np.linalg.solve(systems[-1], jac.T @ residuals), rtol=1e-10
        )

    def test_gauss_newton_fails_after_last_escalation(self, monkeypatch) -> None:
        rng = np.random.default_rng(13)
        jac = rng.standard_normal((40, 4))
        systems = self.fail_first(monkeypatch, 100)
        assert gauss_newton_delta(rng.standard_normal(40), jac) is None
        assert len(systems) == 7


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: no tolerance, and -0.0 != 0.0."""
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


class TestDampedSystemMatchesExpression:
    """The wrapper-free helpers against the numpy expressions they replaced."""

    @staticmethod
    def gram(m: int) -> np.ndarray:
        design = np.random.default_rng(m).standard_normal((40, m))
        gram = design.T @ design
        if m > 1:
            # A -0.0 entry turns into 0.0 when the damping term is added.
            gram[0, 1] = gram[1, 0] = -0.0
        return gram

    @pytest.mark.parametrize("m", [1, 7, 30])
    @pytest.mark.parametrize("damping", [0.0, 1e-8, 3.7e-3, 1e6])
    def test_damped_system_bit_identical(self, m: int, damping: float) -> None:
        gram = self.gram(m)
        expected = gram + damping * np.eye(m)
        assert same_bits(numerics._damped(gram, damping), expected)

    @pytest.mark.parametrize("m", [1, 7, 30])
    def test_infinite_damping_matches(self, m: int) -> None:
        gram = self.gram(m)
        with np.errstate(invalid="ignore"):  # inf * 0.0 off the diagonal
            expected = gram + np.inf * np.eye(m)
        assert np.array_equal(
            numerics._damped(gram, np.inf), expected, equal_nan=True
        )

    @pytest.mark.parametrize("m", [1, 7, 30])
    def test_damped_system_leaves_gram_alone(self, m: int) -> None:
        gram = self.gram(m)
        before = gram.copy()
        numerics._damped(gram, 1e-3)
        assert same_bits(gram, before)

    @pytest.mark.parametrize("m", [1, 7, 30])
    def test_mean_diagonal_bit_identical(self, m: int) -> None:
        gram = self.gram(m) * 1e3 + 1.0 / 3.0
        assert numerics._mean_diagonal(gram) == float(np.mean(np.diag(gram)))
