"""Damped least squares and the damped Gauss-Newton direction solve."""

import numpy as np
import pytest

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

    def test_singular_system_solves_to_none(self) -> None:
        # LAPACK refuses an exactly singular system with LinAlgError.
        assert numerics._solve(np.zeros((2, 2)), np.ones(2)) is None

    def test_non_finite_minimum_norm_solution_raises(self) -> None:
        # The Gram underflows to 0, so the undamped solve falls back to
        # lstsq, whose solution 1e600 is not finite.
        with pytest.raises(NumericError, match="produced non-finite values"):
            solve_ridge_ls(
                np.full((3, 1), 1e-300), np.full(3, 1e300), damping=0.0
            )

    def test_gram_mean_diag(self) -> None:
        rng = np.random.default_rng(5)
        design = rng.standard_normal((20, 4))
        gram = design.T @ design
        assert gram_mean_diag(design) == pytest.approx(
            float(np.mean(np.diag(gram))), rel=1e-12
        )


def cholesky_solve(system, rhs):
    """x with system x = rhs, from the Cholesky factor L L' = system and a
    forward and a back substitution.

    Raises ``LinAlgError`` when ``system`` is not positive definite.
    """
    factor = np.linalg.cholesky(system)
    m = rhs.shape[0]
    forward = np.empty(m)
    for i in range(m):
        forward[i] = (rhs[i] - factor[i, :i] @ forward[:i]) / factor[i, i]
    x = np.empty(m)
    for i in reversed(range(m)):
        x[i] = (forward[i] - factor[i + 1:, i] @ x[i + 1:]) / factor[i, i]
    return x


def reference_solve_ridge_ls(design, target, damping=None):
    """The damped least-squares solve through a Cholesky factorization,
    with the eigenvalue check on every system.

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
        try:
            beta = cholesky_solve(gram + damping * np.eye(m), rhs)
        except np.linalg.LinAlgError:
            rank_deficient = True
    if beta is None:
        beta = np.linalg.lstsq(design, target, rcond=None)[0]
    residual = target - design @ beta
    return beta, float(residual @ residual), rank_deficient


def reference_gauss_newton_delta(residuals, jacobian):
    """The damped direction solve through a Cholesky factorization."""
    gram = jacobian.T @ jacobian
    rhs = jacobian.T @ residuals
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
        return None
    q = gram.shape[0]
    damping = DEFAULT_DAMPING_SCALE * max(float(np.mean(np.diag(gram))), 1e-12)
    for _ in range(7):
        try:
            delta = cholesky_solve(gram + damping * np.eye(q), rhs)
            if np.all(np.isfinite(delta)):
                return delta
        except np.linalg.LinAlgError:
            pass
        damping *= 10.0
    return None


EPS = np.finfo(float).eps


def assert_solves_damped_system(solution, design, target, damping) -> None:
    """A backward-stable solve of the damped normal equations: the
    residual is within 16 eps of ||system|| ||solution|| (max norms)."""
    m = design.shape[1]
    system = design.T @ design + damping * np.eye(m)
    residual = system @ solution - design.T @ target
    scale = np.linalg.norm(system, np.inf) * np.max(np.abs(solution))
    assert np.max(np.abs(residual)) <= 16.0 * EPS * scale


def assert_coefficients_close(solution, reference) -> None:
    """Within 1e-14 of the reference's largest entry: about 45 ulps, for
    systems whose condition number is below 50."""
    bound = 1e-14 * np.max(np.abs(reference))
    assert np.max(np.abs(solution - reference)) <= bound


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


# Designs whose damped Gram has a condition number below 50, where the
# coefficients themselves are compared; on the others only the damped
# system and its objective are.
WELL_CONDITIONED = (random_design, spline_design)


class TestLeanSolveMatchesReference:
    """The LU solve against the Cholesky reference, to stated tolerances.

    The ``bit_identical`` names date from a bitwise comparison with a
    Cholesky solve; the two factorizations round differently, so the
    assertions below bound the difference instead.
    """

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
        if damping is None:
            damping = DEFAULT_DAMPING_SCALE * gram_mean_diag(design)
        assert_solves_damped_system(sol.coefficients, design, target, damping)

        def objective(b):
            residual = target - design @ b
            return float(residual @ residual + damping * (b @ b))

        # The damped objective to 1e-12 and the SSE to 1e-9, relative.  On
        # these designs they differ by at most 5e-14 and 1.2e-10: the SSE
        # moves further, along the nearly flat directions of the
        # ill-conditioned systems.
        assert abs(objective(sol.coefficients) - objective(beta)) <= (
            1e-12 * objective(beta)
        )
        assert sol.sse == pytest.approx(sse, rel=1e-9)
        if make_design in WELL_CONDITIONED:
            assert_coefficients_close(sol.coefficients, beta)

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
        assert_coefficients_close(sol.coefficients, beta)
        assert sol.sse == pytest.approx(sse, rel=1e-14)

    @pytest.mark.parametrize("make_jacobian", [
        random_design, duplicated_column_design, ill_conditioned_design,
        lambda rng: np.zeros((60, 3)),
    ], ids=["random", "duplicated_column", "ill_conditioned", "all_zero"])
    def test_gauss_newton_bit_identical(self, make_jacobian) -> None:
        rng = np.random.default_rng(10)
        jacobian = make_jacobian(rng)
        residuals = rng.standard_normal(jacobian.shape[0])
        expected = reference_gauss_newton_delta(residuals, jacobian)
        delta = gauss_newton_delta(residuals, jacobian)
        damping = DEFAULT_DAMPING_SCALE * max(gram_mean_diag(jacobian), 1e-12)
        assert_solves_damped_system(delta, jacobian, residuals, damping)
        if make_jacobian in (duplicated_column_design, ill_conditioned_design):
            # Condition numbers near 1e8-1e9: measured within 5e-9.
            bound = 1e-7 * np.max(np.abs(expected))
            assert np.max(np.abs(delta - expected)) <= bound
        else:
            assert_coefficients_close(delta, expected)


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
    """A failed solve, or a non-finite solution, takes each solve's
    fallback."""

    @staticmethod
    def fail_first(monkeypatch, failures: int) -> list:
        systems: list = []
        real = numerics._solve

        def solve(system, rhs):
            systems.append(system.copy())
            if len(systems) <= failures:
                return None
            return real(system, rhs)

        monkeypatch.setattr(numerics, "_solve", solve)
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

    @staticmethod
    def record_solutions(monkeypatch) -> list:
        """What each call of the real ``np.linalg.solve`` returned."""
        solutions: list = []
        real = np.linalg.solve

        def solve(system, rhs):
            solutions.append(real(system, rhs))
            return solutions[-1]

        monkeypatch.setattr(numerics.np.linalg, "solve", solve)
        return solutions

    def test_overflowing_gram_takes_lstsq(self, monkeypatch) -> None:
        # Entries near 1e200 overflow the Gram, and the default damping
        # with it; LAPACK factors the infinite system and returns NaN.
        rng = np.random.default_rng(14)
        design = 1e200 * random_design(rng)
        target = rng.standard_normal(design.shape[0])
        solutions = self.record_solutions(monkeypatch)
        with np.errstate(over="ignore"):
            sol = solve_ridge_ls(design, target)
        assert len(solutions) == 1 and np.isnan(solutions[0]).all()
        lstsq = np.linalg.lstsq(design, target, rcond=None)[0]
        assert np.array_equal(sol.coefficients, lstsq)
        assert np.isfinite(sol.coefficients).all()

    def test_overflowing_direction_escalates_then_fails(
        self, monkeypatch
    ) -> None:
        # A tiny J'J against J' residuals near 1e296: the direction
        # overflows at every damping, so all seven solves return infinities.
        rng = np.random.default_rng(15)
        jac = 1e-10 * rng.standard_normal((40, 2))
        residuals = 1e305 * rng.standard_normal(40)
        solutions = self.record_solutions(monkeypatch)
        assert gauss_newton_delta(residuals, jac) is None
        assert len(solutions) == 7
        assert all(np.isinf(s).any() for s in solutions)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: no tolerance, and -0.0 != 0.0."""
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


class TestDampedSystemMatchesExpression:
    """The damped system each solve hands to ``numerics._solve`` against
    the expression ``gram + damping * np.eye(m)`` it stands for, and the
    wrapper-free mean diagonal against ``np.mean(np.diag(gram))``."""

    @staticmethod
    def problem(m: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(m)
        return rng.standard_normal((40, m)), rng.standard_normal(40)

    @staticmethod
    def record_systems(monkeypatch) -> list:
        """A copy of each system and right-hand side ``_solve`` is given."""
        systems: list = []
        real = numerics._solve

        def solve(system, rhs):
            systems.append((system.copy(), rhs.copy()))
            return real(system, rhs)

        monkeypatch.setattr(numerics, "_solve", solve)
        return systems

    @pytest.mark.parametrize("m", [1, 7, 30])
    @pytest.mark.parametrize("damping", [0.0, 1e-8, 3.7e-3, 1e6])
    def test_damped_system_bit_identical(
        self, monkeypatch, m: int, damping: float
    ) -> None:
        # The damping goes onto the diagonal in place; off it, adding
        # damping * 0.0 leaves a nonzero finite entry's bits as they are.
        design, target = self.problem(m)
        systems = self.record_systems(monkeypatch)
        sol = solve_ridge_ls(design, target, damping)
        assert len(systems) == 1
        system, rhs = systems[0]
        assert same_bits(system, design.T @ design + damping * np.eye(m))
        assert same_bits(rhs, design.T @ target)
        assert same_bits(sol.coefficients, np.linalg.solve(system, rhs))

    @pytest.mark.parametrize("m", [1, 7, 30])
    def test_infinite_damping_matches(self, monkeypatch, m: int) -> None:
        # The expression puts inf * 0.0 = NaN off the diagonal; the system
        # solved keeps the Gram there, and its solution is the limit of
        # the damped fit, all zeros.
        design, target = self.problem(m)
        systems = self.record_systems(monkeypatch)
        sol = solve_ridge_ls(design, target, np.inf)
        assert len(systems) == 1
        system, _ = systems[0]
        gram = design.T @ design
        off = ~np.eye(m, dtype=bool)
        assert np.isposinf(np.diag(system)).all()
        assert same_bits(system[off], gram[off])
        with np.errstate(invalid="ignore"):  # inf * 0.0 off the diagonal
            expected = gram + np.inf * np.eye(m)
        assert np.array_equal(np.diag(system), np.diag(expected))
        assert np.isnan(expected[off]).all()
        assert np.array_equal(sol.coefficients, np.zeros(m))
        assert sol.sse == float(target @ target)

    @pytest.mark.parametrize("m", [1, 7, 30])
    def test_damped_system_leaves_gram_alone(self, m: int) -> None:
        # Both solves damp a Gram they formed themselves: the caller's
        # arrays keep their bits, and a second call gives the same bits.
        design, target = self.problem(m)
        before = design.copy(), target.copy()
        first = solve_ridge_ls(design, target, 1e-3).coefficients
        second = solve_ridge_ls(design, target, 1e-3).coefficients
        assert same_bits(first, second)
        delta = gauss_newton_delta(target, design)
        assert same_bits(delta, gauss_newton_delta(target, design))
        assert same_bits(design, before[0]) and same_bits(target, before[1])

    @pytest.mark.parametrize("m", [1, 7, 30])
    def test_mean_diagonal_bit_identical(self, m: int) -> None:
        design = np.random.default_rng(m).standard_normal((40, m))
        gram = (design.T @ design) * 1e3 + 1.0 / 3.0
        assert numerics._mean_diagonal(gram) == float(np.mean(np.diag(gram)))
