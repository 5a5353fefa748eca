"""B-spline basis construction, evaluation, and derivatives."""

import math

import numpy as np
import pytest

from eppr.errors import ConfigError
from eppr.spline import (
    KnotVector,
    basis_deriv_matrix,
    basis_matrix,
    make_uniform_knots,
)


def eval_basis(kv: KnotVector, v: float) -> np.ndarray:
    """Values of the basis functions at a single point."""
    return basis_matrix(kv, np.array([float(v)]))[0]


def eval_basis_deriv(kv: KnotVector, v: float) -> np.ndarray:
    """First derivatives of the basis functions at a single point."""
    return basis_deriv_matrix(kv, np.array([float(v)]))[0]


def bernstein_cubic(v: float) -> np.ndarray:
    """Independent oracle: cubic Bernstein polynomials on [-1, 1]."""
    t = (v + 1.0) / 2.0
    return np.array([
        math.comb(3, j) * t ** j * (1.0 - t) ** (3 - j) for j in range(4)
    ])


class TestMakeUniformKnots:
    def test_linear_no_interior(self) -> None:
        kv = make_uniform_knots(2, 1)
        np.testing.assert_array_equal(kv.knots, [-1.0, -1.0, 1.0, 1.0])
        assert kv.interior_count == 0

    def test_cubic_no_interior(self) -> None:
        kv = make_uniform_knots(4, 3)
        np.testing.assert_array_equal(kv.knots, [-1.0] * 4 + [1.0] * 4)

    def test_cubic_two_interior_thirds(self) -> None:
        kv = make_uniform_knots(6, 3)
        np.testing.assert_allclose(
            kv.knots[4:6], [-1.0 / 3.0, 1.0 / 3.0], atol=1e-15
        )
        assert kv.interior_count == 2
        assert kv.basis_count == 6

    def test_dimension_rule(self) -> None:
        for J, degree in [(6, 3), (10, 2), (7, 1), (30, 3)]:
            kv = make_uniform_knots(J, degree)
            assert kv.basis_count == kv.interior_count + kv.degree + 1
            assert kv.knots.shape == (J + degree + 1,)

    def test_too_few_basis_functions(self) -> None:
        with pytest.raises(ConfigError, match="degree"):
            make_uniform_knots(3, 3)

    def test_spacing_quasi_uniform(self) -> None:
        kv = make_uniform_knots(12, 3)
        gaps = np.diff(np.unique(kv.knots))
        assert gaps.max() <= gaps.min() * (1.0 + 1e-12)

    def test_invariant_enforced_on_construction(self) -> None:
        knots = np.array([-1.0, -1.0, -0.9, 1.0, 1.0])
        with pytest.raises(ConfigError, match="quasi-uniform"):
            KnotVector(degree=1, interior_count=1, knots=knots, basis_count=3)


class TestEvalBasis:
    def test_left_endpoint_hat(self) -> None:
        kv = make_uniform_knots(2, 1)
        np.testing.assert_allclose(eval_basis(kv, -1.0), [1.0, 0.0])

    def test_bernstein_midpoint(self) -> None:
        kv = make_uniform_knots(4, 3)
        np.testing.assert_allclose(
            eval_basis(kv, 0.0), [0.125, 0.375, 0.375, 0.125], atol=1e-15
        )

    def test_matches_bernstein_everywhere(self) -> None:
        # With no interior knots the cubic basis is exactly Bernstein.
        kv = make_uniform_knots(4, 3)
        rng = np.random.default_rng(0)
        for v in rng.uniform(-1.0, 1.0, 50):
            np.testing.assert_allclose(
                eval_basis(kv, v), bernstein_cubic(v), atol=1e-13
            )

    def test_partition_of_unity(self) -> None:
        rng = np.random.default_rng(1)
        for J, degree in [(6, 3), (8, 2), (14, 3), (30, 1)]:
            kv = make_uniform_knots(J, degree)
            v = rng.uniform(-1.0, 1.0, 1000)
            sums = basis_matrix(kv, v).sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-10)

    def test_nonnegative(self) -> None:
        kv = make_uniform_knots(9, 3)
        v = np.random.default_rng(2).uniform(-1.0, 1.0, 500)
        assert np.min(basis_matrix(kv, v)) >= -1e-15

    def test_local_support(self) -> None:
        kv = make_uniform_knots(9, 3)
        v = np.linspace(-1.0, 1.0, 401)
        B = basis_matrix(kv, v)
        for j in range(kv.basis_count):
            lo = kv.knots[j]
            hi = kv.knots[j + kv.degree + 1]
            outside = (v < lo - 1e-12) | (v > hi + 1e-12)
            assert np.all(B[outside, j] == 0.0)

    def test_endpoint_values(self) -> None:
        kv = make_uniform_knots(7, 3)
        at_left = eval_basis(kv, -1.0)
        at_right = eval_basis(kv, 1.0)
        assert at_left[0] == 1.0 and np.all(at_left[1:] == 0.0)
        assert at_right[-1] == 1.0 and np.all(at_right[:-1] == 0.0)

    def test_continuity_at_interior_knots(self) -> None:
        kv = make_uniform_knots(10, 3)
        eps = 1e-12
        for u in kv.knots[kv.degree + 1:-(kv.degree + 1)]:
            left = eval_basis(kv, u - eps)
            right = eval_basis(kv, u)
            np.testing.assert_allclose(left, right, atol=1e-10)

    def test_domain_error(self) -> None:
        kv = make_uniform_knots(6, 3)
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            eval_basis(kv, 1.0000001)
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            basis_matrix(kv, np.array([0.0, -1.5]))


class TestEvalBasisDeriv:
    def test_hat_slopes(self) -> None:
        kv = make_uniform_knots(2, 1)
        np.testing.assert_allclose(eval_basis_deriv(kv, 0.0), [-0.5, 0.5])

    def test_sums_to_zero(self) -> None:
        kv = make_uniform_knots(11, 3)
        v = np.random.default_rng(3).uniform(-1.0, 1.0, 300)
        sums = basis_deriv_matrix(kv, v).sum(axis=1)
        np.testing.assert_allclose(sums, 0.0, atol=1e-10)

    def test_matches_central_differences(self) -> None:
        rng = np.random.default_rng(4)
        h = 1e-6
        for J, degree in [(6, 3), (10, 2), (16, 3)]:
            kv = make_uniform_knots(J, degree)
            v = rng.uniform(-1.0 + 2 * h, 1.0 - 2 * h, 100)
            analytic = basis_deriv_matrix(kv, v)
            fd = (basis_matrix(kv, v + h) - basis_matrix(kv, v - h)) / (2 * h)
            assert np.max(np.abs(analytic - fd)) < 1e-5

    def test_one_sided_at_right_endpoint(self) -> None:
        # At v = 1 the derivative is the left limit; for the linear hat on
        # [-1, 1] that is constant (-1/2, 1/2).
        kv = make_uniform_knots(2, 1)
        np.testing.assert_allclose(eval_basis_deriv(kv, 1.0), [-0.5, 0.5])

    def test_degree_zero_rejected(self) -> None:
        kv = make_uniform_knots(4, 0)
        with pytest.raises(ValueError, match="degree"):
            eval_basis_deriv(kv, 0.0)


class TestApproximationOrder:
    def fit_error(self, J: int) -> float:
        kv = make_uniform_knots(J, 3)
        v = np.linspace(-1.0, 1.0, 2000)
        target = np.sin(np.pi * v)
        design = basis_matrix(kv, v)
        coeffs = np.linalg.lstsq(design, target, rcond=None)[0]
        resid = target - design @ coeffs
        return float(np.sqrt(np.mean(resid ** 2)))

    def test_error_shrinks_with_dimension(self) -> None:
        errors = [self.fit_error(J) for J in (8, 16, 32, 64)]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] / errors[0] < 0.05
