"""Projection scaling, ridge evaluation, and the alternating fit."""

from dataclasses import replace

import numpy as np
import pytest

from eppr import singleindex
from eppr.singleindex import (
    ProjectionScaler,
    Ridge,
    SingleIndexOptions,
    eval_ridge_batch,
    fit_single_index,
)
from eppr.spline import basis_matrix, make_uniform_knots


def make_ridge(subset, theta, lo, hi, coeffs, kv) -> Ridge:
    return Ridge(
        subset=np.asarray(subset, dtype=int),
        theta=np.asarray(theta, dtype=float),
        scaler=ProjectionScaler(lo, hi),
        coeffs=np.asarray(coeffs, dtype=float),
        knots=kv,
    )


class TestProjectionScaler:
    def test_endpoints_and_midpoint(self) -> None:
        sc = ProjectionScaler(2.0, 6.0)
        assert sc.transform(2.0) == -1.0
        assert sc.transform(6.0) == 1.0
        assert sc.transform(4.0) == 0.0

    def test_clamping(self) -> None:
        sc = ProjectionScaler(0.0, 1.0)
        assert sc.transform(-5.0) == -1.0
        assert sc.transform(9.0) == 1.0


def eval_one(ridge: Ridge, x: np.ndarray) -> float:
    """The batch evaluator on a one-row matrix."""
    row = np.asarray(x, dtype=float)[None, :]
    return float(eval_ridge_batch(ridge, row)[0])


class TestEvalRidge:
    def setup_method(self) -> None:
        self.kv = make_uniform_knots(6, 3)

    def test_zero_coefficients(self) -> None:
        ridge = make_ridge([0, 2], [0.6, 0.8], -1.0, 1.0,
                           np.zeros(6), self.kv)
        x = np.array([0.3, 9.0, -0.2])
        assert eval_one(ridge, x) == 0.0

    def test_constant_coefficients(self) -> None:
        # Partition of unity: constant coefficients give a constant ridge.
        ridge = make_ridge([0, 1], [1.0, 0.0], -2.0, 2.0,
                           np.full(6, 3.5), self.kv)
        for x0 in (-1.0, 0.0, 0.7):
            assert eval_one(ridge, np.array([x0, 5.0])) == pytest.approx(3.5)

    def test_projection_uses_subset_only(self) -> None:
        ridge = make_ridge([1], [1.0], -1.0, 1.0,
                           np.arange(6.0), self.kv)
        a = eval_one(ridge, np.array([0.0, 0.4, 0.0]))
        b = eval_one(ridge, np.array([77.0, 0.4, -3.0]))
        assert a == b
        # The scaled projection of either row is 0.4.
        assert a == pytest.approx(
            float(basis_matrix(self.kv, np.array([0.4]))[0] @ ridge.coeffs),
            abs=1e-14,
        )

    def test_batch_matches_scalar(self) -> None:
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(2)
        theta /= np.linalg.norm(theta)
        ridge = make_ridge([0, 3], theta, -1.5, 1.2,
                           rng.standard_normal(6), self.kv)
        X = rng.uniform(-1.0, 1.0, (20, 5))
        batch = eval_ridge_batch(ridge, X)
        scalar = np.array([eval_one(ridge, row) for row in X])
        np.testing.assert_allclose(batch, scalar, atol=1e-12)

    def test_sine_ridge_against_lstsq_oracle(self) -> None:
        # A dense spline fit of sin over the scaled projection, solved by
        # plain lstsq, must be reproduced by eval_ridge_batch.
        kv = make_uniform_knots(16, 3)
        rng = np.random.default_rng(1)
        X = rng.uniform(-1.0, 1.0, (400, 3))
        theta = np.array([1.0, 0.0, 0.0])
        z = X @ theta
        lo, hi = float(z.min()), float(z.max())
        v = np.clip(2 * (z - lo) / (hi - lo) - 1, -1, 1)
        target = np.sin(np.pi * v)
        coeffs = np.linalg.lstsq(basis_matrix(kv, v), target, rcond=None)[0]
        ridge = make_ridge([0, 1, 2], theta, lo, hi, coeffs, kv)
        np.testing.assert_allclose(
            eval_ridge_batch(ridge, X), basis_matrix(kv, v) @ coeffs,
            atol=1e-12,
        )
        assert np.max(np.abs(eval_ridge_batch(ridge, X) - target)) < 1e-3


class TestFitSingleIndex:
    def setup_method(self) -> None:
        self.kv = make_uniform_knots(8, 3)

    def opts(self, seed: int = 0) -> SingleIndexOptions:
        return SingleIndexOptions(rng=np.random.default_rng(seed))

    def test_constant_residuals_reproduced_exactly(self) -> None:
        rng = np.random.default_rng(2)
        X = rng.uniform(-1.0, 1.0, (60, 3))
        ridge, sse = fit_single_index(X, np.full(60, 4.2), self.kv,
                                      self.opts())
        np.testing.assert_allclose(ridge.coeffs, 4.2, atol=1e-12)
        assert sse == 0.0
        values = eval_ridge_batch(ridge, X)
        np.testing.assert_allclose(values, 4.2, atol=1e-12)

    def test_zero_residuals(self) -> None:
        rng = np.random.default_rng(3)
        X = rng.uniform(-1.0, 1.0, (50, 2))
        ridge, sse = fit_single_index(X, np.zeros(50), self.kv, self.opts())
        assert sse == 0.0
        assert np.all(ridge.coeffs == 0.0)
        assert abs(float(ridge.theta @ ridge.theta) - 1.0) < 1e-12

    def test_noiseless_linear_signal(self) -> None:
        rng = np.random.default_rng(4)
        X = rng.uniform(-1.0, 1.0, (200, 4))
        theta = np.array([0.5, -0.5, 0.5, 0.5])
        y = X @ theta
        ridge, sse = fit_single_index(X, y, self.kv, self.opts())
        assert sse < 1e-8 * float(y @ y)
        assert abs(float(ridge.theta @ theta)) > 1.0 - 1e-4

    def test_sine_recovery_across_seeds(self) -> None:
        rng = np.random.default_rng(5)
        n, q = 500, 10
        X = rng.uniform(-1.0, 1.0, (n, q))
        theta = rng.standard_normal(q)
        theta /= np.linalg.norm(theta)
        y = np.sin(2.0 * (X @ theta)) + 0.1 * rng.standard_normal(n)
        kv = make_uniform_knots(12, 3)
        hits = 0
        for seed in range(3):
            ridge, _ = fit_single_index(X, y, kv, self.opts(seed))
            hits += abs(float(ridge.theta @ theta)) > 0.95
        assert hits == 3

    def test_sse_no_worse_than_any_fixed_start(self) -> None:
        # Alternation starts from the OLS direction and random directions;
        # the result can only improve on coefficients-only fits there.
        rng = np.random.default_rng(6)
        X = rng.uniform(-1.0, 1.0, (150, 3))
        y = np.tanh(2.0 * X[:, 0]) + 0.05 * rng.standard_normal(150)
        ridge, sse = fit_single_index(X, y, self.kv, self.opts(7))
        from eppr.numerics import solve_ridge_ls

        for seed in range(5):
            theta = np.random.default_rng(100 + seed).standard_normal(3)
            theta /= np.linalg.norm(theta)
            z = X @ theta
            sc = ProjectionScaler(float(z.min()), float(z.max()))
            v = np.asarray(sc.transform(z))
            fixed = solve_ridge_ls(basis_matrix(self.kv, v), y)
            assert sse <= fixed.sse + 1e-10

    def test_sign_convention(self) -> None:
        rng = np.random.default_rng(10)
        X = rng.uniform(-1.0, 1.0, (150, 5))
        y = np.cos(2.0 * X @ np.array([-0.8, 0.0, 0.6, 0.0, 0.0]))
        ridge, _ = fit_single_index(X, y, self.kv, self.opts(11))
        idx = int(np.argmax(np.abs(ridge.theta)))
        assert ridge.theta[idx] >= 0.0

    def test_scaler_covers_training_projections(self) -> None:
        rng = np.random.default_rng(12)
        X = rng.uniform(-1.0, 1.0, (120, 3))
        y = X[:, 0] ** 2 + 0.1 * rng.standard_normal(120)
        ridge, _ = fit_single_index(X, y, self.kv, self.opts(13))
        z = X[:, ridge.subset] @ ridge.theta
        assert float(z.min()) == pytest.approx(ridge.scaler.lo, abs=1e-12)
        assert float(z.max()) == pytest.approx(ridge.scaler.hi, abs=1e-12)

    def test_subset_recorded(self) -> None:
        rng = np.random.default_rng(14)
        X = rng.uniform(-1.0, 1.0, (100, 2))
        y = X[:, 0] + 0.01 * rng.standard_normal(100)
        subset = np.array([3, 7])
        ridge, _ = fit_single_index(X, y, self.kv, self.opts(15),
                                    subset=subset)
        np.testing.assert_array_equal(ridge.subset, subset)

    def test_constant_columns_degenerate_to_constant_fit(self) -> None:
        # Every projection is constant, so the best ridge is the mean.
        rng = np.random.default_rng(16)
        X = np.ones((40, 2))
        y = rng.standard_normal(40)
        ridge, sse = fit_single_index(X, y, self.kv, self.opts(17))
        centered = y - y.mean()
        assert sse == pytest.approx(float(centered @ centered), rel=1e-12)
        np.testing.assert_allclose(
            eval_ridge_batch(ridge, X), y.mean(), atol=1e-10
        )


class TestStartFallbacks:
    """Patched callees make each start stop at its first solve."""

    @staticmethod
    def fit(monkeypatch, delta=None):
        """Fit with every step-halving candidate degenerate.

        ``delta(theta)`` stands in for the Gauss-Newton step at the start
        direction theta.  Returns the fit, each start's first solve as
        (theta, state), and the directions of the candidate solves.
        """
        real_start = singleindex._fit_from_start
        real_solve = singleindex._solve_at_theta
        firsts: list = []
        candidates: list = []

        def start(*args):
            firsts.append(None)
            return real_start(*args)

        def solve(X_A, residuals, kv, theta):
            if firsts[-1] is None:
                firsts[-1] = (theta, real_solve(X_A, residuals, kv, theta))
                return firsts[-1][1]
            candidates.append(theta)
            return None

        monkeypatch.setattr(singleindex, "_fit_from_start", start)
        monkeypatch.setattr(singleindex, "_solve_at_theta", solve)
        if delta is not None:
            monkeypatch.setattr(
                singleindex, "gauss_newton_delta",
                lambda residual, jacobian: delta(firsts[-1][0]),
            )
        rng = np.random.default_rng(18)
        X = rng.uniform(-1.0, 1.0, (150, 3))
        y = np.tanh(2.0 * X[:, 0] - X[:, 2]) + 0.05 * rng.standard_normal(150)
        ridge, sse = fit_single_index(
            X, y, make_uniform_knots(8, 3),
            SingleIndexOptions(rng=np.random.default_rng(19)),
        )
        assert len(firsts) == singleindex._N_STARTS
        # The best start's first solve, up to the sign convention.
        sols = [state[2] for _, state in firsts]
        best = min(range(len(sols)), key=lambda i: sols[i].sse)
        assert sse == sols[best].sse
        coeffs = sols[best].coefficients
        assert (np.array_equal(ridge.coeffs, coeffs)
                or np.array_equal(ridge.coeffs, coeffs[::-1]))
        return candidates

    def test_failed_direction_solve_stops_the_start(self, monkeypatch) -> None:
        assert self.fit(monkeypatch, delta=lambda theta: None) == []

    def test_degenerate_candidates_exhaust_halving(self, monkeypatch) -> None:
        candidates = self.fit(monkeypatch)
        halvings = singleindex._MAX_HALVINGS + 1
        assert len(candidates) == singleindex._N_STARTS * halvings

    def test_zero_direction_candidate_is_skipped(self, monkeypatch) -> None:
        # theta + (-theta) has no direction; its halvings point along theta.
        candidates = self.fit(monkeypatch, delta=lambda theta: -theta)
        halvings = singleindex._MAX_HALVINGS
        assert len(candidates) == singleindex._N_STARTS * halvings


class TestFirstOrderRise:
    """Scripted trial SSEs drive the step-halving of one start.

    The start's own solve is real.  Trial k of the first Gauss-Newton step
    reports the start's SSE plus ``rises[k]`` times it (``None``: a
    degenerate projection); a rise of -1e-9 is a success too small to try
    a second step.  The real fits give each trial its direction, spline
    and residual.
    """

    HALVING = [0.04 / 2**k for k in range(11)]

    @staticmethod
    def run(monkeypatch, degree: int, rises: list):
        """Fit one start; return the trial directions, the number of
        Gauss-Newton steps, the SSE and ridge, and the start's SSE."""
        real_solve = singleindex._solve_at_theta
        real_delta = singleindex.gauss_newton_delta
        thetas: list = []
        deltas: list = []

        def solve(X_A, residuals, kv, theta):
            state = real_solve(X_A, residuals, kv, theta)
            thetas.append(theta)
            if len(thetas) == 1:
                return state
            rise = rises[len(thetas) - 2]
            if rise is None:
                return None
            scaler, v, sol = state
            return scaler, v, replace(sol, sse=base * (1.0 + rise))

        def delta(residual, jacobian):
            deltas.append(None)
            return real_delta(residual, jacobian)

        monkeypatch.setattr(singleindex, "_solve_at_theta", solve)
        monkeypatch.setattr(singleindex, "gauss_newton_delta", delta)
        rng = np.random.default_rng(30)
        X = rng.uniform(-1.0, 1.0, (150, 3))
        y = np.tanh(2.0 * X[:, 0] - X[:, 2]) + 0.05 * rng.standard_normal(150)
        theta0 = np.array([0.6, 0.8, 0.0])
        kv = make_uniform_knots(8, degree)
        base = real_solve(X, y, kv, theta0)[2].sse
        sse, ridge = singleindex._fit_from_start(X, y, kv, theta0,
                                                 np.arange(3))
        return thetas[1:], len(deltas), sse, ridge, base

    @pytest.mark.parametrize("rises, trials", [
        # The full step overshoots; the second and third halve in turn.
        ([0.3, 0.01, 0.005] + HALVING[3:], 3),
        # Every trial rises half as much as the one before.
        (HALVING, 2),
        # A degenerate trial has no rise, so the ratio after it is the
        # next trial's, not 0.02 / 0.04.
        ([0.04, None, 0.02, 0.01] + HALVING[4:], 4),
    ])
    def test_proportional_rises_end_the_start(
        self, monkeypatch, rises, trials
    ) -> None:
        thetas, deltas, sse, ridge, base = self.run(monkeypatch, 3, rises)
        assert len(thetas) == trials
        # The step ended as if exhausted: no second step, the start kept.
        assert (deltas, sse) == (1, base)
        assert ridge.theta.tolist() == [0.6, 0.8, 0.0]

    @pytest.mark.parametrize("ratios", [
        [0.3, 0.7, 0.3, 0.7, 0.3],
        [0.39, 0.61, 0.39, 0.61, 0.2],
        [1.0, 0.1, 0.65, 0.35, 2.0],
    ])
    def test_other_ratios_keep_a_late_success(
        self, monkeypatch, ratios
    ) -> None:
        rises = [0.04]
        for ratio in ratios:
            rises.append(rises[-1] * ratio)
        rises += [-1e-9] + self.HALVING[7:]
        thetas, deltas, sse, ridge, base = self.run(monkeypatch, 3, rises)
        assert len(thetas) == 7
        assert sse == base * (1.0 - 1e-9)
        assert ridge.theta.tobytes() == thetas[6].tobytes()

    def test_degree_one_never_ends_early(self, monkeypatch) -> None:
        thetas, deltas, sse, ridge, base = self.run(
            monkeypatch, 1, self.HALVING
        )
        assert len(thetas) == singleindex._MAX_HALVINGS + 1
        assert (deltas, sse) == (1, base)

    def test_slopes_take_the_solved_placement(self, monkeypatch) -> None:
        """Each slope evaluation gets the points its solve placed."""
        from eppr.spline import LocatedPoints

        real_deriv = singleindex.basis_deriv_matrix
        placed: list = []

        def deriv(kv, v, coeffs):
            placed.append(isinstance(v, LocatedPoints)
                          and v.span is not None)
            return real_deriv(kv, v, coeffs)

        monkeypatch.setattr(singleindex, "basis_deriv_matrix", deriv)
        # The first step halves the SSE; the second step's trials rise in
        # proportion, so the start has two steps and ends.
        rises = [-0.5] + [h - 0.5 for h in self.HALVING]
        thetas, deltas, _, _, _ = self.run(monkeypatch, 3, rises)
        assert (len(thetas), deltas) == (3, 2)
        assert placed == [True, True]

    def test_degree_one_keeps_a_late_success(self, monkeypatch) -> None:
        rises = self.HALVING[:6] + [-1e-9] + self.HALVING[7:]
        thetas, deltas, sse, ridge, base = self.run(monkeypatch, 1, rises)
        assert len(thetas) == 7
        assert sse == base * (1.0 - 1e-9)
        assert ridge.theta.tobytes() == thetas[6].tobytes()


def reference_transform(scaler: ProjectionScaler, z):
    """The expression ``ProjectionScaler.transform`` computed in one line."""
    return np.clip(
        2.0 * (z - scaler.lo) / (scaler.hi - scaler.lo) - 1.0, -1.0, 1.0
    )


def reference_unit(vec: np.ndarray) -> np.ndarray | None:
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12 or not np.isfinite(norm):
        return None
    return vec / norm


class TestRewriteMatchesReference:
    """In-place and wrapper-free helpers against the expressions they replaced."""

    SCALERS = [ProjectionScaler(-0.37, 1.91), ProjectionScaler(2.0, 6.0),
               ProjectionScaler(-3e-7, 5e-7)]

    @pytest.mark.parametrize("scaler", SCALERS)
    def test_transform_in_and_out_of_range(self, scaler) -> None:
        rng = np.random.default_rng(21)
        span = scaler.hi - scaler.lo
        inside = rng.uniform(scaler.lo, scaler.hi, 500)
        outside = np.concatenate([
            scaler.lo - span * rng.uniform(0.0, 3.0, 50),
            scaler.hi + span * rng.uniform(0.0, 3.0, 50),
        ])
        for z in (inside, outside, np.array([scaler.lo, scaler.hi]),
                  np.empty(0)):
            before = z.copy()
            got = scaler.transform(z)
            assert got.dtype == np.float64 and got.shape == z.shape
            assert got.tobytes() == reference_transform(scaler, z).tobytes()
            assert np.array_equal(z, before)

    @pytest.mark.parametrize("scaler", SCALERS)
    def test_transform_scalars(self, scaler) -> None:
        span = scaler.hi - scaler.lo
        for z in (scaler.lo, scaler.hi, scaler.lo + 0.3 * span,
                  scaler.lo - span, scaler.hi + 2.0 * span):
            got = scaler.transform(z)
            expected = reference_transform(scaler, z)
            assert got == expected
            assert type(got) is type(expected)

    def test_unit_bit_identical(self) -> None:
        from eppr.singleindex import _unit

        rng = np.random.default_rng(22)
        vectors = [rng.standard_normal(q) * scale
                   for q in range(1, 10) for scale in (1e-9, 1.0, 1e150)]
        vectors += [theta + step for theta, step in zip(
            vectors[::2], vectors[1::2]) if theta.shape == step.shape]
        for vec in vectors:
            got, expected = _unit(vec), reference_unit(vec)
            assert got is not None and got.tobytes() == expected.tobytes()
        for vec in (np.zeros(3), np.full(2, 1e-14), np.array([np.nan, 1.0]),
                    np.array([np.inf, 0.0])):
            assert _unit(vec) is None and reference_unit(vec) is None


@pytest.mark.parametrize("J, degree", [(10, 3), (6, 1), (9, 2)])
def test_slope_path_takes_the_dense_products_steps(
    monkeypatch, J: int, degree: int
) -> None:
    """The fit's slopes from per-span coefficients against the dense design.

    One fixed problem is fitted with ``basis_deriv_matrix(kv, v, coeffs)``
    and again with the dense ``basis_deriv_matrix(kv, v) @ coeffs`` in its
    place; the slopes differ in the last bits only, so both fits make the
    same solves and end at the same SSE to rounding.
    """
    real_deriv = singleindex.basis_deriv_matrix
    real_solve = singleindex.solve_ridge_ls
    rng = np.random.default_rng(40 + degree)
    X = rng.uniform(-1.0, 1.0, (400, 5))
    theta = np.array([0.6, -0.3, 0.0, 0.7, 0.2])
    y = np.sin(2.5 * (X @ theta)) + 0.1 * rng.standard_normal(400)
    kv = make_uniform_knots(J, degree)

    def fit(dense: bool) -> tuple[int, int, float]:
        counts = {"solves": 0, "slopes": 0}

        def solve(*args):
            counts["solves"] += 1
            return real_solve(*args)

        def deriv(kv, v, coeffs):
            counts["slopes"] += 1
            if dense:
                return real_deriv(kv, v) @ coeffs
            return real_deriv(kv, v, coeffs)

        monkeypatch.setattr(singleindex, "solve_ridge_ls", solve)
        monkeypatch.setattr(singleindex, "basis_deriv_matrix", deriv)
        _, sse = fit_single_index(
            X, y, kv, SingleIndexOptions(rng=np.random.default_rng(41))
        )
        return counts["solves"], counts["slopes"], sse

    solves, slopes, sse = fit(dense=False)
    dense_solves, dense_slopes, dense_sse = fit(dense=True)
    assert slopes > singleindex._N_STARTS  # some start took several steps
    assert (solves, slopes) == (dense_solves, dense_slopes)
    assert abs(sse - dense_sse) <= 1e-12 * dense_sse
