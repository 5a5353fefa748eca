"""The span-local spline kernel against the dense Cox-de Boor triangle.

The reference below is the full-width recurrence the kernel replaced: it
sweeps every column at every degree and is kept here only as an oracle.
"""

import numpy as np
import pytest

from eppr import singleindex, spline
from eppr.singleindex import ProjectionScaler, Ridge, eval_ridge_batch
from eppr.spline import (
    KnotVector,
    basis_deriv_matrix,
    basis_matrix,
    locate,
    make_uniform_knots,
)

# (40, 10) has the largest degree FitConfig allows; the largest J, 500, is
# in COEFF_CASES and test_largest_J_matches_reference.
CASES = [(2, 1), (4, 0), (4, 3), (6, 3), (7, 3), (9, 3), (12, 2), (30, 3),
         (8, 5), (40, 10)]
TOL = 1e-13


def reference_spans(kv: KnotVector, v: np.ndarray) -> np.ndarray:
    spans = np.searchsorted(kv.knots, v, side="right") - 1
    return np.clip(spans, kv.degree, kv.basis_count - 1)


def reference_recurrence(
    kv: KnotVector, v: np.ndarray, upto: int
) -> np.ndarray:
    """Cox-de Boor triangle, returning the degree-``upto`` stage."""
    T = kv.knots
    n_pts = v.size
    stage = np.zeros((n_pts, kv.basis_count + kv.degree))
    stage[np.arange(n_pts), reference_spans(kv, v)] = 1.0
    for deg in range(1, upto + 1):
        cols = kv.basis_count + kv.degree - deg
        nxt = np.zeros((n_pts, cols))
        for j in range(cols):
            den_l = T[j + deg] - T[j]
            den_r = T[j + deg + 1] - T[j + 1]
            if den_l > 0.0:
                nxt[:, j] += (v - T[j]) / den_l * stage[:, j]
            if den_r > 0.0:
                nxt[:, j] += (T[j + deg + 1] - v) / den_r * stage[:, j + 1]
        stage = nxt
    return stage


def reference_basis(kv: KnotVector, v: np.ndarray) -> np.ndarray:
    return reference_recurrence(kv, v, kv.degree)


def reference_deriv(kv: KnotVector, v: np.ndarray) -> np.ndarray:
    lower = reference_recurrence(kv, v, kv.degree - 1)
    T = kv.knots
    d = kv.degree
    out = np.zeros((v.size, kv.basis_count))
    for j in range(kv.basis_count):
        den_l = T[j + d] - T[j]
        den_r = T[j + d + 1] - T[j + 1]
        if den_l > 0.0:
            out[:, j] += d / den_l * lower[:, j]
        if den_r > 0.0:
            out[:, j] -= d / den_r * lower[:, j + 1]
    return out


def probe_points(kv: KnotVector, draws: int = 10_000) -> np.ndarray:
    """+-1, every breakpoint and its neighbours, and uniform draws."""
    breaks = np.unique(kv.knots)
    below = np.nextafter(breaks[1:], -np.inf)
    above = np.nextafter(breaks[:-1], np.inf)
    uniform = np.random.default_rng(kv.basis_count * 10 + kv.degree).uniform(
        -1.0, 1.0, draws
    )
    return np.concatenate([[-1.0, 1.0], breaks, below, above, uniform])


@pytest.mark.parametrize("J, degree", CASES)
class TestKernelMatchesReference:
    def test_basis_within_tolerance(self, J: int, degree: int) -> None:
        kv = make_uniform_knots(J, degree)
        v = probe_points(kv)
        err = np.abs(basis_matrix(kv, v) - reference_basis(kv, v))
        assert err.max() <= TOL

    def test_derivative_within_tolerance(self, J: int, degree: int) -> None:
        kv = make_uniform_knots(J, degree)
        v = probe_points(kv)
        if degree == 0:
            return  # no fit builds a degree-0 basis, which has no derivative
        err = np.abs(basis_deriv_matrix(kv, v) - reference_deriv(kv, v))
        assert err.max() <= TOL

    def test_zero_outside_support(self, J: int, degree: int) -> None:
        kv = make_uniform_knots(J, degree)
        v = probe_points(kv)
        T = kv.knots
        j = np.arange(J)
        outside = (v[:, None] < T[j]) | (v[:, None] > T[j + degree + 1])
        assert np.all(basis_matrix(kv, v)[outside] == 0.0)
        if degree > 0:
            assert np.all(basis_deriv_matrix(kv, v)[outside] == 0.0)

    def test_endpoint_rows_one_hot(self, J: int, degree: int) -> None:
        kv = make_uniform_knots(J, degree)
        rows = basis_matrix(kv, np.array([-1.0, 1.0]))
        expected = np.zeros((2, J))
        expected[0, 0] = 1.0
        expected[1, -1] = 1.0
        assert np.array_equal(rows, expected)


def test_largest_J_matches_reference() -> None:
    # At J = 500 a basis derivative reaches d (J - d) / 2 = 745, whose ulp,
    # 1.1e-13, exceeds TOL, so the dense derivative rows are held to the
    # slope tolerance's scale, d (J - d) for unit coefficients.
    kv = make_uniform_knots(500, 3)
    v = probe_points(kv)
    assert np.abs(basis_matrix(kv, v) - reference_basis(kv, v)).max() <= TOL
    deriv = basis_deriv_matrix(kv, v)
    err = np.abs(deriv - reference_deriv(kv, v)).max()
    assert err <= SLOPE_TOL * 3 * 497
    j = np.arange(500)
    outside = (v[:, None] < kv.knots[j]) | (v[:, None] > kv.knots[j + 4])
    assert np.all(deriv[outside] == 0.0)


def reference_evaluate(kv: KnotVector, v: np.ndarray) -> np.ndarray:
    """The span-local evaluation as first written, with numpy's wrappers.

    It contracts points-first, over the [span, Bernstein index, local
    function] layout the tables had before they were stored points-last.
    """
    from eppr.spline import _bernstein

    d = kv.degree
    J = kv.basis_count
    first = np.searchsorted(kv.knots[d + 1:J], v, side="right")
    t = (v - np.take(kv.knots[d:J], first)) / np.take(kv._span_width, first)
    local = np.einsum(
        "nk,nkj->nj",
        _bernstein(t, d).T,
        np.take(kv._value_table.transpose(2, 0, 1), first, axis=0),
    )
    out = np.zeros((v.size, J))
    cols = (np.arange(0, v.size * J, J) + first)[:, None] + np.arange(d + 1)
    out.reshape(-1)[cols] = local
    return out


@pytest.mark.parametrize("degree", [1, 3, 5])
@pytest.mark.parametrize("spans", [1, 9, 27])
class TestKernelMatchesWrappedKernel:
    """Bit for bit the evaluation before numpy's wrappers were stripped."""

    @staticmethod
    def points(kv: KnotVector) -> dict:
        rng = np.random.default_rng(31 + kv.degree)
        return {
            "knots": np.unique(kv.knots),
            "ends": np.array([-1.0, 1.0, 1.0, -1.0]),
            "random": rng.uniform(-1.0, 1.0, 2_000),
            # The batch size predict evaluates per ridge.
            "bulk": rng.uniform(-1.0, 1.0, 20_000),
        }

    @pytest.mark.parametrize("kind", ["value"])
    def test_bit_identical(self, spans: int, degree: int, kind: str) -> None:
        kv = make_uniform_knots(degree + spans, degree)
        for name, v in self.points(kv).items():
            got, expected = basis_matrix(kv, v), reference_evaluate(kv, v)
            assert got.shape == expected.shape, name
            assert got.tobytes() == expected.tobytes(), name


# Bernstein-form spline values against the dense design times the
# coefficients.  Both round differently, so they agree to a tolerance
# relative to the largest coefficient, not bit for bit.  The coefficient
# path places points by arithmetic, which needs a continuous spline, so it
# takes degree >= 1 only.
COEFF_CASES = [case for case in CASES if case[1] >= 1] + [
    (9, 5), (40, 3), (500, 3)]
COEFF_TOL = 1e-14


@pytest.mark.parametrize("J, degree", COEFF_CASES)
class TestCoefficientPath:
    @staticmethod
    def coefficient_sets(J: int, degree: int) -> dict:
        rng = np.random.default_rng(97 * J + degree)
        return {
            "normal": rng.normal(size=J),
            "wide": rng.normal(size=J) * 10.0 ** rng.uniform(-6, 6, J),
            "constant": np.full(J, -2.5),
            "one_hot": np.eye(J)[J // 2],
        }

    def test_matches_dense_product(self, J: int, degree: int) -> None:
        kv = make_uniform_knots(J, degree)
        v = probe_points(kv, draws=20_000)
        dense = basis_matrix(kv, v)
        for name, coeffs in self.coefficient_sets(J, degree).items():
            got = basis_matrix(kv, v, coeffs)
            assert got.shape == v.shape, name
            err = np.abs(got - dense @ coeffs).max()
            assert err <= COEFF_TOL * np.abs(coeffs).max(), name

    def test_huge_coefficients_stay_finite(self, J: int, degree: int) -> None:
        # Each value is a convex combination of the coefficients, so it
        # cannot overflow; rounding may exceed max|coeffs| by a few ulps,
        # as the dense product does.  Each vector alone, then all three as
        # one stack.
        kv = make_uniform_knots(J, degree)
        v = probe_points(kv, draws=20_000)
        signs = np.random.default_rng(J + degree).choice([-1.0, 1.0], J)
        stack = np.stack([np.full(J, 1e308), np.full(J, -1e308),
                          1e308 * signs])
        for coeffs, points in [*((row, v) for row in stack),
                               (stack, np.tile(v, 3))]:
            got = basis_matrix(kv, points, coeffs)
            assert np.all(np.isfinite(got))
            assert np.abs(got).max() <= 1e308 * (1.0 + COEFF_TOL)

    @pytest.mark.parametrize("R", [1, 2, 7])
    def test_stack_matches_dense_product(
        self, J: int, degree: int, R: int
    ) -> None:
        # R splines at once, each on its own order of the probe points.
        kv = make_uniform_knots(J, degree)
        probes = probe_points(kv, draws=2_000)
        rng = np.random.default_rng(R)
        sets = list(self.coefficient_sets(J, degree).values())
        stack = np.stack([sets[r % len(sets)] * (r + 1) for r in range(R)])
        points = np.stack([rng.permutation(probes) for _ in range(R)])
        got = basis_matrix(kv, points.reshape(-1), stack)
        assert got.shape == (R * probes.size,)
        for row, v, coeffs in zip(got.reshape(R, -1), points, stack):
            err = np.abs(row - basis_matrix(kv, v) @ coeffs).max()
            assert err <= COEFF_TOL * np.abs(coeffs).max()

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_rows_around_a_chunk(
        self, J: int, degree: int, extra: int
    ) -> None:
        # Seven ridges, each reading one predictor with a unit direction,
        # so the projection is exact and the dense reference sees the
        # same scaled points; the rows end one before, at and one after a
        # chunk boundary.
        kv = make_uniform_knots(J, degree)
        R, p = 7, 4
        rows = singleindex._CHUNK_ROWS + extra
        rng = np.random.default_rng([J, degree, extra + 1])
        X = rng.uniform(-1.0, 1.0, (rows, p))
        ridges = [
            Ridge(subset=np.array([r % p]), theta=np.array([1.0]),
                  scaler=ProjectionScaler(-1.0 + 0.1 * r, 0.5 + 0.1 * r),
                  coeffs=rng.normal(size=J), knots=kv)
            for r in range(R)
        ]
        got = eval_ridge_batch(ridges, X)
        assert got.shape == (R, rows)
        for values, ridge in zip(got, ridges):
            v = ridge.scaler.transform(X[:, ridge.subset[0]])
            expected = basis_matrix(kv, v) @ ridge.coeffs
            err = np.abs(values - expected).max()
            assert err <= COEFF_TOL * np.abs(ridge.coeffs).max()
            assert eval_ridge_batch(ridge, X).shape == (rows,)


# Slopes from per-span Bernstein coefficients against the dense derivative
# design times the coefficients.  A slope is of order max|coeffs| times
# d (J - d), the largest basis derivative on knots 2 / (J - d) apart, so
# the tolerance scales with that; the worst measured error over the grid
# below is 2.6e-16 of it.
SLOPE_TOL = 2e-15


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 10])
class TestSlopeCoefficientPath:
    def test_matches_dense_product(self, degree: int) -> None:
        for J in range(degree + 1, 31):
            kv = make_uniform_knots(J, degree)
            v = probe_points(kv, draws=2_000)
            dense = basis_deriv_matrix(kv, v)
            sets = TestCoefficientPath.coefficient_sets(J, degree)
            for name, coeffs in sets.items():
                got = basis_deriv_matrix(kv, v, coeffs)
                assert got.shape == v.shape, (J, name)
                err = np.abs(got - dense @ coeffs).max()
                scale = np.abs(coeffs).max() * degree * (J - degree)
                assert err <= SLOPE_TOL * scale, (J, name)


def test_degree_one_slope_takes_the_right_limit() -> None:
    # A degree-1 spline is piecewise linear, so its slope jumps at every
    # interior knot; the slope there is the one of the span to its right,
    # and at v = 1 the one of the last span.
    for J in (3, 4, 7, 12):
        kv = make_uniform_knots(J, 1)
        coeffs = np.random.default_rng(J).normal(size=J)
        knots = kv.knots[2:J]
        at = basis_deriv_matrix(kv, knots, coeffs)
        right = basis_deriv_matrix(kv, np.nextafter(knots, np.inf), coeffs)
        left = basis_deriv_matrix(kv, np.nextafter(knots, -np.inf), coeffs)
        assert at.tobytes() == right.tobytes()
        assert np.all(at != left)
        ends = basis_deriv_matrix(
            kv, np.array([1.0, np.nextafter(1.0, 0.0)]), coeffs
        )
        assert ends[0] == ends[1]


@pytest.mark.parametrize("J, degree", [(6, 1), (7, 3), (9, 2), (12, 5),
                                       (30, 3)])
def test_located_points_give_the_searched_bits(J: int, degree: int) -> None:
    """Points that carry their placement give the bits of a new search.

    The fit places its projections once, for the dense value rows, and the
    slopes at the same points reuse that placement.  ``v`` holds -1, 1,
    every interior knot and its neighbours.
    """
    kv = make_uniform_knots(J, degree)
    v = probe_points(kv, draws=2_000)
    located = locate(kv, v)
    assert located.tobytes() == v.tobytes()
    assert np.array_equal(located.span, reference_spans(kv, v) - degree)
    coeffs = np.random.default_rng(J).normal(size=J)
    # The value rows first, as in the fit: they must leave the placement
    # as they found it for the slopes.
    assert basis_matrix(kv, located).tobytes() == basis_matrix(kv, v).tobytes()
    assert (basis_deriv_matrix(kv, located, coeffs).tobytes()
            == basis_deriv_matrix(kv, v, coeffs).tobytes())
    # The dense rows and a derived array search again, with the same bits.
    assert (basis_deriv_matrix(kv, located).tobytes()
            == basis_deriv_matrix(kv, v).tobytes())
    assert (basis_deriv_matrix(kv, located[::-1], coeffs).tobytes()
            == basis_deriv_matrix(kv, v[::-1], coeffs).tobytes())


def test_located_points_skip_the_search(monkeypatch) -> None:
    kv = make_uniform_knots(7, 3)
    v = probe_points(kv, draws=100)
    located = locate(kv, v)
    coeffs = np.arange(7.0)
    searched: list = []

    def counting(kv, points):
        searched.append(points.size)
        return locate(kv, points)

    monkeypatch.setattr(spline, "locate", counting)
    basis_matrix(kv, located)
    basis_deriv_matrix(kv, located, coeffs)
    assert searched == []
    basis_matrix(kv, v)
    basis_deriv_matrix(kv, v, coeffs)
    assert searched == [v.size, v.size]
