"""The span-local spline kernel against the dense Cox-de Boor triangle.

The reference below is the full-width recurrence the kernel replaced: it
sweeps every column at every degree and is kept here only as an oracle.
"""

import numpy as np
import pytest

from eppr.spline import (
    KnotVector,
    basis_deriv_matrix,
    basis_matrix,
    make_uniform_knots,
)

CASES = [(2, 1), (4, 0), (4, 3), (6, 3), (7, 3), (9, 3), (12, 2), (30, 3),
         (8, 5)]
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


def probe_points(kv: KnotVector) -> np.ndarray:
    """+-1, every breakpoint and its neighbours, and 10k uniform draws."""
    breaks = np.unique(kv.knots)
    below = np.nextafter(breaks[1:], -np.inf)
    above = np.nextafter(breaks[:-1], np.inf)
    uniform = np.random.default_rng(kv.basis_count * 10 + kv.degree).uniform(
        -1.0, 1.0, 10_000
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
            with pytest.raises(ValueError, match="degree"):
                basis_deriv_matrix(kv, v)
            return
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
