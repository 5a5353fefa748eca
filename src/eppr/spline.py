"""Clamped B-spline bases on [-1, 1] with quasi-uniform interior knots.

Evaluation is span-local.  Each ``KnotVector`` builds, once, the Bernstein
coefficients of the ``degree + 1`` basis pieces that are non-zero on each
knot span, for the values and for the first derivatives (de Boor, *A
Practical Guide to Splines*; Piegl & Tiller, *The NURBS Book*, A2.2/A2.3).
A point is then located by one binary search, its local coordinate
t = (v - T[span]) / (T[span+1] - T[span]) weights the span's table, and the
``degree + 1`` results are scattered into a dense row whose other entries
are exactly zero.

One-sided limits: at an interior knot the basis takes its right limit; at
v = 1 it takes its left limit, so the clamped endpoint value is 1 for the
last basis function (and exactly 1 for the first one at v = -1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# Largest allowed ratio between adjacent breakpoint spacings.
_MESH_RATIO_TOL = 1.0 + 1e-12


@dataclass(frozen=True)
class KnotVector:
    """Clamped knot sequence on [-1, 1].

    ``knots`` has length ``basis_count + degree + 1`` with each endpoint
    repeated ``degree + 1`` times and ``interior_count`` knots strictly
    inside (-1, 1).
    """

    degree: int
    interior_count: int
    knots: np.ndarray = field(repr=False)
    basis_count: int
    # Span-local tables, built once in __post_init__ (see _span_tables).
    _span_width: np.ndarray = field(init=False, repr=False, compare=False)
    _value_table: np.ndarray = field(init=False, repr=False, compare=False)
    _deriv_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ConfigError(f"degree must be >= 0, got {self.degree}")
        if self.basis_count != self.interior_count + self.degree + 1:
            raise ConfigError(
                "basis_count must equal interior_count + degree + 1"
            )
        knots = np.asarray(self.knots, dtype=float)
        object.__setattr__(self, "knots", knots)
        if knots.shape != (self.basis_count + self.degree + 1,):
            raise ConfigError("knot sequence has the wrong length")
        if np.any(np.diff(knots) < 0):
            raise ConfigError("knots must be non-decreasing")
        if not (np.all(knots[: self.degree + 1] == -1.0)
                and np.all(knots[-(self.degree + 1):] == 1.0)):
            raise ConfigError("endpoints must be knots of multiplicity degree + 1")
        breaks = np.unique(knots)
        gaps = np.diff(breaks)
        if gaps.size > 1 and gaps.max() > gaps.min() * _MESH_RATIO_TOL:
            raise ConfigError("interior knot spacing must be quasi-uniform")
        width, values, derivs = _span_tables(
            knots, self.degree, self.basis_count
        )
        object.__setattr__(self, "_span_width", width)
        object.__setattr__(self, "_value_table", values)
        object.__setattr__(self, "_deriv_table", derivs)


def _times_linear(
    p: np.ndarray, at0: np.ndarray, at1: np.ndarray
) -> np.ndarray:
    """Product of Bernstein polynomials ``p`` with the linear (at0, at1).

    ``p`` has shape (spans, k) for degree k - 1; the result has degree k.
    The end coefficients are the plain products at0 * p[0] and at1 * p[-1].
    """
    k = p.shape[1]
    out = np.zeros((p.shape[0], k + 1))
    out[:, :k] = (np.arange(k, 0, -1) / k) * (at0[:, None] * p)
    out[:, 1:] += (np.arange(1, k + 1) / k) * (at1[:, None] * p)
    return out


def _span_tables(
    T: np.ndarray, d: int, basis_count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bernstein coefficients of the non-zero basis pieces on every span.

    Runs the Cox-de Boor recurrence on coefficient arrays instead of point
    values: the weight (v - T[j]) / (T[j+k] - T[j]) is linear on a span, so
    each stage multiplies the previous one by a linear polynomial.  Tables
    are indexed [span - degree, Bernstein index, local function]; local
    function a on span s is B_{s-d+a}.  The end coefficients are formed by
    the same operations as point evaluation at the span ends, which keeps
    the endpoint rows exactly one-hot.  The binomial factors are folded in.
    """
    spans = np.arange(d, basis_count)
    lo, hi = T[spans], T[spans + 1]
    stage = np.ones((spans.size, 1, 1))
    lower = stage
    for k in range(1, d + 1):
        lower = stage
        stage = np.zeros((spans.size, k + 1, k + 1))
        for a in range(k + 1):
            j = spans - k + a
            if a > 0:
                den = T[j + k] - T[j]
                stage[:, :, a] += _times_linear(
                    lower[:, :, a - 1], (lo - T[j]) / den, (hi - T[j]) / den
                )
            if a < k:
                den = T[j + k + 1] - T[j + 1]
                stage[:, :, a] += _times_linear(
                    lower[:, :, a],
                    (T[j + k + 1] - lo) / den,
                    (T[j + k + 1] - hi) / den,
                )
    # d/dv B_{j,d} = d B_{j,d-1} / (T[j+d] - T[j])
    #              - d B_{j+1,d-1} / (T[j+d+1] - T[j+1]), on degree d - 1.
    derivs = np.zeros((spans.size, d, d + 1))
    for a in range(d + 1):
        j = spans - d + a
        if a > 0:
            den = (T[j + d] - T[j])[:, None]
            derivs[:, :, a] += d / den * lower[:, :, a - 1]
        if a < d:
            den = (T[j + d + 1] - T[j + 1])[:, None]
            derivs[:, :, a] -= d / den * lower[:, :, a]
    derivs *= _binomials(d - 1)[:, None]
    stage *= _binomials(d)[:, None]
    width = hi - lo
    for arr in (width, stage, derivs):
        arr.setflags(write=False)
    return width, stage, derivs


def _binomials(n: int) -> np.ndarray:
    return np.array([math.comb(n, i) for i in range(n + 1)], dtype=float)


def make_uniform_knots(basis_count: int, degree: int) -> KnotVector:
    """Build the clamped knot vector with equally spaced breakpoints.

    ``basis_count`` (J) is the dimension of the spline space; there are
    ``J - degree`` polynomial pieces on [-1, 1].
    """
    if degree < 0:
        raise ConfigError(f"degree must be >= 0, got {degree}")
    if basis_count < degree + 1:
        raise ConfigError(
            f"basis_count must be at least degree + 1, got {basis_count}"
        )
    pieces = basis_count - degree
    breaks = np.linspace(-1.0, 1.0, pieces + 1)
    knots = np.concatenate([
        np.full(degree + 1, -1.0),
        breaks[1:-1],
        np.full(degree + 1, 1.0),
    ])
    return KnotVector(
        degree=degree,
        interior_count=pieces - 1,
        knots=knots,
        basis_count=basis_count,
    )


def _check_points(v: np.ndarray) -> np.ndarray:
    v = np.ascontiguousarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("v must be one-dimensional")
    if v.size and (np.min(v) < -1.0 or np.max(v) > 1.0):
        raise ValueError("evaluation points must lie in [-1, 1]")
    return v


def _bernstein(t: np.ndarray, degree: int) -> np.ndarray:
    """Rows t**i (1 - t)**(degree - i), i = 0..degree (no binomial factor).

    Only products are formed, so t = 0 and t = 1 give exact unit rows.
    """
    u = 1.0 - t
    out = np.empty((t.size, degree + 1))
    out[:, 0] = 1.0
    for i in range(1, degree + 1):
        np.multiply(out[:, i - 1], t, out=out[:, i])
    rev = u
    for i in range(degree - 1, -1, -1):
        out[:, i] *= rev
        if i:
            rev = rev * u
    return out


def _evaluate(kv: KnotVector, v: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Dense ``(len(v), basis_count)`` matrix from a span-local table.

    The span of v counts the interior knots <= v, so an interior knot takes
    its right limit and v = 1 stays on the last span (its left limit).
    Only the ``degree + 1`` functions non-zero on that span are evaluated;
    every other entry is exactly 0.
    """
    d = kv.degree
    J = kv.basis_count
    first = np.searchsorted(kv.knots[d + 1:J], v, side="right")
    t = (v - np.take(kv.knots[d:J], first)) / np.take(kv._span_width, first)
    local = np.einsum(
        "nk,nkj->nj",
        _bernstein(t, table.shape[1] - 1),
        np.take(table, first, axis=0),
    )
    out = np.zeros((v.size, J))
    cols = (np.arange(0, v.size * J, J) + first)[:, None] + np.arange(d + 1)
    out.reshape(-1)[cols] = local
    return out


def basis_matrix(kv: KnotVector, v: np.ndarray) -> np.ndarray:
    """Evaluate all basis functions at each point of ``v``.

    Returns an array of shape ``(len(v), basis_count)`` whose rows sum to 1.
    """
    return _evaluate(kv, _check_points(v), kv._value_table)


def basis_deriv_matrix(kv: KnotVector, v: np.ndarray) -> np.ndarray:
    """Evaluate first derivatives of all basis functions at each point.

    Uses the same one-sided limit convention as ``basis_matrix``; rows sum
    to 0.  Requires ``degree >= 1``.
    """
    if kv.degree < 1:
        raise ValueError("derivative requires degree >= 1")
    return _evaluate(kv, _check_points(v), kv._deriv_table)
