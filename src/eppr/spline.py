"""Clamped B-spline bases on [-1, 1], uniform knots built from (J, degree).

Evaluation is span-local.  ``make_uniform_knots`` builds, once per knot
vector, the Bernstein coefficients of the ``degree + 1`` basis pieces that
are non-zero on each knot span by one recurrence, and their slopes as the
scaled differences of those coefficients (de Boor, *A Practical Guide to
Splines*; Farin, *Curves and Surfaces for CAGD*; Piegl & Tiller, *The
NURBS Book*, A2.2).
For the dense value rows the fit's least-squares solves use, a point is
located by one binary search, its local coordinate t = (v - T[span]) /
(T[span+1] - T[span]) weights the span's table, and the ``degree + 1``
results are scattered into a dense row whose other entries are exactly
zero.

Given the coefficients of one spline or of a stack of splines,
``basis_matrix`` and ``basis_deriv_matrix`` skip the dense rows: one
product with the value (or derivative) pieces without their binomial
factors turns the coefficients into each span's Bernstein coefficients, of
degree d (or d - 1), and a point dots one row of Bernstein weights
(binomials included) with its span's.  Values, which prediction evaluates,
place a point by arithmetic on the uniform breakpoints instead of a
search; both steps are convex combinations, so a value stays within the
range of the coefficients, up to rounding.  Slopes, which the fit's
Gauss-Newton step evaluates, keep the binary search, so a degree-1 slope,
which jumps at every knot, takes its one-sided limits as below.  Dense
derivative rows are the slopes of the J unit coefficient vectors.  The fit
places its points once: ``locate`` returns them as ``LocatedPoints``, which
carry their spans and local coordinates into both the dense value rows and
the slopes at the same points.

The value table is stored points-last, indexed [Bernstein index, local
function, span], so gathering the spans of n points gives a block with n
last and every inner loop of the evaluation runs along the n points, not
along the d + 1 entries of one point (4 for the default cubic).

One-sided limits: at an interior knot the basis takes its right limit; at
v = 1 it takes its left limit, so the clamped endpoint value is 1 for the
last basis function (and exactly 1 for the first one at v = -1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class KnotVector:
    """Clamped uniform knot sequence on [-1, 1] and its span tables.

    ``make_uniform_knots`` builds every one, and each array it passes in is
    read-only.  ``knots`` repeats each endpoint ``degree + 1`` times around
    ``basis_count - degree - 1`` equally spaced breakpoints strictly inside
    (-1, 1).  Two knot vectors compare and hash on ``(degree,
    basis_count)`` alone, which determine the rest.  ``FitConfig.validate``
    ensures ``basis_count >= degree + 1 >= 2``; this class does not check.
    """

    degree: int
    basis_count: int
    knots: np.ndarray = field(repr=False, compare=False)
    # The knot slices and local column offsets every evaluation reads, then
    # the span-local tables in the order _span_tables returns them.
    _span_lo: np.ndarray = field(repr=False, compare=False)
    _inner_knots: np.ndarray = field(repr=False, compare=False)
    _local_cols: np.ndarray = field(repr=False, compare=False)
    _span_width: np.ndarray = field(repr=False, compare=False)
    _control_matrix: np.ndarray = field(repr=False, compare=False)
    _deriv_control: np.ndarray = field(repr=False, compare=False)
    _value_table: np.ndarray = field(repr=False, compare=False)


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
) -> tuple[np.ndarray, ...]:
    """Bernstein coefficients of the non-zero basis pieces on every span.

    Runs the Cox-de Boor recurrence on coefficient arrays instead of point
    values: the weight (v - T[j]) / (T[j+k] - T[j]) is linear on a span, so
    each stage multiplies the previous one by a linear polynomial.  The
    recurrence runs on [span - degree, Bernstein index, local function];
    the value table is a contiguous copy indexed [Bernstein index, local
    function, span - degree], with the binomial factors folded in.  Local
    function a on span s is B_{s-d+a}.  The end coefficients are formed by
    the same operations as point evaluation at the span ends, which keeps
    the endpoint rows exactly one-hot.  Derivative piece k on span s is
    d / (T[s+1] - T[s]) times value piece k + 1 less value piece k.  The
    two control matrices hold the value and derivative pieces without their
    binomial factors (the value pieces sum to one at every Bernstein
    index), indexed [spline coefficient, (Bernstein index, span - degree)].
    """
    spans = np.arange(d, basis_count)
    lo, hi = T[spans], T[spans + 1]
    stage = np.ones((spans.size, 1, 1))
    for k in range(1, d + 1):
        lower, stage = stage, np.zeros((spans.size, k + 1, k + 1))
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
    width = hi - lo
    slopes = d / width[:, None, None] * np.diff(stage, axis=1)
    values = (stage * _binomials(d)[:, None]).transpose(1, 2, 0).copy()
    return (width, _control(stage, basis_count),
            _control(slopes, basis_count), values)


def _control(pieces: np.ndarray, basis_count: int) -> np.ndarray:
    """[spline coefficient, (Bernstein index, span)] from span pieces.

    ``pieces`` (values or slopes) is indexed [span, Bernstein index, local
    function]; local function a on span s is placed at coefficient s + a,
    so coefficients times the result give each span's Bernstein form.
    """
    spans, order, width = pieces.shape
    control = np.zeros((basis_count, order, spans))
    first = np.arange(spans)
    for a in range(width):
        control[first + a, :, first] = pieces[:, :, a]
    return control.reshape(basis_count, -1)


@lru_cache(maxsize=16)
def _binomials(n: int) -> np.ndarray:
    out = np.array([math.comb(n, i) for i in range(n + 1)], dtype=float)
    out.setflags(write=False)
    return out


def make_uniform_knots(basis_count: int, degree: int) -> KnotVector:
    """The clamped uniform knot vector of dimension ``basis_count`` (J).

    There are ``J - degree`` polynomial pieces on [-1, 1].  This is the one
    place a ``KnotVector`` is built: the knots, their slices and the span
    tables are formed here once and made read-only.
    """
    d, J = degree, basis_count
    breaks = np.linspace(-1.0, 1.0, J - d + 1)
    knots = np.concatenate(
        [np.full(d + 1, -1.0), breaks[1:-1], np.full(d + 1, 1.0)]
    )
    arrays = (knots, knots[d:J], knots[d + 1:J], np.arange(d + 1)[:, None],
              *_span_tables(knots, d, J))
    for arr in arrays:
        arr.setflags(write=False)
    return KnotVector(d, J, *arrays)


def _bernstein(t: np.ndarray, degree: int) -> np.ndarray:
    """Rows t**i (1 - t)**(degree - i), i = 0..degree (no binomial factor).

    One contiguous row per i, shape ``(degree + 1, len(t))``.  Only products
    are formed, so t = 0 and t = 1 give exact unit rows.
    """
    u = 1.0 - t
    out = np.empty((degree + 1, t.size))
    out[0] = 1.0
    for i in range(1, degree + 1):
        np.multiply(out[i - 1], t, out=out[i])
    rev = u
    for i in range(degree - 1, -1, -1):
        out[i] *= rev
        if i:
            rev = rev * u
    return out


class LocatedPoints(np.ndarray):
    """Points that carry the span and local coordinate ``locate`` found.

    ``basis_matrix`` and ``basis_deriv_matrix`` take one as ``v`` and skip
    their binary search, with the bits the search gives.  An array derived
    from one, such as a slice, a copy or a sum, carries none (``span`` is
    ``None``) and is searched again.
    """

    span: np.ndarray | None = None
    t: np.ndarray | None = None


def locate(kv: KnotVector, v: np.ndarray) -> LocatedPoints:
    """``v`` with each point's span, by binary search, and local coordinate.

    The span, counted from the first span, counts the interior knots <= v,
    so an interior knot takes its right limit and v = 1 stays on the last
    span (its left limit).
    """
    v = np.asarray(v)
    points = v.view(LocatedPoints)
    points.span = kv._inner_knots.searchsorted(v, side="right")
    points.t = _local_coordinate(kv, v, points.span)
    return points


def _search(kv: KnotVector, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Span and local coordinate of each point, as ``locate`` gives them."""
    if not isinstance(v, LocatedPoints) or v.span is None:
        v = locate(kv, v)
    return v.span, v.t


def _local_coordinate(
    kv: KnotVector, v: np.ndarray, span: np.ndarray
) -> np.ndarray:
    """t = (v - T[span]) / (T[span+1] - T[span]), spans counted from 0."""
    t = v - kv._span_lo.take(span)
    t /= kv._span_width.take(span)
    return t


@lru_cache(maxsize=8)
def _row_starts(rows: int, basis_count: int) -> np.ndarray:
    """Flat index of the first entry of each row of a dense design."""
    starts = np.arange(0, rows * basis_count, basis_count)
    starts.setflags(write=False)
    return starts


def _evaluate(kv: KnotVector, v: np.ndarray) -> np.ndarray:
    """Dense ``(len(v), basis_count)`` basis rows from the value table.

    Only the ``degree + 1`` functions non-zero on a point's span are
    evaluated; every other entry is exactly 0.  The gather, the Bernstein
    rows and the contraction keep the point axis last and contiguous, so
    numpy's inner loops run along the points.  The contraction still sums
    over the Bernstein index k in order, so every value has the bits a
    points-first layout gives.
    """
    J = kv.basis_count
    span, t = _search(kv, v)
    local = np.einsum(
        "kn,kjn->jn",
        _bernstein(t, kv.degree),
        kv._value_table.take(span, axis=2),
    )
    out = np.zeros((v.size, J))
    first = span + _row_starts(v.size, J)  # flat index of each row's span
    out.reshape(-1)[first + kv._local_cols] = local
    return out


def _place_uniformly(
    kv: KnotVector, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Span of each point, without a search, and its local coordinate.

    The span, counted from the first span, is ``min(floor((v + 1) (J - d)
    / 2), J - d - 1)``.  Within an ulp of an interior knot that may pick
    the neighbouring span, putting t an ulp outside [0, 1]; a spline of
    degree >= 1 is continuous there, so the value moves by rounding only.
    A degree-0 spline, which jumps at its knots, would take the wrong side;
    ``FitConfig.validate`` refuses it.
    """
    spans = kv.basis_count - kv.degree
    x = v + 1.0
    x *= 0.5 * spans
    span = x.astype(np.intp)  # x >= 0, so truncation is the floor
    np.minimum(span, spans - 1, out=span)
    return span, _local_coordinate(kv, v, span)


def _bernstein_form(kv, v, coeffs, control_matrix, place):
    """Splines through their per-span Bernstein coefficients.

    One product of the (R, basis_count) coefficient stack with
    ``control_matrix`` gives every spline's Bernstein coefficients on every
    span; row r of the stack acts on the r-th of R equal runs of ``v``.
    ``place(kv, points)`` gives each point's span and local coordinate,
    and the point dots one row of Bernstein weights, binomials of the
    table's degree folded into its inner entries, with its span's
    coefficients.
    """
    stack = coeffs.reshape(-1, kv.basis_count)
    R = len(stack)
    # [spline, Bernstein index, span]
    control = (stack @ control_matrix).reshape(R, -1, kv._span_lo.size)
    degree = control.shape[1] - 1
    binomials = _binomials(degree)[1:-1, None]
    out = np.empty(v.size)
    # One spline's run is v itself, so that placed points keep their spans.
    runs = v.reshape(R, -1) if R > 1 else (v,)
    for points, values, tables in zip(runs, out.reshape(R, -1), control):
        span, t = place(kv, points)
        weights = _bernstein(t, degree)
        weights[1:-1] *= binomials
        weights *= tables.take(span, axis=1)
        weights.sum(axis=0, out=values)
    return out


def basis_matrix(
    kv: KnotVector, v: np.ndarray, coeffs: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate all basis functions, or splines, at each point of ``v``.

    ``v`` is a 1-D float array in [-1, 1], as ``ProjectionScaler.transform``
    returns it; this is not checked.  Without ``coeffs``, returns an array
    of shape ``(len(v), basis_count)`` whose rows sum to 1; each point is
    placed by ``locate``'s binary search, or by the placement that ``v``
    carries when it is ``locate``'s result, and the fit relies on these
    bits.

    With ``coeffs``, returns spline values, shape ``(len(v),)``, without
    forming the dense matrix, and with points placed by arithmetic on the
    uniform breakpoints.  ``coeffs`` holds ``basis_count`` floats for one
    spline, or an (R, basis_count) stack; then row r acts on the r-th of R
    equal runs of ``v``.  Each value agrees with its entry of
    ``basis_matrix(kv, v) @ coeffs`` to rounding (1e-14 of max|coeffs| in
    the tests), not bit for bit, and is a convex combination of the
    coefficients up to rounding.
    """
    if coeffs is None:
        return _evaluate(kv, v)
    return _bernstein_form(kv, v, coeffs, kv._control_matrix,
                           _place_uniformly)


def basis_deriv_matrix(
    kv: KnotVector, v: np.ndarray, coeffs: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate first derivatives of all basis functions, or splines.

    Takes the same points as ``basis_matrix``.  With ``coeffs``, as for
    ``basis_matrix``, returns the slopes, which the fit's Gauss-Newton step
    uses, from each span's degree - 1 Bernstein coefficients: the scaled
    differences of its value coefficients.
    Without, returns the ``(len(v), basis_count)`` dense rows, which sum to
    0, as the slopes of the J unit coefficient vectors: an entry outside a
    function's support is exactly 0.  Points are placed by ``locate``'s
    binary search, so a degree-1 slope, which jumps at every knot, takes
    its right limit there and its left limit at v = 1.  For one spline, a
    ``v`` that ``locate`` returned hands over its placement instead, with
    the same bits.  Requires ``degree >= 1``, which ``FitConfig.validate``
    enforces.
    """
    J, dense = kv.basis_count, coeffs is None
    if dense:
        v, coeffs = np.tile(v, J), np.eye(J)
    slopes = _bernstein_form(kv, v, coeffs, kv._deriv_control, _search)
    return slopes.reshape(J, -1).T if dense else slopes
