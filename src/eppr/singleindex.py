"""Single-index ridge functions g(theta' x) and their alternating fit.

A ridge couples a unit direction on a predictor subset with a spline in
the scaled projection.  Fitting alternates damped least squares for the
spline coefficients with a sphere-constrained Gauss-Newton update of the
direction, from several starts: each runs to a loose tolerance, and the
best of them goes on to a fine one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .data_io import _unit_scale
from .numerics import LsSolution, gauss_newton_delta, solve_ridge_ls
from .spline import KnotVector, basis_deriv_matrix, basis_matrix, locate

# Projection ranges narrower than this collapse the ridge to a constant.
_DEGENERATE_SPAN = 1e-12

# The alternating fit: starts per ridge (the OLS direction, then random
# ones), alternations per start, step halvings per Gauss-Newton step, and
# the relative SSE gains below which every start stops (_RACE_TOL) and
# the start with the lowest SSE then stops (_REL_TOL).
_N_STARTS = 5
_MAX_ALTERNATIONS = 20
_MAX_HALVINGS = 10
_RACE_TOL = 1e-4
_REL_TOL = 1e-6

# A failed trial step whose SSE rise is this fraction of the previous
# trial's rise, both > 0, ends the halving: the SSE rises in proportion to
# the step, so no shorter step is expected to lower it.
_FIRST_ORDER_RISE = (0.4, 0.6)

# Rows per chunk of a batched ridge evaluation: the chunk's temporaries,
# a few arrays of R x _CHUNK_ROWS points for R ridges, are all it holds at
# once, whatever the row count.
_CHUNK_ROWS = 8192


@dataclass(frozen=True)
class ProjectionScaler:
    """Affine map sending the training range [lo, hi] onto [-1, 1].

    Points outside the training range are clamped to the endpoints.  The
    record is unchecked: the fit builds it with a finite hi - lo > 0, and a
    model file's scalers are checked on load (``ensemble.from_json_text``).
    """

    lo: float
    hi: float

    def transform(self, z: np.ndarray | float) -> np.ndarray | float:
        # clip(2 (z - lo) / (hi - lo) - 1, -1, 1), in the array that
        # z - lo allocates.
        return _unit_scale(np.subtract(z, self.lo), self.hi - self.lo)

    @property
    def slope(self) -> float:
        """d(scaled)/d(raw projection), away from the clamped region."""
        return 2.0 / (self.hi - self.lo)


@dataclass(frozen=True)
class Ridge:
    """One fitted term: spline coefficients over a scaled projection.

    An unchecked record of arrays: an int ``subset``, strictly increasing,
    a unit ``theta`` of the same length and one float coefficient per basis
    function of ``knots``.  The fit builds it that way, and a model file's
    ridges are checked on load (``ensemble.from_json_text``).
    """

    subset: np.ndarray
    theta: np.ndarray
    scaler: ProjectionScaler
    coeffs: np.ndarray
    knots: KnotVector


def ridge_design_block(ridge: Ridge, X: np.ndarray) -> np.ndarray:
    """Spline design matrix of the ridge's projections, one row per sample."""
    z = X[:, ridge.subset] @ ridge.theta
    # A new row's projection may lie far outside the scaler's training
    # range; where the scaled value overflows to +-inf, the clamp maps it
    # to +-1.
    with np.errstate(over="ignore"):
        v = np.asarray(ridge.scaler.transform(z), dtype=float)
    return basis_matrix(ridge.knots, v)


def eval_ridge_batch(
    ridges: Ridge | Sequence[Ridge], X: np.ndarray
) -> np.ndarray:
    """Ridge values at every row of ``X``, the full predictor matrix.

    One ``Ridge`` gives shape ``(n,)``; a sequence of R ridges, which must
    share the first one's knot vector, gives ``(R, n)``.  The (R, p)
    direction matrix (each direction on its subset, zeros elsewhere), the
    scaler bounds and the coefficient stack are built once.  Rows then go
    in chunks of ``_CHUNK_ROWS``, each copied C-contiguous so that its bits
    do not depend on the layout of ``X``.  Per chunk, one matrix product
    gives all R projections, the scaler steps run on every ridge at once,
    and one ``basis_matrix`` call evaluates the R splines at the chunk's
    points, ridge-major.  A value agrees with ``ridge_design_block(ridge,
    X) @ ridge.coeffs``, the product the fit uses, to rounding rather than
    bit for bit, and its bits may depend on which ridges share the call.
    """
    single = isinstance(ridges, Ridge)
    if single:
        ridges = (ridges,)
    n, p = X.shape
    out = np.empty((len(ridges), n))
    if not ridges:
        return out
    kv = ridges[0].knots
    directions = np.zeros((len(ridges), p))
    for row, ridge in zip(directions, ridges):
        row[ridge.subset] = ridge.theta
    lo = np.array([[ridge.scaler.lo] for ridge in ridges])
    width = np.array([[ridge.scaler.hi - ridge.scaler.lo] for ridge in ridges])
    coeffs = np.stack([ridge.coeffs for ridge in ridges])
    for start in range(0, n, _CHUNK_ROWS):
        rows = np.ascontiguousarray(X[start:start + _CHUNK_ROWS])
        z = directions @ rows.T
        with np.errstate(over="ignore"):
            z -= lo
            _unit_scale(z, width)
        out[:, start:start + rows.shape[0]] = basis_matrix(
            kv, z.reshape(-1), coeffs
        ).reshape(z.shape)
    return out[0] if single else out


@dataclass
class SingleIndexOptions:
    """The random source for the alternating fit's random starts."""

    rng: np.random.Generator


def _unit(vec: np.ndarray) -> np.ndarray | None:
    norm = math.sqrt(vec.dot(vec))
    if norm < 1e-12 or not math.isfinite(norm):
        return None
    return vec / norm


def _first_axis_unit(q: int) -> np.ndarray:
    theta = np.zeros(q)
    theta[0] = 1.0
    return theta


def _constant_ridge(
    subset: np.ndarray, q: int, kv: KnotVector, value: float
) -> Ridge:
    # A constant is in the spline space because the basis sums to one.
    return Ridge(
        subset=subset,
        theta=_first_axis_unit(q),
        scaler=ProjectionScaler(-1.0, 1.0),
        coeffs=np.full(kv.basis_count, value),
        knots=kv,
    )


def _solve_at_theta(
    X_A: np.ndarray,
    residuals: np.ndarray,
    kv: KnotVector,
    theta: np.ndarray,
) -> tuple[ProjectionScaler, np.ndarray, LsSolution] | None:
    """Scaler, scaled projections and spline fit for a fixed direction.

    The projections are ``locate``'s result, so the slopes at them reuse
    the placement of the dense design.  Returns ``None`` when the
    projections are too narrow to scale.
    """
    z = X_A @ theta
    # The reductions behind z.min() and z.max(), without their wrappers.
    lo = float(np.minimum.reduce(z))
    hi = float(np.maximum.reduce(z))
    if hi - lo < _DEGENERATE_SPAN:
        return None
    scaler = ProjectionScaler(lo, hi)
    v = locate(kv, scaler.transform(z))
    return scaler, v, solve_ridge_ls(basis_matrix(kv, v), residuals)


def _flip_to_sign_convention(ridge: Ridge) -> Ridge:
    """Make the largest-magnitude entry of theta non-negative.

    Flipping the direction negates the projection; with the symmetric knot
    sequence the same function is represented by reversing the coefficient
    order and swapping the scaler bounds, so predictions are unchanged.
    """
    idx = int(np.argmax(np.abs(ridge.theta)))
    if ridge.theta[idx] >= 0.0:
        return ridge
    return replace(
        ridge,
        theta=-ridge.theta,
        scaler=ProjectionScaler(-ridge.scaler.hi, -ridge.scaler.lo),
        coeffs=ridge.coeffs[::-1].copy(),
    )


def fit_single_index(
    X_A: np.ndarray,
    residuals: np.ndarray,
    kv: KnotVector,
    opts: SingleIndexOptions,
    subset: np.ndarray | None = None,
) -> tuple[Ridge, float]:
    """Fit one ridge to ``residuals`` over the predictor block ``X_A``.

    Multi-start alternation: (a) damped LS for the spline coefficients at
    the current direction, (b) Gauss-Newton direction update with
    step-halving, accepted only when the refitted SSE decreases.  Every
    start alternates until an accepted step lowers its SSE by less than
    1e-4 of it.  The start with the lowest SSE then (the earliest on a
    tie) goes on from there until a step gains less than 1e-6, and its
    ridge and training SSE are returned; the other starts stop at 1e-4.
    Fallbacks: constant residuals give that constant with SSE 0; a start
    whose projection is too narrow to scale offers the best constant; a
    start keeps its last accepted direction when the Gauss-Newton solve
    fails or step-halving runs out, and does not go on.  Requires
    n > J + q rows, which ``ensemble.fit`` checks.

    Step-halving tries the full step and up to 10 halvings.  Past degree 1
    it also runs out early, at a failed trial whose SSE rise is 0.4 to 0.6
    times the previous trial's (both > 0): the SSE then rises in proportion
    to the step, so no shorter step is expected to lower it.  The rule is
    a heuristic: a shorter step could still have carried the start on.
    """
    X_A = np.asarray(X_A, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    q = X_A.shape[1]
    if subset is None:
        subset = np.arange(q)

    # Constant residuals (including all zeros) are matched exactly by a
    # constant spline; no direction carries information.
    spread = float(np.max(residuals) - np.min(residuals))
    if spread < 1e-14 * max(1.0, float(np.max(np.abs(residuals)))):
        return _constant_ridge(subset, q, kv, float(residuals[0])), 0.0

    starts: list[np.ndarray] = []
    ols = _ols_direction(X_A, residuals)
    starts.append(ols if ols is not None else _first_axis_unit(q))
    for _ in range(_N_STARTS - 1):
        drawn = _unit(opts.rng.standard_normal(q))
        starts.append(drawn if drawn is not None else _first_axis_unit(q))

    # Every start runs to the loose tolerance; only the leader, the first
    # start with the lowest SSE (min() keeps the earliest on a tie), goes
    # on to the fine one.
    leader = min(
        (_fit_from_start(X_A, residuals, kv, theta0, subset, _RACE_TOL)
         for theta0 in starts),
        key=lambda start: start.sse,
    )
    leader.run(_REL_TOL)
    sse, ridge = leader
    return _flip_to_sign_convention(ridge), sse


def _ols_direction(X_A: np.ndarray, residuals: np.ndarray) -> np.ndarray | None:
    design = np.column_stack([np.ones(X_A.shape[0]), X_A])
    beta = np.linalg.lstsq(design, residuals, rcond=None)[0]
    return _unit(beta[1:])


class _Start:
    """One start's alternation, which stops at a tolerance and can go on.

    The start solves at its direction on creation.  ``run(tol)``
    alternates until an accepted step lowers the SSE by less than ``tol``
    of it.  A later ``run`` at a smaller tolerance judges that step again
    and goes on from it with the alternations left, so the start takes the
    steps one ``run`` at the smaller tolerance takes.  A fallback ends the
    start for good: a degenerate projection at the start direction, which
    offers the best constant, a failed Gauss-Newton solve, exhausted
    step-halving or the alternation cap.  The start unpacks as its SSE
    and ridge where it stopped; the ridge is built when it is read.

    The Gauss-Newton Jacobian takes the spline's slopes from
    ``basis_deriv_matrix(kv, v, coeffs)``, without a dense derivative
    design, at the points the accepted solve has placed; each candidate
    direction is refitted on the dense value design.
    """

    def __init__(
        self,
        X_A: np.ndarray,
        residuals: np.ndarray,
        kv: KnotVector,
        theta0: np.ndarray,
        subset: np.ndarray,
    ) -> None:
        self.X_A, self.residuals, self.kv = X_A, residuals, kv
        self.theta, self.subset = theta0, subset
        self.left = _MAX_ALTERNATIONS
        # The SSE before the last accepted step; no step is judged yet.
        self.prev_sse = math.inf
        self.state = _solve_at_theta(X_A, residuals, kv, theta0)
        self.done = self.state is None
        if self.done:
            # Degenerate projection: this start can only offer a constant.
            centered = residuals - float(np.mean(residuals))
            self.sse = float(centered @ centered)
        else:
            self.sse = self.state[2].sse

    @property
    def ridge(self) -> Ridge:
        if self.state is None:
            return _constant_ridge(self.subset, self.X_A.shape[1], self.kv,
                                   float(np.mean(self.residuals)))
        scaler, _, sol = self.state
        return Ridge(subset=self.subset, theta=self.theta, scaler=scaler,
                     coeffs=sol.coefficients, knots=self.kv)

    def __iter__(self):
        return iter((self.sse, self.ridge))

    def run(self, tol: float) -> None:
        while not self.done:
            if self.prev_sse - self.sse < tol * max(self.prev_sse, 1e-30):
                return
            self.done = not self._step()

    def _step(self) -> bool:
        """One Gauss-Newton step; ``False`` when a fallback ends the start.

        The step takes the first direction theta + delta / 2**k, k =
        0.._MAX_HALVINGS, whose refit lowers the SSE.  Past degree 1 the
        halving also ends, with ``False``, at a failed trial whose SSE rise
        is in ``_FIRST_ORDER_RISE`` times the previous trial's.  A trial
        with no direction or a degenerate projection has no rise.
        """
        if not self.left:
            return False
        self.left -= 1
        X_A, residuals, kv = self.X_A, self.residuals, self.kv
        scaler, v, sol = self.state
        slope_g = basis_deriv_matrix(kv, v, sol.coefficients)
        slope_g *= scaler.slope
        delta = gauss_newton_delta(sol.residual, slope_g[:, None] * X_A)
        if delta is None:
            return False
        low, high = _FIRST_ORDER_RISE
        rise = None
        for _ in range(_MAX_HALVINGS + 1):
            theta = _unit(self.theta + delta)
            delta = delta * 0.5
            last, rise = rise, None
            if theta is None:
                continue
            state = _solve_at_theta(X_A, residuals, kv, theta)
            if state is None:
                continue
            if state[2].sse < sol.sse:
                self.prev_sse, self.sse = sol.sse, state[2].sse
                self.theta, self.state = theta, state
                return True
            rise = state[2].sse - sol.sse
            if kv.degree > 1 and last and low * last <= rise <= high * last:
                return False
        return False


def _fit_from_start(
    X_A: np.ndarray,
    residuals: np.ndarray,
    kv: KnotVector,
    theta0: np.ndarray,
    subset: np.ndarray,
    tol: float = _REL_TOL,
) -> _Start:
    """Alternate from ``theta0`` to ``tol``; the start unpacks as its SSE
    and ridge there."""
    start = _Start(X_A, residuals, kv, theta0, subset)
    start.run(tol)
    return start
