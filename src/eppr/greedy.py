"""Greedy construction of a sum of ridge terms for one training run.

Three update rules share the candidate-search skeleton: ``aga`` jointly
refits every spline coefficient after each new term, ``oga`` rescales new
terms to unit empirical norm and refits only the scalar multipliers, and
``rga`` shrinks the running fit by a relaxation factor before each new
term.  A step whose candidates all fail adds a term that is exactly 0; it
still counts toward k and the traces.  ``run_greedy`` records the SSE and
BIC of every step it fits, in one place after the step.  A BIC criterion
decides where to stop, from the penalty alone when no SSE could keep the
next step, so that step is never fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericError
from .numerics import DEFAULT_DAMPING_SCALE, gram_mean_diag, solve_ridge_ls
from .singleindex import (
    Ridge,
    SingleIndexOptions,
    _constant_ridge,
    eval_ridge_batch,
    fit_single_index,
    ridge_design_block,
)
from .spline import KnotVector

# Empirical norms below this leave a new oga term with coefficient zero.
_OGA_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class RunData:
    """Training matrices shared by every step of a greedy run."""

    X: np.ndarray
    y: np.ndarray
    kv: KnotVector


@dataclass
class PprModel:
    """One greedy run: intercept plus weighted ridge terms.

    ``bic_trace`` and ``sse_trace`` (and aga's ``objective_trace``) hold one
    entry per step fitted: ``k`` of them, or ``k + 1`` when ``bic`` fitted
    the step it then discarded.  The model loader refuses a file whose
    traces break this.
    """

    intercept: float
    ridges: list[Ridge]
    weights: np.ndarray
    k: int
    bic_trace: list[tuple[int, float]]
    sse_trace: list[float]
    objective_trace: list[float] | None = None

    def predict(self, X_scaled: np.ndarray) -> np.ndarray:
        """Intercept plus the weighted ridge values, added in ridge order.

        All ridges are evaluated by one ``eval_ridge_batch`` call.
        """
        out = np.full(X_scaled.shape[0], self.intercept)
        values = eval_ridge_batch(self.ridges, X_scaled)
        values *= self.weights[:, None]
        for row in values:
            out += row
        return out


@dataclass
class RunState:
    """Mutable bookkeeping carried between greedy steps."""

    rng: np.random.Generator
    yc: np.ndarray
    fitted: np.ndarray
    ridges: list[Ridge] = field(default_factory=list)
    weights: list[float] = field(default_factory=list)
    # aga's design blocks or oga's value columns, one per term.
    columns: list[np.ndarray] = field(default_factory=list)
    sse_trace: list[float] = field(default_factory=list)
    bic_trace: list[tuple[int, float]] = field(default_factory=list)
    objective_trace: list[float] = field(default_factory=list)
    min_mean_diag: float = math.inf


def relaxation_weight(k: int) -> float:
    """Relaxation factor alpha_k = 1 - 2 / (k + 2) for step k >= 1."""
    return 1.0 - 2.0 / (k + 2.0)


def bic_value(tau: int, sse: float, n: int, q: int, J: int, nu: float) -> float:
    """BIC score sse/n + tau ln(n) (q + J^(1+nu)) / n; tau = 0 drops the penalty."""
    return sse / n + tau * math.log(n) * (q + float(J) ** (1.0 + nu)) / n


def select_candidate_subsets(
    p: int, q: int, ell: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Draw ``ell`` independent sorted q-subsets of {0, ..., p-1}.

    Duplicates across candidates are allowed; q = p always yields the full
    index set.
    """
    return [np.sort(rng.choice(p, size=q, replace=False)) for _ in range(ell)]


def _new_term(
    data: RunData, residuals: np.ndarray, config, state: RunState
) -> tuple[Ridge, np.ndarray]:
    """Best single-index fit over the candidate subsets, and its design block.

    A candidate whose fit raises a numeric error or gives a non-finite SSE
    is skipped; configuration errors propagate.  Ties break toward the
    earliest candidate.  When every candidate is skipped the term is the
    constant-zero ridge on the first q predictors with an all-zero block,
    so every update rule keeps it at exactly 0.
    """
    subsets = select_candidate_subsets(
        data.X.shape[1], config.q, config.ell, state.rng
    )
    best: tuple[float, Ridge] | None = None
    for subset in subsets:
        opts = SingleIndexOptions(rng=state.rng)
        try:
            ridge, sse = fit_single_index(
                data.X[:, subset], residuals, data.kv, opts, subset=subset
            )
        except (np.linalg.LinAlgError, FloatingPointError, NumericError):
            continue
        if np.isfinite(sse) and (best is None or sse < best[0]):
            best = (sse, ridge)
    if best is None:
        zero = _constant_ridge(np.arange(config.q), config.q, data.kv, 0.0)
        return zero, np.zeros((data.X.shape[0], data.kv.basis_count))
    return best[1], ridge_design_block(best[1], data.X)


def _record_step(state: RunState, config, data: RunData) -> None:
    """Append the SSE and BIC of the model as of the step just fitted."""
    tau = len(state.ridges)
    residual = state.yc - state.fitted
    sse = float(residual @ residual)
    state.sse_trace.append(sse)
    state.bic_trace.append((tau, bic_value(
        tau, sse, data.y.shape[0], config.q, data.kv.basis_count, config.nu
    )))


def greedy_step_aga(state: RunState, data: RunData, config) -> None:
    """Append the best candidate ridge, then jointly refit all coefficients.

    Directions and scalers stay fixed; the damped joint objective never
    increases because the previous solution padded with zeros is feasible.
    The damping level is the running minimum of the mean Gram diagonal so
    later solves are never damped harder than earlier ones.
    """
    ridge, block = _new_term(data, state.yc - state.fitted, config, state)
    state.ridges.append(ridge)
    state.columns.append(block)

    design = np.hstack(state.columns)
    state.min_mean_diag = min(state.min_mean_diag, gram_mean_diag(design))
    damping = DEFAULT_DAMPING_SCALE * state.min_mean_diag

    sol = solve_ridge_ls(design, state.yc, damping)
    J = data.kv.basis_count
    for i, ridge in enumerate(state.ridges):
        state.ridges[i] = replace(ridge, coeffs=sol.coefficients[i * J:(i + 1) * J])
    state.weights = [1.0] * len(state.ridges)
    state.fitted = design @ sol.coefficients
    state.objective_trace.append(
        sol.sse + damping * float(sol.coefficients @ sol.coefficients))


def greedy_step_oga(state: RunState, data: RunData, config) -> None:
    """Append the best candidate rescaled to unit empirical norm, refit scalars.

    Only the multipliers c_1..c_k are re-solved (undamped, minimum-norm on
    ties), so the residual norm cannot increase.
    """
    ridge, block = _new_term(data, state.yc - state.fitted, config, state)
    values = block @ ridge.coeffs
    norm = math.sqrt(float(values @ values) / data.X.shape[0])
    if norm > _OGA_NORM_FLOOR:
        ridge = replace(ridge, coeffs=ridge.coeffs / norm)
        values = values / norm
    # Below the floor (the zero ridge too) the column stays as-is; the
    # minimum-norm refit pins its multiplier near zero.
    state.ridges.append(ridge)
    state.columns.append(values)

    columns = np.column_stack(state.columns)
    sol = solve_ridge_ls(columns, state.yc, damping=0.0)
    state.weights = [float(c) for c in sol.coefficients]
    state.fitted = columns @ sol.coefficients


def greedy_step_rga(state: RunState, data: RunData, config) -> None:
    """Shrink the running fit by alpha_k, then add a ridge fit to the gap.

    The model stays a weighted sum of stored terms: every previous weight
    is multiplied by alpha_k and the new term enters with weight one.
    """
    k = len(state.ridges) + 1
    alpha = relaxation_weight(k)
    residuals = state.yc - alpha * state.fitted
    ridge, block = _new_term(data, residuals, config, state)
    values = block @ ridge.coeffs
    state.ridges.append(ridge)
    state.weights = [w * alpha for w in state.weights] + [1.0]
    state.fitted = alpha * state.fitted + values


_STEP_FUNCTIONS = {
    "aga": greedy_step_aga,
    "oga": greedy_step_oga,
    "rga": greedy_step_rga,
}


def run_greedy(data: RunData, config, rng: np.random.Generator) -> PprModel:
    """One full greedy run on pre-scaled training data.

    ``stopping="fixed_k"`` takes exactly ``k_max`` steps.  ``stopping="bic"``
    stops at the first tau >= 1 with BIC(tau) < BIC(tau + 1) and keeps tau
    terms; if no such tau appears by ``k_max`` the run keeps all ``k_max``
    terms.  At least one term is always kept.  Step tau + 1 is fitted and
    discarded only when BIC(tau) is not below ``bic_value(tau + 1, 0.0, ...)``,
    the penalty of tau + 1 terms: BIC never falls as the SSE grows, so below
    that the stop is already decided and the step is skipped.  The kept
    model is the same either way.  Each fitted step's SSE and BIC are
    recorded here, after the step, so the traces list the steps fitted.
    """
    n = data.X.shape[0]
    step = _STEP_FUNCTIONS[config.variant]

    intercept = float(np.mean(data.y))
    state = RunState(rng=rng, yc=data.y - intercept, fitted=np.zeros(n))

    bic = config.stopping == "bic"
    for tau in range(1, config.k_max + 1):
        # No SSE >= 0 could keep step tau: stop without fitting it.
        if bic and tau >= 2 and state.bic_trace[-1][1] < bic_value(
            tau, 0.0, n, config.q, data.kv.basis_count, config.nu
        ):
            break
        before = list(state.ridges), list(state.weights)
        step(state, data, config)
        _record_step(state, config, data)
        # BIC(tau - 1) < BIC(tau): keep the model as of step tau - 1 and
        # discard the term just added.
        if bic and tau >= 2 and state.bic_trace[-2][1] < state.bic_trace[-1][1]:
            state.ridges, state.weights = before
            break
    return PprModel(
        intercept=intercept,
        ridges=state.ridges,
        weights=np.asarray(state.weights, dtype=float),
        k=len(state.ridges),
        bic_trace=state.bic_trace,
        sse_trace=state.sse_trace,
        objective_trace=(
            state.objective_trace if config.variant == "aga" else None
        ),
    )

