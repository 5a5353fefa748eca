"""Ensembles of greedy runs: configuration, fitting, prediction, storage.

Each of the B members runs the greedy fit on its own deterministic RNG
stream derived from (seed, member index), so members are independent of
B and of execution order.  Predictions average the member outputs.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
from dataclasses import asdict, dataclass, fields
from typing import Iterator, TextIO

import numpy as np

from .data_io import ColumnScaling
from .errors import ConfigError, DataError, NumericError
from .greedy import PprModel, RunData, bic_value, run_greedy
from .singleindex import ProjectionScaler, Ridge
from .spline import KnotVector, make_uniform_knots

_FORMAT_TAG = "eppr-model-v1"

# The values each choice field of FitConfig takes; the CLI offers the same.
CHOICES = {"variant": ("aga", "oga", "rga"), "stopping": ("bic", "fixed_k"),
           "truncation_mode": ("off", "ln_n")}

# Relative allowance for rounding in ``_output_bound``.
_ROUNDING_SLACK = 1e-9

# Spline bounds, checked before a knot vector builds (2 degree + 1) J^2
# floats of tables, 14 MB for a cubic at J = 500 and 43 MB at degree 10, in
# O(degree^2) steps.  default_config keeps J <= 30; the tests fit degree <= 5.
_MAX_J = 500
_MAX_DEGREE = 10


@dataclass
class FitConfig:
    """Everything a fit needs beyond the data itself."""

    variant: str = "aga"
    q: int = 1
    ell: int = 1
    B: int = 50
    k_max: int = 20
    J: int = 6
    degree: int = 3
    nu: float = 0.2
    stopping: str = "bic"
    truncation_mode: str = "off"
    seed: int = 0

    def validate(self, p: int | None = None) -> None:
        for name, choices in CHOICES.items():
            if getattr(self, name) not in choices:
                what = name.replace("_", " ")
                raise ConfigError(f"{what} must be one of {choices}")
        if p is not None and self.q > p:
            raise ConfigError(f"q={self.q} exceeds predictor count p={p}")
        for name in ("q", "ell", "B", "k_max"):
            if (value := getattr(self, name)) < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if not 1 <= self.degree <= _MAX_DEGREE:
            raise ConfigError(
                f"degree must be in 1..{_MAX_DEGREE}, got {self.degree}"
            )
        if not self.degree + 1 <= self.J <= _MAX_J:
            raise ConfigError(
                f"J must be in {self.degree + 1}..{_MAX_J}, got J={self.J}"
            )
        if not (math.isfinite(self.nu) and self.nu >= 0.0):
            raise ConfigError(
                f"nu must be a finite number >= 0, got {self.nu}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


# The keys to_json_text writes at each level; a model file holds exactly
# these.
_MODEL_KEYS = frozenset({"format", "config", "feature_scaling", "truncation",
                         "column_names", "members"})
_CONFIG_KEYS = frozenset(f.name for f in fields(FitConfig))
_SCALING_KEYS = frozenset({"lo", "hi"})
_MEMBER_KEYS = frozenset({"variant", "intercept", "k", "weights", "bic_trace",
                          "sse_trace", "ridges"})
_RIDGE_KEYS = frozenset({"subset", "theta", "scaler_lo", "scaler_hi",
                         "coeffs"})


def _floor_power(x: float, power: float) -> int:
    # Tiny epsilon keeps exact powers (e.g. 32**0.4 == 4) from flooring low.
    return int(math.floor(math.pow(x, power) + 1e-9))


def default_config(n: int, p: int) -> FitConfig:
    """Data-driven defaults for an (n, p) training table."""
    if n < 1 or p < 1:
        raise ConfigError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    q = min((2 * p) // 3, _floor_power(n, 0.4))
    q = max(q, 1)
    ell = max(1, p // q)
    J = min(max(_floor_power(n, 0.2) + 4, 6), 30)
    return FitConfig(q=q, ell=ell, J=J)


@dataclass
class EnsembleModel:
    """Fitted ensemble: members plus the shared preprocessing state."""

    config: FitConfig
    members: list[PprModel]
    feature_scaling: ColumnScaling
    truncation: float | None = None
    column_names: list[str] | None = None

    @property
    def p(self) -> int:
        return int(self.feature_scaling.lo.shape[0])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean member prediction on raw (unscaled) predictors.

        Member outputs are summed in sorted order per row, so the result
        is bit-identical under any permutation of the members.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.p:
            raise ConfigError(
                f"expected (n, {self.p}) predictors, got {X.shape}"
            )
        if not np.all(np.isfinite(X)):
            raise NumericError("non-finite entries in prediction input")
        Xs = self.feature_scaling.transform(X)
        outputs = np.empty((len(self.members), X.shape[0]))
        for i, member in enumerate(self.members):
            outputs[i] = member.predict(Xs)
        if self.truncation is not None:
            np.clip(outputs, -self.truncation, self.truncation, out=outputs)
        outputs.sort(axis=0)
        return outputs.sum(axis=0) / len(self.members)


def _column_names(names, p: int) -> list[str] | None:
    """``names`` when null or one string per predictor, then the target."""
    if names is not None and not (
        isinstance(names, list) and len(names) == p + 1
        and all(isinstance(name, str) for name in names)
        and len(set(names)) == len(names)
    ):
        raise ConfigError(
            f"column_names must be null or {p + 1} distinct strings: the "
            "predictors, then the target"
        )
    return names


def fit(
    X: np.ndarray,
    y: np.ndarray,
    config: FitConfig,
    workers: int = 1,
    column_names: list[str] | None = None,
) -> EnsembleModel:
    """Fit B independent greedy runs and wrap them as one model.

    ``column_names`` names the predictors, then the target, as
    ``Dataset.column_names`` does.  Members are fitted in index order on
    the calling thread, whatever ``workers`` is.
    Non-finite data, a predictor whose max - min overflows float64 and a
    response whose mean or sum of squares overflows raise ``NumericError``
    before any member is fitted; n <= J + q rows and a ``nu`` whose BIC
    penalty at ``k_max`` terms overflows float64 raise ``ConfigError``
    before the knots are built.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ConfigError("X must be (n, p) and y (n,) with matching n")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise NumericError("non-finite entries in training data")
    config.validate(p=X.shape[1])
    names = _column_names(
        list(column_names) if column_names else None, X.shape[1]
    )

    scaling = ColumnScaling.fit(X)
    # Cells that overflow with both signs sum to inf - inf, which is NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        wide = np.flatnonzero(~np.isfinite(scaling.hi - scaling.lo))
        centred = y - np.mean(y)
        total_ss = float(centred @ centred)
    if wide.size:
        column = repr(names[wide[0]]) if names else f"column {wide[0]}"
        raise NumericError(f"predictor {column}: max - min overflows float64")
    if not math.isfinite(total_ss):
        raise NumericError("response mean or sum of squares overflows float64")
    if X.shape[0] <= config.J + config.q:
        raise ConfigError(
            "need more than J + q samples per run, got "
            f"n={X.shape[0]}, J={config.J}, q={config.q}"
        )
    try:
        penalty = bic_value(config.k_max, 0.0, X.shape[0], config.q, config.J,
                            config.nu)
    except OverflowError:
        penalty = math.inf
    if not math.isfinite(penalty):
        raise ConfigError(f"nu={config.nu} makes the BIC penalty of "
                          f"k_max={config.k_max} terms overflow float64")
    Xs = scaling.transform(X)
    kv = make_uniform_knots(config.J, config.degree)
    data = RunData(X=Xs, y=y, kv=kv)

    members = [
        run_greedy(data, config, np.random.default_rng([config.seed, b]))
        for b in range(config.B)
    ]

    truncation = None
    if config.truncation_mode == "ln_n":
        truncation = max(
            math.log(X.shape[0]), float(np.max(np.abs(y)))
        )
    return EnsembleModel(
        config=config,
        members=members,
        feature_scaling=scaling,
        truncation=truncation,
        column_names=names,
    )


def _ridge_to_dict(ridge: Ridge) -> dict:
    return {
        "subset": [int(i) for i in ridge.subset],
        "theta": [float(t) for t in ridge.theta],
        "scaler_lo": float(ridge.scaler.lo),
        "scaler_hi": float(ridge.scaler.hi),
        "coeffs": [float(c) for c in ridge.coeffs],
    }


def _member_to_dict(member: PprModel, variant: str) -> dict:
    return {
        "variant": variant,
        "intercept": float(member.intercept),
        "k": int(member.k),
        "weights": [float(w) for w in member.weights],
        "bic_trace": [[int(t), float(b)] for t, b in member.bic_trace],
        "sse_trace": [float(s) for s in member.sse_trace],
        "ridges": [_ridge_to_dict(r) for r in member.ridges],
    }


def to_json_text(model: EnsembleModel) -> str:
    """Self-describing text form; serialize-parse-serialize is byte-stable."""
    doc = {
        "format": _FORMAT_TAG,
        "config": asdict(model.config),
        "feature_scaling": {
            "lo": [float(v) for v in model.feature_scaling.lo],
            "hi": [float(v) for v in model.feature_scaling.hi],
        },
        "truncation": (
            float(model.truncation) if model.truncation is not None else None
        ),
        "column_names": model.column_names,
        "members": [_member_to_dict(m, model.config.variant)
                    for m in model.members],
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def from_json_text(text: str) -> EnsembleModel:
    """Rebuild a model from its serialized text.

    A document that does not describe a model (at the top level, in the
    config or the feature scaling, in a member or in a ridge, any key set
    other than exactly the one ``to_json_text`` writes there, so a missing
    key never takes a default and an unknown one is never ignored; wrong
    value types, a number that is not finite or overflows, no members,
    weight count or ``k`` that disagrees with the ridge count, a member
    variant other than the config's, a ``k`` that no fit keeps (below 1,
    above ``k_max``, or other than ``k_max`` under ``fixed_k``), member
    traces that do not list the steps fitted (``bic_trace`` and
    ``sse_trace`` of equal length, ``k`` under ``fixed_k`` and ``k`` or
    ``k + 1`` under ``bic``, at most ``k_max``, the steps counting 1, 2,
    ... in order, no SSE below 0), ``column_names`` other than null or one
    distinct string per predictor and one for the target, a scaling range
    that is reversed or overflows, predictions that could overflow, a
    truncation that is not positive or that is null when
    ``truncation_mode`` is ``ln_n`` or set when it is ``off``, lists or
    objects nested past the recursion limit) raises ``ConfigError``.  So
    does a ridge the fit could not have built: subset indices outside the
    stored predictor count or not strictly increasing, a subset whose
    length is not ``config.q``, a theta that is not as long as its subset
    or not of unit norm, a scaler whose hi is not above its lo or whose
    hi - lo overflows, or a coefficient count other than J.  These are the
    only checks on ``Ridge`` and ``ProjectionScaler`` records.  A config
    whose ``q`` exceeds the stored predictor count is refused as well, with
    the config's other rules, once the feature scaling is read.
    """
    try:
        doc = json.loads(text, parse_float=_finite_float,
                         parse_constant=_finite_float)
        return _model_from_doc(doc)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError,
            OverflowError, RecursionError) as exc:
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        raise ConfigError(f"not a model document ({detail})")


def _finite_float(literal: str) -> float:
    """A JSON number or NaN/Infinity literal, refused unless finite."""
    value = float(literal)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {literal} in model document")
    return value


def _number(value, what: str, integer: bool = False):
    """A model number as a float, or with ``integer`` a count or an index.

    JSON numbers parse to exactly int or float; a bool (an int subclass),
    a quoted number and a ``null`` are refused, and so is a float count.
    """
    if type(value) not in ((int,) if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{what} must be {kind}, got {value!r}")
    return value if integer else float(value)


def _numbers(values, what: str, integer: bool = False) -> np.ndarray:
    """A list of model numbers, or of integers, as an array."""
    if not isinstance(values, list):
        raise ConfigError(f"{what} must be a list")
    return np.array([_number(v, what, integer) for v in values],
                    dtype=int if integer else float)


def _exact_keys(node: dict, keys: frozenset, what: str) -> dict:
    """``node``, refused unless its keys are exactly ``keys``."""
    missing, unknown = keys - node.keys(), node.keys() - keys
    if missing:
        raise ConfigError(f"{what} lacks key {min(missing)!r}")
    if unknown:
        raise ConfigError(f"{what} has unknown key {min(unknown)!r}")
    return node


def _ridge_from_dict(rdoc: dict, kv: KnotVector, p: int, q: int) -> Ridge:
    """A stored ridge, refused unless it is one the fit could have built."""
    _exact_keys(rdoc, _RIDGE_KEYS, "ridge")
    subset = _numbers(rdoc["subset"], "ridge subset", integer=True)
    if np.any((subset < 0) | (subset >= p)):
        raise ConfigError(f"ridge subset {subset.tolist()} outside 0..{p - 1}")
    if subset.size != q:
        raise ConfigError(f"every ridge subset must hold q={q} indices")
    theta = _numbers(rdoc["theta"], "theta")
    lo = _number(rdoc["scaler_lo"], "scaler_lo")
    hi = _number(rdoc["scaler_hi"], "scaler_hi")
    if not hi > lo:
        raise ConfigError("scaler requires hi > lo")
    if not math.isfinite(hi - lo):
        raise ConfigError("scaler range hi - lo overflows float64")
    coeffs = _numbers(rdoc["coeffs"], "coeffs")
    if theta.shape != subset.shape:
        raise ConfigError("subset and theta must be matching vectors")
    if np.any(np.diff(subset) <= 0):
        raise ConfigError("subset indices must be strictly increasing")
    with np.errstate(over="ignore"):  # a huge entry fails as inf
        norm2 = float(theta @ theta)
    if abs(norm2 - 1.0) > 1e-8:
        raise ConfigError("theta must have unit norm")
    if coeffs.shape != (kv.basis_count,):
        raise ConfigError("coefficient count must match the spline basis")
    return Ridge(subset, theta, ProjectionScaler(lo, hi), coeffs, kv)


def _output_bound(members: list[PprModel]) -> float:
    """A bound on |sum of the members' outputs| over every input.

    A spline value lies within the range of its coefficients, up to
    rounding, because the basis is non-negative and sums to one;
    ``basis_matrix`` forms it from convex combinations of the coefficients,
    so no intermediate sum leaves that range either.  Rounding can still
    exceed the exact bound: a point within an ulp of a knot may get a
    local coordinate an ulp outside [0, 1], and every weighted sum rounds
    once per term, so a model of m terms can overshoot by about m ulps.
    The bound therefore carries a relative slack of ``_ROUNDING_SLACK``
    (1e-9, room for some 10**6 terms), and it is inf where that overflows,
    as for a spline whose coefficients are all the largest float.  Python
    floats overflow to inf without a warning.
    """
    exact = sum(
        abs(member.intercept) + sum(
            abs(w) * float(np.abs(ridge.coeffs).max())
            for w, ridge in zip(member.weights.tolist(), member.ridges)
        )
        for member in members
    )
    return exact * (1.0 + _ROUNDING_SLACK)


def _model_from_doc(doc: dict) -> EnsembleModel:
    if doc.get("format") != _FORMAT_TAG:
        raise ConfigError(f"unrecognized model format {doc.get('format')!r}")
    _exact_keys(doc, _MODEL_KEYS, "model")
    config = FitConfig(**_exact_keys(doc["config"], _CONFIG_KEYS, "config"))
    for name in (f.name for f in fields(FitConfig) if f.type == "int"):
        _number(getattr(config, name), f"config {name}", integer=True)
    _number(config.nu, "config nu")
    bounds = _exact_keys(doc["feature_scaling"], _SCALING_KEYS,
                         "feature_scaling")
    scaling = ColumnScaling(
        lo=_numbers(bounds["lo"], "feature_scaling lo"),
        hi=_numbers(bounds["hi"], "feature_scaling hi"),
    )
    p = scaling.lo.size
    if scaling.hi.shape != (p,):
        raise ConfigError("feature scaling bounds must be equal-length lists")
    with np.errstate(over="ignore"):
        span = scaling.hi - scaling.lo
    if not np.all(np.isfinite(span)):
        raise ConfigError("feature scaling range hi - lo overflows float64")
    if np.any(span < 0.0):
        raise ConfigError("feature scaling has lo > hi")
    config.validate(p)
    kv = make_uniform_knots(config.J, config.degree)
    if not doc["members"]:
        raise ConfigError("model has no members")
    # A fit keeps 1 to k_max terms, exactly k_max under fixed_k.
    bic = config.stopping == "bic"
    k_min = 1 if bic else config.k_max
    members = []
    for mdoc in doc["members"]:
        _exact_keys(mdoc, _MEMBER_KEYS, "member")
        ridges = [_ridge_from_dict(r, kv, p, config.q) for r in mdoc["ridges"]]
        weights = _numbers(mdoc["weights"], "weights")
        if weights.shape != (len(ridges),):
            raise ConfigError(
                f"member has {weights.size} weight(s) for {len(ridges)} ridges"
            )
        k = _number(mdoc["k"], "k", integer=True)
        if k != len(ridges):
            raise ConfigError(f"member has k={k} for {len(ridges)} ridges")
        if not k_min <= k <= config.k_max:
            raise ConfigError(f"member has k={k}, outside {k_min}..{config.k_max}")
        if mdoc["variant"] != config.variant:
            raise ConfigError(f"member variant {mdoc['variant']!r} differs "
                              f"from the config's {config.variant!r}")
        bic_trace = [
            (_number(t, "bic_trace step", integer=True),
             _number(b, "bic_trace value"))
            for t, b in mdoc["bic_trace"]
        ]
        sse_trace = _numbers(mdoc["sse_trace"], "sse_trace")
        # One entry per step fitted: k, or k + 1 when bic fitted a step it
        # then discarded, and never more than k_max.
        if not k <= sse_trace.size <= min(k + bic, config.k_max):
            raise ConfigError(f"member has {sse_trace.size} SSE entries for k={k}")
        if [t for t, _ in bic_trace] != list(range(1, sse_trace.size + 1)):
            raise ConfigError("bic_trace steps must count 1, 2, ... beside sse_trace")
        if np.any(sse_trace < 0.0):
            raise ConfigError("sse_trace holds a negative SSE")
        members.append(
            PprModel(
                intercept=_number(mdoc["intercept"], "intercept"),
                ridges=ridges,
                weights=weights,
                k=k,
                bic_trace=bic_trace,
                sse_trace=sse_trace.tolist(),
            )
        )
    if not math.isfinite(_output_bound(members)):
        raise ConfigError("model predictions could overflow float64")
    names = _column_names(doc["column_names"], p)
    truncation = doc["truncation"]
    if truncation is not None:
        truncation = _number(truncation, "truncation")
        if not truncation > 0.0:
            raise ConfigError("truncation must be null or a number > 0")
    if (truncation is None) != (config.truncation_mode == "off"):
        raise ConfigError("truncation must be null exactly when "
                          "truncation_mode is 'off'")
    return EnsembleModel(
        config=config,
        members=members,
        feature_scaling=scaling,
        truncation=truncation,
        column_names=names,
    )


@contextlib.contextmanager
def open_output(path: str) -> Iterator[TextIO]:
    """``path`` opened for writing UTF-8 text with LF line ends.

    Every file eppr writes is opened here.  An ``OSError`` raised while
    the file is open names ``path``: a failed write or close, as on a full
    disk, carries no file name of its own.  It also removes what was
    written, through ``discard_output``.
    """
    handle = open(path, "w", encoding="utf-8", newline="\n")
    try:
        with handle:
            yield handle
    except OSError as exc:
        exc.filename = path
        discard_output(path)
        raise


def discard_output(path: str) -> None:
    """Remove ``path`` if it is a regular file, as a failed write leaves it.

    A device, a symbolic link and the link's target are left as they are,
    and so is a file that cannot be removed.
    """
    with contextlib.suppress(OSError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)


def save_model(model: EnsembleModel, path: str) -> None:
    with open_output(path) as handle:
        handle.write(to_json_text(model))


def load_model(path: str) -> EnsembleModel:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        raise DataError(f"no such model file: {path}")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError:
        raise ConfigError(f"not a model document ({path} is not UTF-8 text)")
    return from_json_text(text)
