"""Per-layer spans around eppr's public functions, recorded from outside.

``Tracer.installed()`` replaces each traced function at every place it is
bound: the defining module, every ``eppr`` module that imported it by
name, and the package namespace.  ``EnsembleModel.predict`` is replaced on
the class.  The originals come back when the block ends, even on error.

Spans keep a stack per thread, so a member fitted on a pool thread has no
parent and a span's self time subtracts only the children that ran on its
own thread.  Totals are kept per span name and read with ``metrics()``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

_MARK = "__perfbench_span__"


def _points(args, kwargs, result):
    return {"points": len(args[1])}


def _rows_in(args, kwargs, result):
    return {"rows": int(args[1].shape[0])}


def _gauss_newton(args, kwargs, result):
    return {"failed": int(result is None)}


def _greedy(args, kwargs, result):
    return {"steps": len(result.bic_trace), "k_star": int(result.k)}


def _model_ridges(result):
    return sum(len(member.ridges) for member in result.members)


def _ensemble_fit(args, kwargs, result):
    return {"ridges": _model_ridges(result)}


def _predict(args, kwargs, result):
    return {"rows": int(result.shape[0])}


def _to_json(args, kwargs, result):
    return {"model_bytes": len(result.encode("utf-8"))}


def _from_json(args, kwargs, result):
    return {
        "model_bytes": len(args[0].encode("utf-8")),
        "ridges": _model_ridges(result),
    }


def _file_rows(args, kwargs, result):
    rows = result.X.shape[0] if hasattr(result, "X") else result.shape[0]
    return {"rows": int(rows), "bytes": os.path.getsize(args[0])}


@dataclass(frozen=True)
class SpanSpec:
    """One traced function: where it is defined and what it counts."""

    name: str
    module: str
    attr: str
    owner: str | None = None
    count: Callable[[tuple, dict, Any], dict] | None = None
    counters: tuple[str, ...] = ()


# Counters that belong to a layer rather than to one span.  ``ridges`` and
# ``model_bytes`` are reported as ``ensemble.*``, ``steps`` and ``k_star``
# as ``greedy.*``.
_LAYER_COUNTERS = {
    "ridges": "ensemble",
    "model_bytes": "ensemble",
    "steps": "greedy",
    "k_star": "greedy",
}

SPANS = (
    SpanSpec("spline.basis_matrix", "eppr.spline", "basis_matrix",
             count=_points, counters=("points",)),
    SpanSpec("spline.basis_deriv_matrix", "eppr.spline", "basis_deriv_matrix",
             count=_points, counters=("points",)),
    SpanSpec("numerics.solve_ridge_ls", "eppr.numerics", "solve_ridge_ls"),
    SpanSpec("numerics.gauss_newton_delta", "eppr.numerics",
             "gauss_newton_delta", count=_gauss_newton, counters=("failed",)),
    SpanSpec("singleindex.fit_single_index", "eppr.singleindex",
             "fit_single_index"),
    SpanSpec("singleindex.eval_ridge_batch", "eppr.singleindex",
             "eval_ridge_batch", count=_rows_in, counters=("rows",)),
    SpanSpec("greedy.run_greedy", "eppr.greedy", "run_greedy",
             count=_greedy, counters=("steps", "k_star")),
    SpanSpec("ensemble.fit", "eppr.ensemble", "fit", count=_ensemble_fit,
             counters=("ridges",)),
    SpanSpec("ensemble.predict", "eppr.ensemble", "predict",
             owner="EnsembleModel", count=_predict, counters=("rows",)),
    SpanSpec("ensemble.to_json_text", "eppr.ensemble", "to_json_text",
             count=_to_json, counters=("model_bytes",)),
    SpanSpec("ensemble.from_json_text", "eppr.ensemble", "from_json_text",
             count=_from_json, counters=("model_bytes", "ridges")),
    SpanSpec("data_io.load_csv", "eppr.data_io", "load_csv",
             count=_file_rows, counters=("rows", "bytes")),
    SpanSpec("data_io.load_feature_matrix", "eppr.data_io",
             "load_feature_matrix", count=_file_rows,
             counters=("rows", "bytes")),
    SpanSpec("data_io.partition", "eppr.data_io", "partition"),
    SpanSpec("cli.cmd_train", "eppr.cli", "cmd_train"),
    SpanSpec("cli.cmd_predict", "eppr.cli", "cmd_predict"),
    SpanSpec("cli.run_benchmark", "eppr.cli", "run_benchmark"),
)

# ``greedy.refit.s`` is the least-squares time spent directly under a
# greedy run (the joint refit), as opposed to under a single-index fit.
_REFIT_CHILD = "numerics.solve_ridge_ls"
_REFIT_PARENT = "greedy.run_greedy"
# CPU time of the process and its children, so a process pool shows.
_CPU_SPAN = "ensemble.fit"


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _eppr_modules() -> list:
    return [
        module for name, module in sorted(sys.modules.items())
        if name == "eppr" or name.startswith("eppr.")
    ]


class Tracer:
    """Span totals per name; install with ``installed()``."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._totals: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        with self._lock:
            self._totals.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, spec: SpanSpec, original: Callable) -> Callable:
        name = spec.name

        @functools.wraps(original)
        def span(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            cpu0 = _cpu_seconds() if name == _CPU_SPAN else 0.0
            start = time.perf_counter()
            result = None
            raised = True
            try:
                result = original(*args, **kwargs)
                raised = False
                return result
            finally:
                elapsed = time.perf_counter() - start
                cpu = _cpu_seconds() - cpu0 if name == _CPU_SPAN else 0.0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                counts = (
                    spec.count(args, kwargs, result)
                    if spec.count is not None and not raised else {}
                )
                with self._lock:
                    totals = self._totals
                    totals[f"{name}.calls"] += 1
                    totals[f"{name}.s"] += elapsed
                    totals[f"{name}.self_s"] += elapsed - frame[1]
                    totals[f"{name}.errors"] += int(raised)
                    if name == _CPU_SPAN:
                        totals[f"{name}.cpu_s"] += cpu
                    if name == _REFIT_CHILD and parent == _REFIT_PARENT:
                        totals["greedy.refit.s"] += elapsed
                    for key, value in counts.items():
                        totals[_counter_name(spec, key)] += value

        setattr(span, _MARK, name)
        return span

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for spec in SPANS:
                self._install(spec)
            yield self
        finally:
            for target, attr, original in reversed(self._patches):
                setattr(target, attr, original)
            self._patches.clear()

    def _install(self, spec: SpanSpec) -> None:
        home = importlib.import_module(spec.module)
        if spec.owner is not None:
            cls = getattr(home, spec.owner)
            original = vars(cls)[spec.attr]
            self._patch(cls, spec.attr, original, self._wrap(spec, original))
            return
        original = getattr(home, spec.attr)
        wrapper = self._wrap(spec, original)
        for module in _eppr_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, original, wrapper)

    def _patch(self, target, attr: str, original, wrapper) -> None:
        self._patches.append((target, attr, original))
        setattr(target, attr, wrapper)

    def metrics(self) -> dict[str, float]:
        """Every known metric since the last reset, zero where unused."""
        with self._lock:
            totals = dict(self._totals)
        out = {key: totals.get(key, 0.0) for key in known_metrics()}
        steps = out["greedy.steps"]
        out["greedy.kept_ratio"] = (
            out["greedy.k_star"] / steps if steps else 0.0
        )
        return out


def _counter_name(spec: SpanSpec, key: str) -> str:
    layer = _LAYER_COUNTERS.get(key)
    return f"{layer}.{key}" if layer else f"{spec.name}.{key}"


def known_metrics() -> list[str]:
    """Names ``Tracer.metrics`` reports, in a stable order."""
    names = []
    for spec in SPANS:
        names += [f"{spec.name}.{suffix}"
                  for suffix in ("calls", "s", "self_s", "errors")]
        names += [_counter_name(spec, key) for key in spec.counters]
    names += ["greedy.refit.s", f"{_CPU_SPAN}.cpu_s", "greedy.kept_ratio"]
    return list(dict.fromkeys(names))
