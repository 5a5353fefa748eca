"""Command-line interface: train, predict, benchmark, synth.

The benchmark report is written to stdout as a human-readable table plus
a ``[machine]`` block of key=value lines; everything in it is a pure
function of (data, seed, flags), so identical invocations produce
byte-identical reports.  Timing is logged to stderr instead.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import ensemble
from .data_io import Dataset, load_csv, load_feature_matrix, partition
from .errors import ConfigError, DataError, NumericError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# Phi^{-1}(0.9): half the class-mean separation giving Bayes error 0.10.
_TWO_GAUSSIAN_DELTA = 1.2815515655446004

SCENARIOS = ("single_index", "additive3", "ppr3", "noise", "two_gaussian")
TASKS = ("regression", "classification")


def metric_rpe(
    predictions: np.ndarray, y_test: np.ndarray, y_train_mean: float
) -> float:
    """Relative prediction error against the train-mean predictor.

    sum (pred - y)^2 / sum (train mean - y)^2; an exactly constant test
    response leaves the denominator zero and the metric undefined, and so
    does a sum that overflows float64.
    """
    predictions = np.asarray(predictions, dtype=float)
    y_test = np.asarray(y_test, dtype=float)
    with np.errstate(over="ignore"):
        num = float(np.sum((predictions - y_test) ** 2))
        den = float(np.sum((y_train_mean - y_test) ** 2))
    if den == 0.0:
        raise NumericError("relative prediction error undefined: "
                           "constant test response equal to the train mean")
    if not (math.isfinite(num) and math.isfinite(den)):
        raise NumericError("relative prediction error undefined: "
                           "its sums overflow float64")
    return num / den


def metric_mr(predictions: np.ndarray, y_test: np.ndarray) -> float:
    """Misclassification rate of the strict 0.5 threshold (ties -> class 0)."""
    predictions = np.asarray(predictions, dtype=float)
    y_test = np.asarray(y_test, dtype=float)
    if not np.all((y_test == 0.0) | (y_test == 1.0)):
        raise ConfigError("classification labels must be 0 or 1")
    labels = (predictions > 0.5).astype(float)
    return float(np.mean(labels != y_test))


# ---------------------------------------------------------------------------
# Synthetic scenarios


def _unit_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    theta = rng.standard_normal(size)
    return theta / np.linalg.norm(theta)


def generate_scenario(
    scenario: str, n: int, p: int, noise: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, str]:
    """Draw one synthetic table; returns (X, y, generator description).

    The order of a scenario's draws from ``rng`` is part of its table: the
    same seed must give the same bytes, so ``single_index`` draws its
    direction before X and ``ppr3`` draws its three directions after X.
    A noise level whose response overflows float64 is refused.
    """
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; pick from {SCENARIOS}")
    if n < 1 or p < 1:
        raise ConfigError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    if not (math.isfinite(noise) and noise >= 0.0):
        raise ConfigError(f"noise must be a finite number >= 0, got {noise}")
    if scenario in ("additive3", "ppr3") and p < 9:
        raise ConfigError(f"{scenario} needs p >= 9")

    if scenario == "two_gaussian":
        labels = rng.integers(0, 2, size=n)
        mu = np.full(p, _TWO_GAUSSIAN_DELTA / np.sqrt(p))
        X = rng.standard_normal((n, p)) + np.where(labels[:, None] == 1, mu, -mu)
        doc = (
            "x | y=1 ~ N(+mu, I), x | y=0 ~ N(-mu, I), P(y=1) = 1/2\n"
            f"mu = ({_TWO_GAUSSIAN_DELTA} / sqrt(p)) * ones(p)\n"
            "Bayes misclassification rate = Phi(-1.28155...) = 0.10 by\n"
            "construction; the noise flag is unused.\n"
        )
        return X, labels.astype(float), doc

    thetas: dict[str, np.ndarray] = {}
    if scenario == "single_index":
        thetas["theta"] = _unit_normal(rng, p)
    X = rng.uniform(-1.0, 1.0, size=(n, p))
    if scenario == "noise":
        return X, rng.standard_normal(n), (
            "y = N(0, 1), independent of x; the best relative prediction\n"
            "error attainable is 1 and any lower test value is chance.\n"
            "x ~ Uniform(-1, 1)^p; the noise flag is unused.\n"
        )

    if scenario == "single_index":
        signal = np.sin(2.0 * (X @ thetas["theta"]))
        formula = "y = sin(2 * theta' x) + noise * N(0, 1)\n"
    elif scenario == "additive3":
        m1 = np.sin(np.pi * X[:, 0] * X[:, 1]) + X[:, 2] ** 2
        m2 = np.cos(np.pi * X[:, 3]) * X[:, 4] + 0.5 * X[:, 5]
        m3 = np.exp(X[:, 6] * X[:, 7]) - 1.0 + X[:, 8]
        signal = m1 + m2 + m3
        formula = (
            "y = m1(x1,x2,x3) + m2(x4,x5,x6) + m3(x7,x8,x9) + noise * N(0,1)\n"
            "m1 = sin(pi x1 x2) + x3^2\n"
            "m2 = cos(pi x4) x5 + 0.5 x6\n"
            "m3 = exp(x7 x8) - 1 + x9\n"
        )
    else:
        z = []
        for i in range(3):
            theta = thetas[f"theta{i + 1}"] = _unit_normal(rng, 3)
            # A fancy index copies the block of three features; matmul on
            # a strided slice can round y differently.
            z.append(X[:, [3 * i, 3 * i + 1, 3 * i + 2]] @ theta)
        signal = 3.0 * np.sin(np.pi * z[0]) + 2.0 * z[1] ** 2 + np.exp(z[2])
        formula = (
            "y = 3 sin(pi z1) + 2 z2^2 + exp(z3) + noise * N(0, 1)\n"
            "z1 = theta1' (x1,x2,x3), z2 = theta2' (x4,x5,x6), "
            "z3 = theta3' (x7,x8,x9)\n"
        )
    doc = formula + "x ~ Uniform(-1, 1)^p\n" + "".join(
        f"{name} = {theta.tolist()!r}\n" for name, theta in thetas.items()
    )
    with np.errstate(over="ignore"):
        y = signal + noise * rng.standard_normal(n)
    if not np.all(np.isfinite(y)):
        raise ConfigError(f"noise={noise} makes the response overflow float64")
    return X, y, doc


# Rows formatted per write: enough to amortize the per-block numpy and
# format calls, few enough that a ten-column block's text is about 200 kB.
_CSV_BLOCK_ROWS = 1024


def _write_csv(path: str, names: list[str], *columns: np.ndarray) -> None:
    """Write 1-D or 2-D ``columns`` side by side under ``names``.

    Rows are formatted a block at a time, never the whole table at once.
    Cells are cast to float64 first, so an int or bool cell writes ``1.0``.
    """
    line = ",".join(["%r"] * len(names)) + "\n"
    with ensemble.open_output(path) as handle:
        handle.write(",".join(names) + "\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = np.column_stack(
                [c[start:start + _CSV_BLOCK_ROWS] for c in columns]
            ).astype(np.float64, copy=False)
            handle.write((line * len(block)) % tuple(block.ravel().tolist()))


def write_scenario_csv(path: str, X: np.ndarray, y: np.ndarray) -> None:
    """Write predictors ``X`` (n × p) and response ``y`` (n) as a CSV table.

    The header is ``x1,...,xp,y``.  Each cell is ``repr(float(v))``, the
    shortest text that reads back as the same float64, so ``load_csv``
    reads a finite table back bit for bit.  Lines end in LF; the file is
    UTF-8.
    """
    names = [f"x{j + 1}" for j in range(X.shape[1])] + ["y"]
    _write_csv(path, names, X, y)


# ---------------------------------------------------------------------------
# Benchmark protocol


@dataclass
class BenchmarkReport:
    """Everything a benchmark run produced, one list entry per repeat.

    ``values`` holds each repeat's metric, or ``None`` where it is
    undefined; ``baseline_values`` is ``None`` unless the linear baseline
    was scored.  ``errors`` holds, at the same index, the reason the metric
    is undefined, else the reason the baseline is, else ``None``.
    Wall-clock time is never stored here, so identical runs yield
    byte-identical reports.
    """

    data_label: str
    task: str
    seed: int
    n_train: int = 0
    n_test: int = 0
    config_snapshot: dict = field(default_factory=dict)
    values: list[float | None] = field(default_factory=list)
    errors: list[str | None] = field(default_factory=list)
    k_means: list[float] = field(default_factory=list)
    baseline_values: list[float | None] | None = None

    def successful(self) -> list[float]:
        return [v for v in self.values if v is not None]

    def render(self) -> str:
        name = "rpe" if self.task == "regression" else "mr"
        bases = self.baseline_values
        header = f"{'repeat':>6}  {'k_mean':>7}  {name:>12}"
        if bases is not None:
            header += f"  {'baseline_' + name:>16}"
        lines = [
            "ensemble projection pursuit benchmark",
            f"data: {self.data_label}",
            f"task: {self.task}   metric: {name}",
            f"repeats: {len(self.values)}   seed: {self.seed}",
            f"split: {self.n_train} train / {self.n_test} test",
            "",
            header,
        ]
        kv = {
            "data": self.data_label,
            "task": self.task,
            "metric": name,
            "repeats": len(self.values),
            "seed": self.seed,
            "n_train": self.n_train,
            "n_test": self.n_test,
        }
        for key in sorted(self.config_snapshot):
            kv[f"config_{key}"] = self.config_snapshot[key]
        # One pass writes each repeat's table row and [machine] value.
        for i, (value, error, k_mean) in enumerate(
            zip(self.values, self.errors, self.k_means), 1
        ):
            if value is None:
                row = f"{i:>6}  {'-':>7}  {'failed':>12}"
            else:
                row = f"{i:>6}  {k_mean:>7.2f}  {value:>12.6f}"
            if bases is not None:
                base = None if value is None else bases[i - 1]
                row += f"  {'-' if base is None else f'{base:.6f}':>16}"
            lines.append(row if error is None else f"{row}   ({error})")
            kv[f"{name}_repeat_{i}"] = value
        lines.append("")

        good = self.successful()
        if good:
            mean = float(np.mean(good))
            std = float(np.std(good))
            lines.append(
                f"summary: {name} mean {mean:.6f}  std {std:.6f}"
                f"  over {len(good)} repeat(s)"
            )
            kv[f"{name}_mean"] = mean
            kv[f"{name}_std"] = std
        else:
            lines.append("summary: no successful repeats")
        # The baseline's [machine] values follow the summary.
        for i, base in enumerate(bases or [], 1):
            kv[f"baseline_{name}_repeat_{i}"] = base
        base_good = [v for v in bases or [] if v is not None]
        if base_good:
            base_mean = float(np.mean(base_good))
            lines.append(
                f"baseline: {name} mean {base_mean:.6f}  std "
                f"{float(np.std(base_good)):.6f}"
            )
            kv[f"baseline_{name}_mean"] = base_mean
        # Every [machine] value is its text (a float's repr), or "failed"
        # where the metric is undefined.
        lines += ["", "[machine]"] + [
            f"{key}={'failed' if value is None else value}"
            for key, value in kv.items()
        ]
        return "\n".join(lines + [""])


def _linear_baseline(
    X_train: np.ndarray, y_train: np.ndarray, X_test: np.ndarray
) -> np.ndarray:
    design = np.column_stack([np.ones(X_train.shape[0]), X_train])
    beta = np.linalg.lstsq(design, y_train, rcond=None)[0]
    return beta[0] + X_test @ beta[1:]


def _score(
    task: str, predictions: np.ndarray, y_test: np.ndarray, y_train_mean: float
) -> tuple[float | None, str | None]:
    """The task's metric, or ``None`` and the reason it is undefined."""
    try:
        if task == "regression":
            return metric_rpe(predictions, y_test, y_train_mean), None
        return metric_mr(predictions, y_test), None
    except (NumericError, ConfigError) as exc:
        return None, str(exc)


def run_benchmark(
    dataset: Dataset,
    task: str,
    repeats: int,
    seed: int,
    overrides: dict | None = None,
    baseline: bool = False,
    data_label: str = "",
    workers: int = 1,
) -> BenchmarkReport:
    """Repeated random-split evaluation on one dataset.

    Each repeat draws its own partition and fit seed from (seed, repeat
    index); the fit uses data-driven defaults unless ``overrides`` pins
    specific fields.  A repeat whose metric is undefined is recorded with
    its reason and the run goes on.  ``workers`` is passed on to
    ``ensemble.fit``.
    """
    if task not in TASKS:
        raise ConfigError("task must be regression or classification")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")

    report = BenchmarkReport(data_label, task, seed,
                             baseline_values=[] if baseline else None)
    for rep in range(repeats):
        part_rng = np.random.default_rng([seed, rep, 0])
        train, test = partition(dataset, part_rng)
        report.n_train, report.n_test = train.X.shape[0], test.X.shape[0]
        config = ensemble.default_config(report.n_train, train.X.shape[1])
        if overrides:
            config = replace(config, **overrides)
        # The same for every repeat but the seed, which is per repeat; the
        # report gives the protocol seed instead.
        report.config_snapshot = dict(vars(config))
        del report.config_snapshot["seed"]
        fit_seed = int(
            np.random.SeedSequence([seed, rep, 1]).generate_state(1)[0]
        )
        config = replace(config, seed=fit_seed)

        started = time.perf_counter()
        model = ensemble.fit(train.X, train.y, config, workers=workers)
        predictions = model.predict(test.X)
        elapsed = time.perf_counter() - started
        print(
            f"repeat {rep + 1}/{repeats}: fit+predict {elapsed:.2f}s",
            file=sys.stderr,
        )

        report.k_means.append(float(np.mean([m.k for m in model.members])))
        y_train_mean = float(np.mean(train.y))
        value, error = _score(task, predictions, test.y, y_train_mean)
        report.values.append(value)
        if baseline:
            base_pred = _linear_baseline(train.X, train.y, test.X)
            base, base_error = _score(task, base_pred, test.y, y_train_mean)
            report.baseline_values.append(base)
            if error is None and base_error is not None:
                error = f"baseline failed: {base_error}"
        report.errors.append(error)
    return report


# ---------------------------------------------------------------------------
# Commands


def _fit_flags(args: argparse.Namespace) -> dict:
    """FitConfig fields given as flags; each flag's dest is its field name."""
    return {
        f.name: getattr(args, f.name)
        for f in fields(ensemble.FitConfig)
        if f.name != "seed" and getattr(args, f.name, None) is not None
    }


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--variant", choices=ensemble.CHOICES["variant"])
    parser.add_argument("--q", type=int, help="bagged subset size")
    parser.add_argument("--ell", type=int, help="candidate subsets per step")
    parser.add_argument("--B", type=int, help="ensemble size")
    parser.add_argument("--kmax", dest="k_max", type=int,
                        help="greedy step cap")
    parser.add_argument("--J", type=int, help="spline basis dimension")
    parser.add_argument("--degree", type=int, help="spline degree")
    parser.add_argument("--nu", type=float, help="BIC penalty exponent")
    parser.add_argument("--stopping", choices=ensemble.CHOICES["stopping"])
    parser.add_argument("--truncate", dest="truncation_mode",
                        choices=ensemble.CHOICES["truncation_mode"])


def _check_writable(path: str) -> None:
    """Refuse an output path that cannot be written, before any work."""
    out_dir = os.path.dirname(path) or "."
    if not os.path.isdir(out_dir):
        reason = f"no such directory: {out_dir}"
    elif os.path.isdir(path):
        reason = "is a directory"
    elif not os.access(out_dir, os.W_OK) or (
        os.path.exists(path) and not os.access(path, os.W_OK)
    ):
        reason = "permission denied"
    else:
        return
    raise DataError(f"cannot write {path}: {reason}")


def cmd_train(args: argparse.Namespace) -> int:
    # Checked before the fit, which can take minutes, rather than at save.
    _check_writable(args.out)
    dataset = load_csv(args.data, args.target)
    n, p = dataset.X.shape
    config = replace(
        ensemble.default_config(n, p), **_fit_flags(args), seed=args.seed
    )
    model = ensemble.fit(
        dataset.X, dataset.y, config, column_names=dataset.column_names
    )
    ensemble.save_model(model, args.out)
    mean_k = float(np.mean([m.k for m in model.members]))
    print(f"trained on {n} rows x {p} predictors "
          f"({dataset.dropped_rows} dropped)")
    print(f"members: {config.B}   variant: {config.variant}   "
          f"mean k: {mean_k:.2f}")
    print(f"model written to {args.out}")
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    _check_writable(args.out)
    model = ensemble.load_model(args.model)
    # A model without column names reads its predictors by position.
    X = load_feature_matrix(args.data, model.p,
                            (model.column_names or [])[:-1])
    predictions = model.predict(X)
    _write_csv(args.out, ["prediction"], predictions)
    print(f"{predictions.shape[0]} prediction(s) written to {args.out}")
    return EXIT_OK


def cmd_benchmark(args: argparse.Namespace) -> int:
    dataset = load_csv(args.data, args.target)
    report = run_benchmark(
        dataset,
        task=args.task,
        repeats=args.repeats,
        seed=args.seed,
        overrides=_fit_flags(args),
        baseline=args.baseline,
        data_label=args.data,
    )
    sys.stdout.write(report.render())
    if not report.successful():
        raise NumericError("every repeat failed to produce a metric")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    _check_writable(args.out)
    meta_path = args.out + ".meta.txt"
    _check_writable(meta_path)
    rng = np.random.default_rng(args.seed)
    X, y, doc = generate_scenario(args.scenario, args.n, args.p, args.noise,
                                  rng)
    write_scenario_csv(args.out, X, y)
    try:
        with ensemble.open_output(meta_path) as handle:
            handle.write(f"scenario: {args.scenario}\nn: {args.n}\n"
                         f"p: {args.p}\nnoise: {args.noise}\n"
                         f"seed: {args.seed}\n\n{doc}")
    except OSError:
        # A table without its generator is not written at all.
        ensemble.discard_output(args.out)
        raise
    print(f"{args.n} rows written to {args.out} (generator in {meta_path})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eppr",
        description="Ensemble projection pursuit regression on CSV tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a model on a CSV file")
    train.add_argument("--data", required=True)
    train.add_argument("--target", required=True,
                       help="response column name or index")
    train.add_argument("--out", required=True, help="model file to write")
    train.add_argument("--seed", type=int, default=0)
    _add_config_flags(train)
    train.set_defaults(handler=cmd_train)

    predict = sub.add_parser("predict", help="apply a stored model")
    predict.add_argument("--model", required=True)
    predict.add_argument("--data", required=True)
    predict.add_argument("--out", required=True,
                         help="predictions file to write")
    predict.set_defaults(handler=cmd_predict)

    bench = sub.add_parser(
        "benchmark", help="repeated random-split evaluation"
    )
    bench.add_argument("--data", required=True)
    bench.add_argument("--target", required=True)
    bench.add_argument("--task", choices=TASKS, default="regression")
    bench.add_argument("--repeats", type=int, default=5)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--baseline", action="store_true",
                       help="also score a linear least-squares fit")
    _add_config_flags(bench)
    bench.set_defaults(handler=cmd_benchmark)

    synth = sub.add_parser("synth", help="write a synthetic dataset")
    synth.add_argument("--scenario", required=True, choices=SCENARIOS)
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--p", type=int, required=True)
    synth.add_argument("--noise", type=float, default=0.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    synth.set_defaults(handler=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DataError, ConfigError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DataError):
            return EXIT_IO
        return EXIT_USAGE if isinstance(exc, ConfigError) else EXIT_NUMERIC
    except OSError as exc:  # inputs fail as DataError, so this is output
        print(f"error: cannot write {exc.filename or 'output'}: "
              f"{exc.strerror}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # a table or flag too large for this host
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
