"""Benchmark for eppr: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload train_ppr3 --seed 1 --seconds 15 --trace 0

Each run generates its inputs from ``--seed`` with
``eppr.cli.generate_scenario`` and sets them up several times, timing each
set-up.  A workload has a few keyed operations (one per table or file),
which run through eppr's public entry points in passes, until ``--seconds``
have passed and at least two passes are done.  Every operation's output is
checked.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the metrics
are the ``end_to_end`` list of BENCHMARK.json, with ``--trace 1`` the
``per_layer`` list, measured on operations run under ``tracer.Tracer``
alternately with untraced ones.  ``--results DIR`` also writes the whole
record (environment, input digests, every timing) for ``compare.py``.
"""

from __future__ import annotations

import os

# One BLAS thread: the member pool supplies the parallelism, and the process
# stays within nproc threads.  Must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Acceptance thresholds of criteria 08 and 09.
RPE_MAX = 0.25
MR_MAX = 0.15

# Per-workload sizes; ``--smoke`` swaps in the tiny ones.  ``setups`` is how
# many times a run sets up: cheap set-ups repeat more, so their median is
# steady.
FULL = {
    "train_ppr3": {"tables": 6, "n": 1000, "holdout": 5000, "B": 10,
                   "setups": 9},
    "predict_bulk": {
        "n": 1000, "rows": 100000, "parts": 5,
        "flags": ["--B", "6", "--stopping", "fixed_k", "--kmax", "6"],
        "setups": 3,
    },
    "cv_two_gaussian": {"tables": 4, "n": 3000, "B": 10, "repeats": 1,
                        "setups": 7},
}
SMOKE = {
    "train_ppr3": {"tables": 2, "n": 500, "holdout": 2000, "B": 5,
                   "setups": 2},
    "predict_bulk": {
        "n": 500, "rows": 2000, "parts": 2,
        "flags": ["--B", "6", "--stopping", "fixed_k", "--kmax", "6"],
        "setups": 2,
    },
    "cv_two_gaussian": {"tables": 2, "n": 3000, "B": 4, "repeats": 1,
                        "setups": 2},
}
MIN_PASSES = 2

# The speed of a shared host drifts by a quarter or more within seconds, for
# any work.  A fixed probe that never calls eppr runs before and after every
# timed step, and each time is scaled to the speed at which the probe takes
# PROBE_REFERENCE_S, so a time reads as seconds at that speed.  On a 2-core
# Xeon VM, the median of 0.7 s fits over 30 s windows of the same input
# spread 20% raw and 5% scaled.  Raw wall times are printed and recorded.
PROBE_REFERENCE_S = 0.1
_PROBE_ROUNDS = 1000


def probe_seconds() -> float:
    """Seconds for a fixed mix of small BLAS calls and interpreter loops."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((1000, 8))
    eye = np.eye(8)
    started = time.perf_counter()
    for _ in range(_PROBE_ROUNDS):
        np.linalg.cholesky(a.T @ a + eye)
        (a * 2.0).sum(axis=0)
        total = 0
        for j in range(1000):
            total += j
    return time.perf_counter() - started


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def quiet(fn, *args, **kwargs):
    """Call ``fn`` with stdout and stderr captured, not written out."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return fn(*args, **kwargs)


def write_table(path: Path, X, y) -> bytes:
    from eppr import cli

    cli.write_scenario_csv(str(path), X, y)
    return path.read_bytes()


# ---------------------------------------------------------------------------
# Workloads.  Each one: ``setup(work_dir)`` returns {input name: bytes} for
# the digest; ``keys`` names its operations; ``run(key)`` is one timed
# operation, ``output(key)`` the bytes it wrote and ``check(key, output)``
# a list of problems.  ``check`` also records the output's held-out error
# (``error_name``: RPE or misclassification rate) in ``errors``.


class TrainPpr3:
    """``eppr train`` (default config, B=10) on each of a few ppr3 tables."""

    name = "train_ppr3"
    error_name = "rpe"
    hot = (
        "spline.basis_matrix", "spline.basis_deriv_matrix",
        "numerics.solve_ridge_ls", "numerics.gauss_newton_delta",
        "singleindex.fit_single_index", "greedy.run_greedy", "ensemble.fit",
        "ensemble.to_json_text", "data_io.load_csv", "cli.cmd_train",
    )

    def __init__(self, size: dict, seed: int) -> None:
        self.size, self.seed = size, seed
        self.keys = list(range(size["tables"]))
        self.rows = size["n"]
        self.errors: dict = {}

    def setup(self, work: Path) -> dict[str, bytes]:
        import numpy as np
        from eppr import cli

        n = self.size["n"]
        self.work, self.holdout = work, {}
        inputs = {}
        for key in self.keys:
            rng = np.random.default_rng([self.seed, key])
            X, y, _ = cli.generate_scenario(
                "ppr3", n + self.size["holdout"], 9, 0.5, rng
            )
            self.holdout[key] = (X[n:], y[n:], float(np.mean(y[:n])))
            inputs[f"train{key}.csv"] = write_table(
                work / f"train{key}.csv", X[:n], y[:n]
            )
            inputs[f"holdout{key}"] = X[n:].tobytes() + y[n:].tobytes()
        return inputs

    def run(self, key) -> int:
        from eppr import cli

        return quiet(cli.main, [
            "train", "--data", str(self.work / f"train{key}.csv"),
            "--target", "y", "--out", str(self.work / f"model{key}.json"),
            "--seed", str(self.seed), "--B", str(self.size["B"]),
        ])

    def output(self, key) -> bytes:
        return (self.work / f"model{key}.json").read_bytes()

    def check(self, key, output: bytes) -> list[str]:
        from eppr import cli, ensemble

        X, y, y_mean = self.holdout[key]
        model = ensemble.from_json_text(output.decode("utf-8"))
        rpe = cli.metric_rpe(model.predict(X), y, y_mean)
        self.errors[key] = rpe
        if rpe >= RPE_MAX:
            return [f"held-out rpe {rpe:.4f} >= {RPE_MAX}"]
        return []


class PredictBulk:
    """``eppr predict`` of a stored ppr3 model on fresh rows, in parts."""

    name = "predict_bulk"
    error_name = "rpe"
    hot = (
        "spline.basis_matrix", "singleindex.eval_ridge_batch",
        "ensemble.predict", "ensemble.from_json_text",
        "data_io.load_feature_matrix", "cli.cmd_predict",
    )

    def __init__(self, size: dict, seed: int) -> None:
        self.size, self.seed = size, seed
        self.keys = list(range(size["parts"]))
        self.rows = size["rows"] // size["parts"]
        self.errors: dict = {}

    def setup(self, work: Path) -> dict[str, bytes]:
        import numpy as np
        from eppr import cli

        n, rows = self.size["n"], self.rows
        rng = np.random.default_rng(self.seed)
        X, y, _ = cli.generate_scenario(
            "ppr3", n + self.size["rows"], 9, 0.5, rng
        )
        self.work, self.y_mean = work, float(np.mean(y[:n]))
        self.y_parts = {}
        inputs = {"train.csv": write_table(work / "train.csv", X[:n], y[:n])}
        for key in self.keys:
            part = slice(n + key * rows, n + (key + 1) * rows)
            self.y_parts[key] = y[part]
            inputs[f"bulk{key}.csv"] = write_table(
                work / f"bulk{key}.csv", X[part], y[part]
            )
        code = quiet(cli.main, [
            "train", "--data", str(work / "train.csv"), "--target", "y",
            "--out", str(work / "model.json"), "--seed", str(self.seed),
            *self.size["flags"],
        ])
        if code != 0:
            raise RuntimeError(f"training the model to predict exited {code}")
        inputs["model.json"] = (work / "model.json").read_bytes()
        return inputs

    def run(self, key) -> int:
        from eppr import cli

        return quiet(cli.main, [
            "predict", "--model", str(self.work / "model.json"),
            "--data", str(self.work / f"bulk{key}.csv"),
            "--out", str(self.work / f"predictions{key}.csv"),
        ])

    def output(self, key) -> bytes:
        return (self.work / f"predictions{key}.csv").read_bytes()

    def check(self, key, output: bytes) -> list[str]:
        import numpy as np
        from eppr import cli

        lines = output.decode("utf-8").splitlines()
        if not lines or lines[0] != "prediction":
            return ["prediction file lacks its header"]
        values = np.array([float(v) for v in lines[1:]])
        if values.shape[0] != self.rows:
            return [f"{values.shape[0]} predictions for {self.rows} rows"]
        if not np.all(np.isfinite(values)):
            return ["non-finite prediction"]
        rpe = cli.metric_rpe(values, self.y_parts[key], self.y_mean)
        self.errors[key] = rpe
        return [] if rpe < RPE_MAX else [f"rpe {rpe:.4f} >= {RPE_MAX}"]


class CvTwoGaussian:
    """``run_benchmark`` classification, member pool on, on a few tables."""

    name = "cv_two_gaussian"
    error_name = "mr"
    hot = (
        "spline.basis_matrix", "spline.basis_deriv_matrix",
        "numerics.solve_ridge_ls", "numerics.gauss_newton_delta",
        "singleindex.fit_single_index", "greedy.run_greedy", "ensemble.fit",
        "ensemble.predict", "data_io.partition", "cli.run_benchmark",
    )

    def __init__(self, size: dict, seed: int) -> None:
        self.size, self.seed = size, seed
        self.keys = list(range(size["tables"]))
        self.rows = size["n"] * size["repeats"]
        self.errors: dict = {}
        self.reports: dict = {}

    def setup(self, work: Path) -> dict[str, bytes]:
        import numpy as np
        from eppr import cli, data_io

        self.datasets, inputs = {}, {}
        for key in self.keys:
            rng = np.random.default_rng([self.seed, key])
            X, y, _ = cli.generate_scenario(
                "two_gaussian", self.size["n"], 10, 0.0, rng
            )
            path = work / f"two_gaussian{key}.csv"
            inputs[path.name] = write_table(path, X, y)
            self.datasets[key] = data_io.load_csv(str(path), "y")
        return inputs

    def run(self, key) -> int:
        from eppr import cli

        report = quiet(
            cli.run_benchmark, self.datasets[key], "classification",
            repeats=self.size["repeats"], seed=self.seed,
            overrides={"B": self.size["B"]},
            data_label=f"two_gaussian{key}.csv", workers=nproc(),
        )
        self.reports[key] = report.render().encode("utf-8")
        return 0

    def output(self, key) -> bytes:
        return self.reports[key]

    def check(self, key, output: bytes) -> list[str]:
        machine = output.decode("utf-8").split("[machine]\n", 1)[-1]
        kv = dict(line.split("=", 1) for line in machine.splitlines() if line)
        repeats = [kv.get(f"mr_repeat_{i + 1}")
                   for i in range(self.size["repeats"])]
        if "failed" in repeats or None in repeats or "mr_mean" not in kv:
            return ["a repeat failed to produce a misclassification rate"]
        mr = float(kv["mr_mean"])
        self.errors[key] = mr
        return [] if mr < MR_MAX else [f"mean mr {mr:.4f} >= {MR_MAX}"]


WORKLOADS = {w.name: w for w in (TrainPpr3, PredictBulk, CvTwoGaussian)}


# ---------------------------------------------------------------------------
# Environment


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = {}
    # Older numpy has no ``mode`` argument, other builds other keys.
    with contextlib.suppress(KeyError, TypeError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}"
        .strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Running a workload


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def import_eppr() -> None:
    """Import eppr from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import eppr

    if Path(eppr.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"eppr imported from {eppr.__file__}, not {SRC}")


class Run:
    """One workload run: set-ups, timed operations and their checks."""

    def __init__(self, workload, trace: bool) -> None:
        self.workload = workload
        self.trace = trace
        # Times at the probe's reference speed, and the raw wall times.
        self.setup_s: list[float] = []
        self.op_s: list[float] = []
        self.traced_s: list[float] = []
        self.wall: dict[str, list[float]] = {
            "setup_s": [], "op_s": [], "traced_s": []
        }
        self.layers: list[dict[str, float]] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self._reference: dict = {}
        self._checked: dict[str, list[str]] = {}
        self._probe_s = probe_seconds()

    def set_up(self, work: Path, repeats: int) -> None:
        for _ in range(repeats):
            path = work / f"setup{len(self.setup_s)}"
            path.mkdir(parents=True)
            inputs = self._time(lambda: self.workload.setup(path), "setup_s")
            digests = {name: sha256(data) for name, data in inputs.items()}
            if self.digests and digests != self.digests:
                self.problems.append("set-up is not deterministic")
            self.digests = digests

    def _time(self, fn, kind: str):
        """Call ``fn`` and record its time under ``kind``, wall and scaled.

        The scale is the reference probe time over the mean of the probes
        run just before and just after ``fn``.
        """
        started = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - started
        after = probe_seconds()
        self.wall[kind].append(wall)
        getattr(self, kind).append(
            wall * PROBE_REFERENCE_S * 2.0 / (self._probe_s + after)
        )
        self._probe_s = after
        return result

    def operate(self, key, tracer=None) -> None:
        """One timed operation, then its checks; a failure is counted."""
        self.attempted += 1
        problems: list[str] = []
        try:
            if tracer is None:
                code = self._time(lambda: self.workload.run(key), "op_s")
            else:
                tracer.reset()
                with tracer.installed():
                    code = self._time(lambda: self.workload.run(key),
                                      "traced_s")
                self.layers.append(tracer.metrics())
            if code != 0:
                problems.append(f"exit code {code}")
            else:
                problems += self._check(key, self.workload.output(key))
        except Exception:  # one failed operation must not end the run
            problems.append(traceback.format_exc().strip().splitlines()[-1])
            traceback.print_exc()
        if problems:
            self.failed += 1
            print(f"op {self.attempted} ({key}) failed: {'; '.join(problems)}",
                  file=sys.stderr)

    def _check(self, key, output: bytes) -> list[str]:
        # Every operation on a key must write the same bytes (the
        # determinism contract); traced operations included.
        reference = self._reference.setdefault(key, output)
        problems = [] if output == reference else [
            "output differs from the first operation's"
        ]
        digest = sha256(output)
        if digest not in self._checked:
            self._checked[digest] = self.workload.check(key, output)
        return problems + self._checked[digest]

    def measure(self, seconds: float) -> None:
        """Passes over the keys until ``seconds`` have passed.

        Untraced runs make at least two passes, so every key is checked
        against a repeat; traced runs alternate untraced and traced
        operations on each key and make at least one pass.
        """
        deadline = time.perf_counter() + seconds
        passes = 0
        least = 1 if self.trace else MIN_PASSES
        tracer = None
        if self.trace:
            from tracer import Tracer

            tracer = Tracer()
        while passes < least or time.perf_counter() < deadline:
            for key in self.workload.keys:
                self.operate(key)
                if tracer is not None:
                    self.operate(key, tracer)
            passes += 1
        for layers in self.layers:
            for span in self.workload.hot:
                if not layers[f"{span}.calls"]:
                    self.problems.append(f"hot layer {span} made no calls")

    def error(self) -> float:
        """Mean held-out error over the keys checked; 1.0 if none was."""
        errors = self.workload.errors
        return statistics.mean(errors.values()) if errors else 1.0

    def end_to_end(self) -> dict[str, float]:
        op_s = statistics.median(self.op_s)
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "setup_s": statistics.median(self.setup_s),
            "op_s": op_s,
            # A run has 8 to 30 operations: too few for a percentile with
            # ten beyond it, and the slowest one swings with the host.  The
            # tail is the upper quartile.
            "op_s_tail": (statistics.quantiles(self.op_s, n=4)[2]
                          if len(self.op_s) > 1 else self.op_s[0]),
            "rows_per_s": self.workload.rows / op_s,
            "peak_rss_mb": usage / 1024.0,
        }

    def per_layer(self) -> dict[str, float]:
        out = {
            key: statistics.median(layers[key] for layers in self.layers)
            for key in self.layers[0]
        }
        out["check.heldout_error"] = self.error()
        out["trace.overhead_frac"] = (
            statistics.median(self.traced_s) / statistics.median(self.op_s)
            - 1.0
        )
        return out


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--results", type=Path,
                        help="directory to write the full run record to")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        import_eppr()
    except (OSError, ValueError, ImportError) as exc:
        print(f"error: cannot load the benchmark or eppr: {exc}",
              file=sys.stderr)
        return 3
    sys.path.insert(0, str(HERE))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    sizes = (SMOKE if args.smoke else FULL)[args.workload]
    run = Run(WORKLOADS[args.workload](sizes, args.seed), bool(args.trace))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        # Half the set-ups run after the measurement, so their median is not
        # taken from one short stretch of a machine whose speed drifts.
        first = (sizes["setups"] + 1) // 2
        run.set_up(work, first)
        run.measure(args.seconds)
        run.set_up(work, sizes["setups"] - first)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    if not run.op_s or (args.trace and not run.layers):
        print("error: no operation completed", file=sys.stderr)
        return 1

    values = run.per_layer() if args.trace else run.end_to_end()
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in listed
    }
    env = environment()
    env["inputs"] = run.digests
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.results is not None:
        args.results.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "environment": env,
            "setup_s": run.setup_s, "op_s": run.op_s,
            "traced_s": run.traced_s, "wall": run.wall, "result": result,
        }
        name = f"{args.workload}.trace{args.trace}.seed{args.seed}.json"
        (args.results / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"ops {len(run.op_s)} untraced / {len(run.traced_s)} traced  "
          f"set-ups {len(run.setup_s)}")
    print(f"  {'op wall median':40s} "
          f"{statistics.median(run.wall['op_s']):>14.6g} s (unscaled)")
    print(f"  {'failed_frac':40s} {run.failed / run.attempted:>14.6g} "
          f"({run.failed} of {run.attempted})")
    print(f"  {run.workload.error_name:40s} {run.error():>14.6g} held out")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
