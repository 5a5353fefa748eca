"""Command line interface: metrics, scenarios, subcommands, exit codes."""

import copy
import errno
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import eppr
from eppr import cli, data_io, ensemble
from eppr.cli import (
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    generate_scenario,
    main,
    metric_mr,
    metric_rpe,
    run_benchmark,
    write_scenario_csv,
)
from eppr.data_io import Dataset, load_csv
from eppr.ensemble import load_model
from eppr.errors import ConfigError, NumericError


class TestMetricRpe:
    def test_perfect_predictions(self) -> None:
        y = np.array([1.0, 2.0, 3.0])
        assert metric_rpe(y, y, 0.0) == 0.0

    def test_train_mean_predictor_scores_one(self) -> None:
        y = np.array([1.0, 4.0])
        assert metric_rpe(np.full(2, 2.0), y, 2.0) == pytest.approx(1.0)

    def test_hand_value(self) -> None:
        # num = (1-1)^2 + (2-4)^2 = 4, den = (2-1)^2 + (2-4)^2 = 5.
        value = metric_rpe(np.array([1.0, 2.0]), np.array([1.0, 4.0]), 2.0)
        assert value == pytest.approx(0.8)

    def test_zero_denominator(self) -> None:
        y = np.array([2.0, 2.0])
        with pytest.raises(NumericError):
            metric_rpe(np.array([1.0, 3.0]), y, 2.0)

    @pytest.mark.parametrize("predictions, y", [
        ([1e200, 0.0], [0.0, 1.0]),  # the numerator overflows
        ([1e200, 0.0], [1e200, 0.0]),  # the denominator overflows
    ])
    def test_sums_that_overflow(self, predictions, y) -> None:
        """Undefined like a zero denominator, and without a warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="sums overflow float64"):
                metric_rpe(np.array(predictions), np.array(y), 0.5)


class TestMetricMr:
    def test_hand_count(self) -> None:
        predictions = np.array([0.9, 0.2, 0.8])
        y = np.array([0.0, 1.0, 1.0])
        assert metric_mr(predictions, y) == pytest.approx(2.0 / 3.0)

    def test_exact_half_counts_as_zero(self) -> None:
        assert metric_mr(np.array([0.5]), np.array([0.0])) == 0.0
        assert metric_mr(np.array([0.5]), np.array([1.0])) == 1.0

    def test_labels_validated(self) -> None:
        with pytest.raises(ConfigError):
            metric_mr(np.array([0.5, 0.5]), np.array([0.0, 2.0]))


def reference_generate_scenario(scenario, n, p, noise, rng):
    """The generator before its four uniform scenarios shared one path.

    Kept only as an oracle: ``generate_scenario`` must reproduce its X, y
    and description bytes, and its errors, draw for draw.
    """
    scenarios = ("single_index", "additive3", "ppr3", "noise", "two_gaussian")
    delta = 1.2815515655446004
    if scenario not in scenarios:
        raise ConfigError(f"unknown scenario {scenario!r}; pick from {scenarios}")
    if n < 1 or p < 1:
        raise ConfigError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    if not (math.isfinite(noise) and noise >= 0.0):
        raise ConfigError(f"noise must be a finite number >= 0, got {noise}")

    if scenario == "single_index":
        theta = rng.standard_normal(p)
        theta = theta / np.linalg.norm(theta)
        X = rng.uniform(-1.0, 1.0, size=(n, p))
        y = np.sin(2.0 * (X @ theta)) + noise * rng.standard_normal(n)
        doc = (
            "y = sin(2 * theta' x) + noise * N(0, 1)\n"
            "x ~ Uniform(-1, 1)^p\n"
            f"theta = {theta.tolist()!r}\n"
        )
        return X, y, doc

    if scenario == "additive3":
        if p < 9:
            raise ConfigError("additive3 needs p >= 9")
        X = rng.uniform(-1.0, 1.0, size=(n, p))
        m1 = np.sin(np.pi * X[:, 0] * X[:, 1]) + X[:, 2] ** 2
        m2 = np.cos(np.pi * X[:, 3]) * X[:, 4] + 0.5 * X[:, 5]
        m3 = np.exp(X[:, 6] * X[:, 7]) - 1.0 + X[:, 8]
        y = m1 + m2 + m3 + noise * rng.standard_normal(n)
        doc = (
            "y = m1(x1,x2,x3) + m2(x4,x5,x6) + m3(x7,x8,x9) + noise * N(0,1)\n"
            "m1 = sin(pi x1 x2) + x3^2\n"
            "m2 = cos(pi x4) x5 + 0.5 x6\n"
            "m3 = exp(x7 x8) - 1 + x9\n"
            "x ~ Uniform(-1, 1)^p\n"
        )
        return X, y, doc

    if scenario == "ppr3":
        if p < 9:
            raise ConfigError("ppr3 needs p >= 9")
        X = rng.uniform(-1.0, 1.0, size=(n, p))
        subsets = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
        thetas = []
        for _ in subsets:
            t = rng.standard_normal(3)
            thetas.append(t / np.linalg.norm(t))
        z1 = X[:, subsets[0]] @ thetas[0]
        z2 = X[:, subsets[1]] @ thetas[1]
        z3 = X[:, subsets[2]] @ thetas[2]
        y = (
            3.0 * np.sin(np.pi * z1)
            + 2.0 * z2 ** 2
            + np.exp(z3)
            + noise * rng.standard_normal(n)
        )
        doc = (
            "y = 3 sin(pi z1) + 2 z2^2 + exp(z3) + noise * N(0, 1)\n"
            "z1 = theta1' (x1,x2,x3), z2 = theta2' (x4,x5,x6), "
            "z3 = theta3' (x7,x8,x9)\n"
            "x ~ Uniform(-1, 1)^p\n"
            f"theta1 = {thetas[0].tolist()!r}\n"
            f"theta2 = {thetas[1].tolist()!r}\n"
            f"theta3 = {thetas[2].tolist()!r}\n"
        )
        return X, y, doc

    if scenario == "noise":
        X = rng.uniform(-1.0, 1.0, size=(n, p))
        y = rng.standard_normal(n)
        doc = (
            "y = N(0, 1), independent of x; the best relative prediction\n"
            "error attainable is 1 and any lower test value is chance.\n"
            "x ~ Uniform(-1, 1)^p; the noise flag is unused.\n"
        )
        return X, y, doc

    # two_gaussian
    labels = rng.integers(0, 2, size=n)
    mu = np.full(p, delta / np.sqrt(p))
    X = rng.standard_normal((n, p)) + np.where(labels[:, None] == 1, mu, -mu)
    doc = (
        "x | y=1 ~ N(+mu, I), x | y=0 ~ N(-mu, I), P(y=1) = 1/2\n"
        f"mu = ({delta} / sqrt(p)) * ones(p)\n"
        "Bayes misclassification rate = Phi(-1.28155...) = 0.10 by\n"
        "construction; the noise flag is unused.\n"
    )
    return X, labels.astype(float), doc


def _draw_or_error(generate, scenario, n, p, noise, seed):
    try:
        X, y, doc = generate(scenario, n, p, noise, np.random.default_rng(seed))
    except ConfigError as exc:
        return str(exc)
    return X.shape, X.tobytes(), y.tobytes(), doc


class TestGenerateScenario:
    def test_shapes_and_determinism(self) -> None:
        for scenario in ("single_index", "additive3", "ppr3", "noise"):
            X1, y1, doc = generate_scenario(
                scenario, 50, 9, 0.1, np.random.default_rng(4)
            )
            X2, y2, _ = generate_scenario(
                scenario, 50, 9, 0.1, np.random.default_rng(4)
            )
            assert X1.shape == (50, 9) and y1.shape == (50,)
            assert doc.strip()
            np.testing.assert_array_equal(X1, X2)
            np.testing.assert_array_equal(y1, y2)

    def test_ppr3_formula(self) -> None:
        X, y, _ = generate_scenario(
            "ppr3", 40, 9, 0.0, np.random.default_rng(5)
        )
        # Replay the generator's stream: X first, then one unit direction
        # per block of three features.
        rng = np.random.default_rng(5)
        X2 = rng.uniform(-1.0, 1.0, size=(40, 9))
        np.testing.assert_array_equal(X, X2)
        thetas = []
        for _ in range(3):
            t = rng.standard_normal(3)
            thetas.append(t / np.linalg.norm(t))
        z1 = X[:, :3] @ thetas[0]
        z2 = X[:, 3:6] @ thetas[1]
        z3 = X[:, 6:9] @ thetas[2]
        expected = 3.0 * np.sin(np.pi * z1) + 2.0 * z2 ** 2 + np.exp(z3)
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_two_gaussian_labels_balanced(self) -> None:
        X, y, _ = generate_scenario(
            "two_gaussian", 400, 10, 0.0, np.random.default_rng(6)
        )
        assert set(np.unique(y)) == {0.0, 1.0}
        assert 100 < y.sum() < 300

    def test_noise_ignores_signal_features(self) -> None:
        _, y, _ = generate_scenario(
            "noise", 200, 5, 1.0, np.random.default_rng(7)
        )
        assert np.std(y) > 0.5

    def test_unknown_scenario(self) -> None:
        with pytest.raises(ConfigError):
            generate_scenario("mystery", 10, 2, 0.0,
                              np.random.default_rng(0))

    @pytest.mark.parametrize("scenario", ["ppr3", "additive3"])
    def test_ppr3_needs_nine_features(self, scenario) -> None:
        with pytest.raises(ConfigError, match=f"{scenario} needs p >= 9"):
            generate_scenario(scenario, 10, 4, 0.0, np.random.default_rng(0))

    @pytest.mark.parametrize("scenario", cli.SCENARIOS)
    def test_matches_reference_bytes(self, scenario) -> None:
        # Same machine, same numpy: byte equality holds whatever the
        # platform's sin and exp round to.
        for seed in (0, 1, 7, 123):
            for n in (1, 50, 333):
                for p in (1, 3, 9, 12):
                    for noise in (0.0, 0.5):
                        args = (scenario, n, p, noise, seed)
                        assert _draw_or_error(generate_scenario, *args) == (
                            _draw_or_error(reference_generate_scenario, *args)
                        ), args

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -1.0])
    def test_noise_must_be_finite_and_non_negative(self, noise) -> None:
        with pytest.raises(ConfigError):
            generate_scenario("ppr3", 10, 9, noise, np.random.default_rng(0))

    @pytest.mark.parametrize("scenario", ["single_index", "additive3", "ppr3"])
    def test_noise_whose_response_overflows(self, scenario) -> None:
        """Refused with one error, and without a warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=(
                r"^noise=1e\+308 makes the response overflow float64$"
            )):
                generate_scenario(scenario, 200, 9, 1e308,
                                  np.random.default_rng(0))

    @pytest.mark.parametrize("n, p", [(0, 3), (3, 0), (-1, -1)])
    def test_needs_a_row_and_a_predictor(self, n, p) -> None:
        with pytest.raises(ConfigError, match=(
            f"^need n >= 1 and p >= 1, got n={n}, p={p}$"
        )):
            generate_scenario("noise", n, p, 0.0, np.random.default_rng(0))


class TestSynthCommand:
    def test_writes_csv_and_sidecar(self, tmp_path, capsys) -> None:
        out = tmp_path / "data.csv"
        code = main([
            "synth", "--scenario", "additive3", "--n", "30", "--p", "9",
            "--noise", "0.1", "--seed", "3", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert out.exists() and (tmp_path / "data.csv.meta.txt").exists()
        data = load_csv(str(out), "y")
        assert data.X.shape == (30, 9)
        header = out.read_text().splitlines()[0]
        assert header == "x1,x2,x3,x4,x5,x6,x7,x8,x9,y"

    def test_round_trips_exactly(self, tmp_path) -> None:
        out = tmp_path / "data.csv"
        main(["synth", "--scenario", "single_index", "--n", "20",
              "--p", "3", "--seed", "9", "--out", str(out)])
        X, y, _ = generate_scenario(
            "single_index", 20, 3, 0.0, np.random.default_rng(9)
        )
        data = load_csv(str(out), "y")
        np.testing.assert_array_equal(data.X, X)
        np.testing.assert_array_equal(data.y, y)

    def test_deterministic_bytes(self, tmp_path) -> None:
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--scenario", "ppr3", "--n", "25", "--p", "9",
                "--noise", "0.2", "--seed", "11"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_scenario_is_usage_error(self, tmp_path, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "--scenario", "mystery", "--n", "10",
                  "--p", "2", "--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == EXIT_USAGE

    def test_overflowing_noise_writes_nothing(self, tmp_path, capfd) -> None:
        out = tmp_path / "t.csv"
        capfd.readouterr()
        code = main(["synth", "--scenario", "ppr3", "--n", "200", "--p", "9",
                     "--noise", "1e308", "--out", str(out)])
        captured = capfd.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == (
            "error: noise=1e+308 makes the response overflow float64\n"
        )
        assert captured.out == ""
        assert not out.exists()
        assert not (tmp_path / "t.csv.meta.txt").exists()


def reference_scenario_csv(path, X, y) -> None:
    """The per-row writer that the block writer replaced, kept as the oracle."""
    names = [f"x{j + 1}" for j in range(X.shape[1])] + ["y"]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(names) + "\n")
        for i in range(X.shape[0]):
            cells = [repr(float(v)) for v in X[i]]
            cells.append(repr(float(y[i])))
            handle.write(",".join(cells) + "\n")


BLOCK = cli._CSV_BLOCK_ROWS
EDGE_ROWS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]
SPECIAL_FLOATS = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
                  1e16, 1e-05]


def _cells(kind: str, shape, rng) -> np.ndarray:
    if kind == "int":
        return rng.integers(-10**6, 10**6, size=shape)
    if kind == "bool":
        return rng.random(shape) < 0.5
    if kind == "float32":
        return rng.standard_normal(shape).astype(np.float32)
    cells = rng.standard_normal(shape)
    flat = cells.reshape(-1)
    flat[::3] = np.resize(SPECIAL_FLOATS, flat[::3].size)
    return cells


class TestCsvWriter:
    @pytest.mark.parametrize("rows", EDGE_ROWS)
    @pytest.mark.parametrize("p", [1, 40])
    @pytest.mark.parametrize("kind", ["int", "bool", "float32", "special"])
    def test_matches_per_row_writer(self, tmp_path, kind, p, rows) -> None:
        rng = np.random.default_rng([rows, p])
        X, y = _cells(kind, (rows, p), rng), _cells(kind, rows, rng)
        got, want = tmp_path / "block.csv", tmp_path / "row.csv"
        write_scenario_csv(str(got), X, y)
        reference_scenario_csv(str(want), X, y)
        assert got.read_bytes() == want.read_bytes()

    def test_memory_stays_per_block(self, tmp_path) -> None:
        X = np.random.default_rng(0).standard_normal((50_000, 9))
        y = X.sum(axis=1)
        out = tmp_path / "big.csv"
        # A formatter of the whole table would hold all of its 9 MB of text.
        bound = 2 * 2**20
        tracemalloc.start()
        try:
            write_scenario_csv(str(out), X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size > 4 * bound
        assert peak < bound

    @pytest.mark.parametrize("rows", EDGE_ROWS)
    def test_prediction_file_is_one_repr_per_line(
        self, tmp_path, capsys, rows
    ) -> None:
        model_path = str(tmp_path / "model.json")
        assert main(["train", "--data", synth_file(tmp_path), "--target",
                     "y", "--out", model_path, "--B", "2", "--kmax", "2",
                     "--stopping", "fixed_k"]) == EXIT_OK
        X = np.random.default_rng(rows).uniform(-1.5, 1.5, (rows, 3))
        data, out = tmp_path / "rows.csv", tmp_path / "pred.csv"
        write_scenario_csv(str(data), X, np.zeros(rows))
        assert main(["predict", "--model", model_path, "--data", str(data),
                     "--out", str(out)]) == EXIT_OK
        preds = load_model(model_path).predict(X)
        assert out.read_text(encoding="utf-8") == (
            "prediction\n" + "\n".join(map(repr, preds.tolist())) + "\n"
        )


def synth_file(tmp_path, scenario="single_index", n=60, p=3, noise=0.1,
               seed=2) -> str:
    out = tmp_path / f"{scenario}.csv"
    main(["synth", "--scenario", scenario, "--n", str(n), "--p", str(p),
          "--noise", str(noise), "--seed", str(seed), "--out", str(out)])
    return str(out)


class TestTrainPredict:
    def test_train_writes_model(self, tmp_path, capsys) -> None:
        data = synth_file(tmp_path)
        model_path = tmp_path / "model.json"
        code = main(["train", "--data", data, "--target", "y",
                     "--out", str(model_path), "--B", "2", "--kmax", "1",
                     "--stopping", "fixed_k"])
        assert code == EXIT_OK
        assert model_path.exists()
        assert "model written" in capsys.readouterr().out

    def test_train_is_byte_deterministic(self, tmp_path) -> None:
        data = synth_file(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["train", "--data", data, "--target", "y", "--B", "2",
                "--kmax", "1", "--stopping", "fixed_k", "--seed", "5"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_predict_writes_header_and_values(self, tmp_path) -> None:
        data = synth_file(tmp_path)
        model_path = tmp_path / "model.json"
        main(["train", "--data", data, "--target", "y",
              "--out", str(model_path), "--B", "2", "--kmax", "1",
              "--stopping", "fixed_k"])
        pred_path = tmp_path / "pred.csv"
        code = main(["predict", "--model", str(model_path),
                     "--data", data, "--out", str(pred_path)])
        assert code == EXIT_OK
        lines = pred_path.read_text().splitlines()
        assert lines[0] == "prediction"
        values = [float(line) for line in lines[1:]]
        assert len(values) == 60
        assert all(np.isfinite(values))

    def test_predict_matches_library_call(self, tmp_path) -> None:
        from eppr import ensemble

        data = synth_file(tmp_path)
        model_path = tmp_path / "model.json"
        main(["train", "--data", data, "--target", "y",
              "--out", str(model_path), "--B", "2", "--kmax", "1",
              "--stopping", "fixed_k"])
        pred_path = tmp_path / "pred.csv"
        main(["predict", "--model", str(model_path), "--data", data,
              "--out", str(pred_path)])
        model = ensemble.load_model(str(model_path))
        loaded = load_csv(data, "y")
        expected = model.predict(loaded.X)
        got = np.array([
            float(line)
            for line in pred_path.read_text().splitlines()[1:]
        ])
        np.testing.assert_array_equal(got, expected)

    def test_predict_reports_dropped_rows(self, tmp_path, capsys) -> None:
        data = synth_file(tmp_path)
        model_path = tmp_path / "model.json"
        main(["train", "--data", data, "--target", "y",
              "--out", str(model_path), "--B", "1", "--kmax", "1",
              "--stopping", "fixed_k"])
        lines = (tmp_path / "single_index.csv").read_text().splitlines()
        rows = tmp_path / "rows.csv"
        short = ",".join(lines[3].split(",")[:-2])
        rows.write_text("\n".join(lines[:3] + [short] + lines[4:5]) + "\n")
        capsys.readouterr()
        pred_path = tmp_path / "pred.csv"
        code = main(["predict", "--model", str(model_path),
                     "--data", str(rows), "--out", str(pred_path)])
        out, err = capsys.readouterr()
        assert code == EXIT_OK
        assert "3 prediction(s) written" in out
        assert len(pred_path.read_text().splitlines()) == 4
        assert err.splitlines() == [
            f"note: dropped 1 row(s) of {rows} with missing or bad cells"
        ]

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_dropped_rows_noted_once(self, tmp_path, capfd, command) -> None:
        """An empty and an ``NA`` cell drop two rows: one note names both,
        and the clean table gives no note."""
        clean = synth_file(tmp_path, n=30)
        lines = Path(clean).read_text().splitlines()
        dirty = tmp_path / "dirty.csv"
        lines[2] = ",".join([""] + lines[2].split(",")[1:])
        lines[9] = ",".join(lines[9].split(",")[:-1] + ["NA"])
        dirty.write_text("\n".join(lines) + "\n")
        flags = {"train": ["--out", str(tmp_path / "model.json")],
                 "benchmark": ["--repeats", "1"]}[command]
        for data, notes in [
            (dirty, [f"note: dropped 2 row(s) of {dirty} with missing or "
                     "bad cells"]),
            (clean, []),
        ]:
            capfd.readouterr()
            code = main([command, "--data", str(data), "--target", "y",
                         "--B", "1", "--kmax", "1", "--stopping", "fixed_k",
                         *flags])
            assert code == EXIT_OK
            err = capfd.readouterr().err.splitlines()
            assert [line for line in err if line.startswith("note:")] == notes

    def test_target_by_position(self, tmp_path) -> None:
        data = synth_file(tmp_path, p=2)
        model_path = tmp_path / "model.json"
        code = main(["train", "--data", data, "--target", "2",
                     "--out", str(model_path), "--B", "1", "--kmax", "1",
                     "--stopping", "fixed_k"])
        assert code == EXIT_OK


class TestBenchmarkCommand:
    def test_report_is_deterministic(self, tmp_path, capsys) -> None:
        data = synth_file(tmp_path, n=80)
        capsys.readouterr()
        args = ["benchmark", "--data", data, "--target", "y",
                "--repeats", "2", "--B", "2", "--kmax", "1",
                "--stopping", "fixed_k", "--baseline"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        assert "[machine]" in first and "rpe" in first

    def test_small_ppr3_beats_linear_baseline(self, tmp_path, capsys) -> None:
        data = synth_file(tmp_path, scenario="ppr3", n=400, p=9, noise=0.1,
                          seed=13)
        capsys.readouterr()
        code = main(["benchmark", "--data", data, "--target", "y",
                     "--repeats", "1", "--B", "4", "--baseline"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        machine = dict(
            line.split("=", 1)
            for line in out.split("[machine]", 1)[1].strip().splitlines()
        )
        assert float(machine["rpe_mean"]) < float(
            machine["baseline_rpe_mean"]
        )

    def test_classification_metric(self, tmp_path, capsys) -> None:
        data = synth_file(tmp_path, scenario="two_gaussian", n=150, p=4,
                          seed=17)
        capsys.readouterr()
        code = main(["benchmark", "--data", data, "--target", "y",
                     "--task", "classification", "--repeats", "1",
                     "--B", "2", "--kmax", "1", "--stopping", "fixed_k"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        machine = dict(
            line.split("=", 1)
            for line in out.split("[machine]", 1)[1].strip().splitlines()
        )
        assert 0.0 <= float(machine["mr_mean"]) <= 1.0

    @pytest.mark.parametrize("baseline", [False, True])
    def test_every_repeat_failed_report(self, baseline) -> None:
        """A ppr3 response is not 0/1, so every classification repeat fails.

        The report holds no fitted number, so its text is exact.
        """
        X, y, _ = generate_scenario("ppr3", 60, 9, 0.5,
                                    np.random.default_rng(1))
        names = [f"x{j + 1}" for j in range(9)] + ["y"]
        report = run_benchmark(
            Dataset(X=X, y=y, column_names=names), task="classification",
            repeats=2, seed=0, baseline=baseline, data_label="ppr3",
            overrides={"B": 1, "k_max": 1, "stopping": "fixed_k"},
        )
        base_head = "       baseline_mr" if baseline else ""
        base_cell = "                 -" if baseline else ""
        reason = "   (classification labels must be 0 or 1)"
        machine_base = (
            "baseline_mr_repeat_1=failed\nbaseline_mr_repeat_2=failed\n"
            if baseline else ""
        )
        assert report.render() == (
            "ensemble projection pursuit benchmark\n"
            "data: ppr3\n"
            "task: classification   metric: mr\n"
            "repeats: 2   seed: 0\n"
            "split: 40 train / 20 test\n"
            "\n"
            f"repeat   k_mean            mr{base_head}\n"
            f"     1        -        failed{base_cell}{reason}\n"
            f"     2        -        failed{base_cell}{reason}\n"
            "\n"
            "summary: no successful repeats\n"
            "\n"
            "[machine]\n"
            "data=ppr3\ntask=classification\nmetric=mr\nrepeats=2\nseed=0\n"
            "n_train=40\nn_test=20\n"
            "config_B=1\nconfig_J=6\nconfig_degree=3\nconfig_ell=2\n"
            "config_k_max=1\nconfig_nu=0.2\nconfig_q=4\n"
            "config_stopping=fixed_k\nconfig_truncation_mode=off\n"
            "config_variant=aga\n"
            "mr_repeat_1=failed\nmr_repeat_2=failed\n"
            f"{machine_base}"
        )
        assert report.successful() == []

    def test_overflowing_baseline_reads_failed(self, tmp_path, capfd) -> None:
        """A test row far outside the training range overflows the linear
        baseline's squared error: its value reads ``failed``, its row ends
        in the reason, and no warning reaches stderr."""
        data = Path(synth_file(tmp_path, scenario="ppr3", n=120, p=9))
        lines = data.read_text().splitlines()
        row = 1 + np.random.default_rng([0, 0, 0]).permutation(120)[-1]
        lines[row] = ",".join(["1e300"] + lines[row].split(",")[1:])
        data.write_text("\n".join(lines) + "\n")
        # Repeat 1 of seed 0 draws this partition: the far row is a test row.
        _, test = data_io.partition(load_csv(str(data), "y"),
                                    np.random.default_rng([0, 0, 0]))
        assert 1e300 in test.X[:, 0]
        capfd.readouterr()
        code = main(["benchmark", "--data", str(data), "--target", "y",
                     "--repeats", "1", "--B", "1", "--kmax", "2",
                     "--baseline"])
        out, err = capfd.readouterr()
        assert code == EXIT_OK
        assert err.startswith("repeat 1/1: ") and len(err.splitlines()) == 1
        row_1 = [line for line in out.splitlines() if line.startswith("     1")]
        assert row_1[0].endswith(
            "                 -   (baseline failed: relative prediction "
            "error undefined: its sums overflow float64)"
        )
        machine = out.split("[machine]\n", 1)[1]
        assert machine.endswith("rpe_std=0.0\nbaseline_rpe_repeat_1=failed\n")
        assert "baseline:" not in out

    def test_run_benchmark_rejects_bad_args(self) -> None:
        data = Dataset(
            X=np.zeros((10, 2)), y=np.zeros(10),
            column_names=["a", "b", "y"],
        )
        with pytest.raises(ConfigError):
            run_benchmark(data, task="ranking", repeats=1, seed=0)
        with pytest.raises(ConfigError):
            run_benchmark(data, task="regression", repeats=0, seed=0)


class TestExitCodes:
    def test_missing_data_file(self, tmp_path, capsys) -> None:
        code = main(["train", "--data", str(tmp_path / "absent.csv"),
                     "--target", "y", "--out", str(tmp_path / "m.json")])
        assert code == EXIT_IO
        assert "error" in capsys.readouterr().err.lower()

    def test_bad_config_value(self, tmp_path, capsys) -> None:
        data = synth_file(tmp_path)
        code = main(["train", "--data", data, "--target", "y",
                     "--out", str(tmp_path / "m.json"), "--B", "0"])
        assert code == EXIT_USAGE

    def test_missing_target_column(self, tmp_path, capsys) -> None:
        data = synth_file(tmp_path)
        code = main(["train", "--data", data, "--target", "zzz",
                     "--out", str(tmp_path / "m.json")])
        assert code == EXIT_IO

    def test_constant_target_benchmark_fails_numeric(
        self, tmp_path, capsys
    ) -> None:
        path = tmp_path / "const.csv"
        lines = ["a,b,y"] + [f"{i},{i % 7},5.0" for i in range(30)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["benchmark", "--data", str(path), "--target", "y",
                     "--repeats", "2", "--B", "1", "--kmax", "1",
                     "--stopping", "fixed_k"])
        assert code == EXIT_NUMERIC

    def test_out_of_memory_is_usage_error(
        self, tmp_path, capsys, monkeypatch
    ) -> None:
        def exhausted(*args):
            raise MemoryError("forced")

        monkeypatch.setattr(cli, "generate_scenario", exhausted)
        out = tmp_path / "t.csv"
        code = main(["synth", "--scenario", "noise", "--n", "5", "--p", "2",
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: out of memory (forced)\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "benchmark"])
    def test_negative_seed_is_usage_error(
        self, tmp_path, capsys, command
    ) -> None:
        out = tmp_path / "t.csv"
        if command == "synth":
            argv = ["synth", "--scenario", "noise", "--n", "5", "--p", "2",
                    "--out", str(out)]
        else:
            argv = ["benchmark", "--data", synth_file(tmp_path),
                    "--target", "y", "--repeats", "1", "--B", "1"]
        capsys.readouterr()
        assert main([*argv, "--seed", "-1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0, got -1\n"
        assert captured.out == "" and not out.exists()

    def test_unknown_subcommand(self) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["transmogrify"])
        assert excinfo.value.code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_directory_input_is_file_error(
        self, tmp_path, capsys, command
    ) -> None:
        folder = tmp_path / "folder"
        folder.mkdir()
        out = tmp_path / "out"
        if command == "train":
            argv = ["train", "--data", str(folder), "--target", "y"]
        else:
            argv = ["predict", "--model", str(folder),
                    "--data", synth_file(tmp_path)]
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert _one_error_line(err)
        assert err.startswith(f"error: cannot read {folder}: ")
        assert not out.exists()

    def test_predict_model_file_missing(self, tmp_path, capsys) -> None:
        data = synth_file(tmp_path)
        code = main(["predict", "--model", str(tmp_path / "no.json"),
                     "--data", data, "--out", str(tmp_path / "p.csv")])
        assert code == EXIT_IO

    def test_synth_sidecar_taken_writes_nothing(
        self, tmp_path, capsys
    ) -> None:
        table = tmp_path / "t.csv"
        (tmp_path / "t.csv.meta.txt").mkdir()
        capsys.readouterr()
        code = main(["synth", "--scenario", "ppr3", "--n", "100", "--p", "9",
                     "--out", str(table)])
        assert code == EXIT_IO
        assert _one_error_line(capsys.readouterr().err)
        assert not table.exists()

    @pytest.mark.parametrize("width, dirty", [
        (8, False), (11, False), (8, True), (11, True),
    ], ids=["8", "11", "8-dirty", "11-dirty"])
    @pytest.mark.parametrize("named", [True, False])
    def test_predict_file_of_another_width_is_file_error(
        self, tmp_path, capsys, named, width, dirty
    ) -> None:
        """Named or not, the model refuses the file from its header, with
        one error line and no note on a row it would have dropped."""
        data = synth_file(tmp_path, scenario="ppr3", n=120, p=9)
        model_path = tmp_path / "model.json"
        assert main(["train", "--data", data, "--target", "y",
                     "--out", str(model_path), "--B", "1", "--kmax", "1",
                     "--stopping", "fixed_k"]) == EXIT_OK
        if not named:
            doc = json.loads(model_path.read_text())
            doc["column_names"] = None
            model_path.write_text(json.dumps(doc))
        rows = np.random.default_rng(0).uniform(-1.0, 1.0, (30, width))
        cells = [list(map(repr, row)) for row in rows.tolist()]
        if dirty:
            cells[12][3] = "NA"
        other = tmp_path / "other.csv"
        other.write_text(
            ",".join(f"a{j}" for j in range(width)) + "\n"
            + "".join(",".join(row) + "\n" for row in cells)
        )
        capsys.readouterr()
        code = main(["predict", "--model", str(model_path),
                     "--data", str(other), "--out", str(tmp_path / "p.csv")])
        assert code == EXIT_IO
        assert capsys.readouterr().err == (
            "error: prediction file lacks the model's feature columns\n"
        )
        assert not (tmp_path / "p.csv").exists()


def _one_error_line(err: str) -> bool:
    lines = err.strip().splitlines()
    return (
        "Traceback" not in err and len(lines) == 1
        and lines[0].startswith("error:")
    )


# A child's address-space cap: about four times what a small train or
# predict maps, and far below what an oversized spline asks for.
_CAP_BYTES = 1 << 30


def _capped_main(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of ``main(argv)`` in a child process whose
    address space is capped, so an oversized allocation fails at once; a
    child that runs for 10 s fails the test."""
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({_CAP_BYTES},) * 2)\n"
        "from eppr.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(eppr.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                           capture_output=True, text=True, timeout=10)
    return child.returncode, child.stderr


# Other synth flags refused the same way, run in a capped child: a negative
# seed, which numpy's seeding refuses, and 9e11 cells, beyond any memory.
_SYNTH_FLAGS = {"synth_negative_seed": ["--seed", "-1"],
                "synth_out_of_memory": ["--n", "100000000000"]}


# Fit flags whose BIC penalty overflows float64: J^(1 + nu) itself, and,
# with J = 6, only the product tau ln(n) (q + J^(1 + nu)) at the last of
# five fixed steps, which a check of the first step would miss.
_BIC_OVERFLOW = {
    "train_nu_overflow": ["train", "--nu", "400"],
    "train_bic_trace_overflow": ["train", "--J", "6", "--nu", "393.5",
                                 "--stopping", "fixed_k", "--kmax", "5"],
    "benchmark_nu_overflow": ["benchmark", "--repeats", "1", "--nu", "400"],
}


@pytest.mark.parametrize(
    "command", ["train", "synth", *_SYNTH_FLAGS, *_BIC_OVERFLOW]
)
def test_non_finite_flag_is_usage_error(tmp_path, capsys, command) -> None:
    out = tmp_path / "out"
    if command == "train" or command in _BIC_OVERFLOW:
        name, *flags = _BIC_OVERFLOW.get(command, ["train", "--nu", "nan"])
        argv = [name, "--data", synth_file(tmp_path), "--target", "y", *flags]
        if name == "train":
            argv += ["--out", str(out)]
    else:
        argv = ["synth", "--scenario", "ppr3", "--n", "10", "--p", "9",
                "--out", str(out),
                *_SYNTH_FLAGS.get(command, ["--noise", "nan"])]
    capsys.readouterr()
    if command in _SYNTH_FLAGS:
        code, err = _capped_main(argv)
    else:
        code, err = main(argv), capsys.readouterr().err
    assert code == EXIT_USAGE
    assert _one_error_line(err)
    assert not out.exists()


def _unwritable_out(tmp_path, kind: str) -> str:
    """An --out path under tmp_path that cannot be written, named ``kind``."""
    if kind == "absent":
        return str(tmp_path / "absent" / "out")
    if kind == "taken":
        (tmp_path / "taken").mkdir()
        return str(tmp_path / "taken")
    (tmp_path / "locked").mkdir(mode=0o555)
    return str(tmp_path / "locked" / "out")


@pytest.mark.parametrize("kind", [
    "absent",
    "taken",
    pytest.param("locked", marks=pytest.mark.skipif(
        hasattr(os, "geteuid") and os.geteuid() == 0,
        reason="root writes into a read-only directory",
    )),
])
@pytest.mark.parametrize("command", ["train", "predict", "synth"])
def test_out_in_missing_directory_is_file_error(
    tmp_path, capsys, monkeypatch, command, kind
) -> None:
    data = synth_file(tmp_path)
    out = _unwritable_out(tmp_path, kind)
    if command == "train":
        argv = ["train", "--data", data, "--target", "y", "--out", out]
        first_work = "eppr.ensemble.fit"
    elif command == "predict":
        model_path = str(tmp_path / "model.json")
        assert main(["train", "--data", data, "--target", "y",
                     "--out", model_path, "--B", "1", "--kmax", "1",
                     "--stopping", "fixed_k"]) == EXIT_OK
        argv = ["predict", "--model", model_path, "--data", data,
                "--out", out]
        first_work = "eppr.cli.load_feature_matrix"
    else:
        argv = ["synth", "--scenario", "ppr3", "--n", "10", "--p", "9",
                "--out", out]
        first_work = "eppr.cli.generate_scenario"

    def no_work(*args, **kwargs):
        raise AssertionError(f"{first_work} ran before --out was checked")

    monkeypatch.setattr(first_work, no_work)
    capsys.readouterr()
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert _one_error_line(err) and kind in err


@pytest.mark.parametrize("spelling", ["same", "link"])
@pytest.mark.parametrize("command, clobbered", [
    ("train", "data"), ("predict", "model"), ("predict", "data"),
])
def test_out_naming_an_input_is_file_error(
    tmp_path, capsys, monkeypatch, command, clobbered, spelling
) -> None:
    """An --out that is one of the command's inputs, by the same name or
    through a link, is refused before anything is read."""
    data = synth_file(tmp_path)
    model_path = str(tmp_path / "model.json")
    assert main(["train", "--data", data, "--target", "y",
                 "--out", model_path, "--B", "1", "--kmax", "1",
                 "--stopping", "fixed_k"]) == EXIT_OK
    victim = data if clobbered == "data" else model_path
    out = victim
    if spelling == "link":
        out = str(tmp_path / "link")
        os.symlink(victim, out)
    if command == "train":
        argv = ["train", "--data", data, "--target", "y", "--out", out]
        first_work = "eppr.cli.load_csv"
    else:
        argv = ["predict", "--model", model_path, "--data", data,
                "--out", out]
        first_work = "eppr.ensemble.load_model"

    def no_work(*args, **kwargs):
        raise AssertionError(f"{first_work} ran before --out was checked")

    monkeypatch.setattr(first_work, no_work)
    before = Path(victim).read_bytes()
    capsys.readouterr()
    assert main(argv) == EXIT_IO
    assert capsys.readouterr().err == (
        f"error: cannot write {out}: is an input file\n"
    )
    assert Path(victim).read_bytes() == before


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full, whose writes fail with ENOSPC")
@pytest.mark.parametrize("written", ["train", "predict", "synth",
                                     "synth_sidecar"])
def test_failed_write_names_the_file(tmp_path, capsys, written) -> None:
    """A write that fails after the file opened names it, exit 3.

    The output is a link to /dev/full in tmp_path, so ``--out`` passes
    the writability check for any user and only the write itself fails.
    """
    full = tmp_path / "full"
    full.symlink_to("/dev/full")
    out = str(full)
    if written == "train":
        argv = ["train", "--data", synth_file(tmp_path), "--target", "y",
                "--B", "1"]
    elif written == "predict":
        data, model_path = synth_file(tmp_path), str(tmp_path / "m.json")
        assert main(["train", "--data", data, "--target", "y",
                     "--out", model_path, "--B", "1"]) == EXIT_OK
        argv = ["predict", "--model", model_path, "--data", data]
    else:
        argv = ["synth", "--scenario", "noise", "--n", "5", "--p", "2"]
        if written == "synth_sidecar":
            out = str(tmp_path / "t.csv")
            full.rename(out + ".meta.txt")
            full = Path(out + ".meta.txt")
    capsys.readouterr()
    assert main([*argv, "--out", out]) == EXIT_IO
    assert capsys.readouterr().err == (
        f"error: cannot write {full}: {os.strerror(errno.ENOSPC)}\n"
    )
    # Only a regular file is removed: the link and /dev/full stay, and the
    # table goes with its failed sidecar.
    assert full.is_symlink() and os.path.exists("/dev/full")
    assert not (tmp_path / "t.csv").exists()


class _FillsUp:
    """A text file that takes ``whole`` writes, then half of the next one,
    and then fails as a full disk does."""

    def __init__(self, handle, whole: int) -> None:
        self.handle, self.whole, self.landed = handle, whole, None

    def write(self, text: str) -> int:
        if self.whole == 0:
            self.handle.write(text[:len(text) // 2])
            self.handle.flush()
            with open(self.handle.name, encoding="utf-8") as written:
                self.landed = written.read()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.whole -= 1
        return self.handle.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.handle.close()


@pytest.mark.parametrize("written", ["train", "predict", "synth"])
def test_failed_write_leaves_no_file(
    tmp_path, capsys, monkeypatch, written
) -> None:
    """A write that fails partway removes the file it was writing, exit 3.

    The disk fills up on the write after the header and the first
    1,024-row block of a CSV, and on a model's one write; half of that
    write lands first.
    """
    data = synth_file(tmp_path, n=1500)
    whole = 2
    if written == "train":
        argv, whole = ["train", "--data", data, "--target", "y", "--B", "1"], 0
    elif written == "predict":
        model_path = str(tmp_path / "m.json")
        assert main(["train", "--data", data, "--target", "y",
                     "--out", model_path, "--B", "1"]) == EXIT_OK
        argv = ["predict", "--model", model_path, "--data", data]
    else:
        argv = ["synth", "--scenario", "noise", "--n", "1500", "--p", "2"]
    files: list = []

    def fills_up(path, mode="r", **kwargs):
        handle = open(path, mode, **kwargs)
        if mode == "w":
            files.append(_FillsUp(handle, whole))
            return files[-1]
        return handle

    monkeypatch.setattr(ensemble, "open", fills_up, raising=False)
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == EXIT_IO
    err = capsys.readouterr().err
    assert _one_error_line(err)
    assert err == f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
    # One file was opened, and it held more than the first block when the
    # write failed.
    assert len(files) == 1
    assert files[0].landed.count("\n") > (1025 if whole else 0)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["single_index.csv", "single_index.csv.meta.txt"]
        + (["m.json"] if written == "predict" else [])
    )


def _drop_theta(doc: dict) -> None:
    del doc["members"][0]["ridges"][0]["theta"]


def _unknown_config_field(doc: dict) -> None:
    doc["config"]["bogus"] = 1


def _subset_beyond_p(doc: dict) -> None:
    # Still strictly increasing and as long as theta; only p = 9 is broken.
    doc["members"][0]["ridges"][0]["subset"][-1] = 20


def _extra_weight(doc: dict) -> None:
    doc["members"][0]["weights"].append(1.0)


def _short_scaling_bound(doc: dict) -> None:
    doc["feature_scaling"]["hi"].pop()


def _no_members(doc: dict) -> None:
    doc["members"] = []


def _k_exceeds_ridges(doc: dict) -> None:
    doc["members"][0]["k"] = 7


def _nan_theta(doc: dict) -> None:
    doc["members"][0]["ridges"][0]["theta"][0] = float("nan")  # NaN


def _infinite_coeff(doc: dict) -> None:
    doc["members"][0]["ridges"][0]["coeffs"][0] = float("inf")  # Infinity


def _minus_infinite_scaling(doc: dict) -> None:
    doc["feature_scaling"]["lo"][0] = -float("inf")  # -Infinity


def _overflowing_weight(doc: dict) -> None:
    doc["members"][0]["weights"][0] = OVERFLOW


def _overflowing_int_intercept(doc: dict) -> None:
    doc["members"][0]["intercept"] = 10 ** 400


def _overflowing_scaler_range(doc: dict) -> None:
    doc["members"][0]["ridges"][0]["scaler_lo"] = -1e308
    doc["members"][0]["ridges"][0]["scaler_hi"] = 1e308


def _overflowing_scaling_range(doc: dict) -> None:
    doc["feature_scaling"]["lo"][0] = -1e308
    doc["feature_scaling"]["hi"][0] = 1e308


def _reversed_scaling_range(doc: dict) -> None:
    scaling = doc["feature_scaling"]
    scaling["lo"][0], scaling["hi"][0] = scaling["hi"][0], scaling["lo"][0]


def _negative_truncation(doc: dict) -> None:
    # A clip to [1, -1] would turn every prediction into -1.
    doc["truncation"] = -1.0


def _column_names_object(doc: dict) -> None:
    doc["column_names"] = {"x1": 0}


def _column_names_number(doc: dict) -> None:
    doc["column_names"] = 3


def _column_names_one_short(doc: dict) -> None:
    doc["column_names"].pop()


def _column_names_not_strings(doc: dict) -> None:
    doc["column_names"] = list(range(len(doc["column_names"])))


def _column_names_repeated(doc: dict) -> None:
    # predict matches features by name, so both would read column x1.
    doc["column_names"][1] = doc["column_names"][0]


def _nested_lists(doc: dict) -> str:
    # The whole file: 2 KB of lists nested deeper than the recursion limit.
    return "[" * 1000 + "]" * 1000


# Each of these loaded and predicted once: float() parsed a quoted number,
# numpy read true as 1.0, and int() truncated 0.9, 1.7 and true.
def _quoted_coefficient_and_intercept(doc: dict) -> None:
    doc["members"][0]["ridges"][0]["coeffs"][0] = "0.5"
    doc["members"][0]["intercept"] = "0.5"


def _quoted_truncation(doc: dict) -> None:
    doc["truncation"] = "3.5"


def _bool_weight(doc: dict) -> None:
    doc["members"][0]["weights"] = [True]


def _fractional_subset_index(doc: dict) -> None:
    doc["members"][0]["ridges"][0]["subset"][0] = 0.9


def _fractional_k(doc: dict) -> None:
    doc["members"][0]["k"] = 1.7


def _bool_k(doc: dict) -> None:
    doc["members"][0]["k"] = True


def _fractional_config_count(doc: dict) -> None:
    doc["config"]["B"] = 2.5


def _fractional_bic_step(doc: dict) -> None:
    doc["members"][0]["bic_trace"][0][0] = 1.5


def _bool_scaler_bounds(doc: dict) -> None:
    doc["members"][0]["ridges"][0]["scaler_lo"] = False
    doc["members"][0]["ridges"][0]["scaler_hi"] = True


def _bool_nu(doc: dict) -> None:
    doc["config"]["nu"] = True


def _member_variant_number(doc: dict) -> None:
    doc["members"][0]["variant"] = 7


def _member_variant_not_the_configs(doc: dict) -> None:
    doc["members"][0]["variant"] = "rga"


def _degree_zero(doc: dict) -> None:
    doc["config"]["degree"] = 0


def _J_equal_to_degree(doc: dict) -> None:
    doc["config"]["degree"] = doc["config"]["J"]


def _J_100000(doc: dict) -> None:
    doc["config"]["J"] = 100_000


def _degree_1100(doc: dict) -> None:
    doc["config"]["degree"] = 1100
    doc["config"]["J"] = 1101


# Tables for these would take gigabytes or minutes to build.
_OVERSIZED = (_J_100000, _degree_1100)


def _largest_float_coefficients(doc: dict) -> None:
    # Every coefficient is the largest float, so the spline values and
    # their sum already sit at the overflow edge: rounding up gives inf.
    member = doc["members"][0]
    member["intercept"] = 0.0
    member["weights"] = [1.0]
    ridge = member["ridges"][0]
    ridge["coeffs"] = [1.7976931348623157e308] * len(ridge["coeffs"])


def _ridge(doc: dict) -> dict:
    return doc["members"][0]["ridges"][0]


def _non_unit_theta(doc: dict) -> None:
    _ridge(doc)["theta"] = [2.0 * t for t in _ridge(doc)["theta"]]


def _theta_longer_than_subset(doc: dict) -> None:
    # Still of unit norm; only the lengths disagree.
    _ridge(doc)["theta"].append(0.0)


def _decreasing_subset(doc: dict) -> None:
    _ridge(doc)["subset"].reverse()


def _repeated_subset_index(doc: dict) -> None:
    subset = _ridge(doc)["subset"]
    subset[1] = subset[0]


def _one_coefficient_short(doc: dict) -> None:
    _ridge(doc)["coeffs"].pop()


def _equal_scaler_bounds(doc: dict) -> None:
    _ridge(doc)["scaler_hi"] = _ridge(doc)["scaler_lo"]


def _reversed_scaler_bounds(doc: dict) -> None:
    ridge = _ridge(doc)
    lo, hi = ridge["scaler_lo"], ridge["scaler_hi"]
    ridge["scaler_lo"], ridge["scaler_hi"] = hi, lo


def _empty_bic_trace(doc: dict) -> None:
    doc["members"][0]["bic_trace"] = []


def _bic_step_renumbered(doc: dict) -> None:
    doc["members"][0]["bic_trace"][0][0] = 7


def _sse_trace_repeated(doc: dict) -> None:
    doc["members"][0]["sse_trace"] *= 5


def _negative_sse(doc: dict) -> None:
    doc["members"][0]["sse_trace"][0] = -1.0


def _fixed_k_step_beyond_k(doc: dict) -> None:
    # Traces that agree with each other, one step longer than fixed_k fits.
    member = doc["members"][0]
    member["bic_trace"].append([2, member["bic_trace"][0][1]])
    member["sse_trace"].append(member["sse_trace"][0])


# The member trace rules, each with its one error line; the model is
# fixed_k with k = 1, so each trace holds one entry for step 1.
_TRACE_RULES = {
    _empty_bic_trace: "bic_trace steps must count 1, 2, ... beside sse_trace",
    _bic_step_renumbered:
        "bic_trace steps must count 1, 2, ... beside sse_trace",
    _sse_trace_repeated: "member has 5 SSE entries for k=1",
    _negative_sse: "sse_trace holds a negative SSE",
    _fixed_k_step_beyond_k: "member has 2 SSE entries for k=1",
}


def _no_terms(doc: dict) -> None:
    # No fit keeps 0 terms; loaded, this member would predict its intercept.
    doc["members"][0].update(k=0, ridges=[], weights=[], bic_trace=[],
                             sse_trace=[])


def _k_max_above_fixed_k(doc: dict) -> None:
    # Self-consistent, but fixed_k keeps exactly k_max terms, here 2.
    doc["config"]["k_max"] = 2


def _second_term_beyond_k_max(doc: dict) -> None:
    # Two self-consistent terms under bic, but k_max = 1.
    doc["config"]["stopping"] = "bic"
    member = doc["members"][0]
    for key in ("ridges", "weights", "sse_trace"):
        member[key].append(member[key][0])
    member["bic_trace"].append([2, member["bic_trace"][0][1]])
    member["k"] = 2


def _bic_step_beyond_k_max(doc: dict) -> None:
    # bic may fit one step past k, but never a step past k_max = 1.
    _fixed_k_step_beyond_k(doc)
    doc["config"]["stopping"] = "bic"


def _stray_truncation(doc: dict) -> None:
    # Under truncation_mode "off" this would clip every prediction to +-0.5.
    doc["truncation"] = 0.5


def _ln_n_without_truncation(doc: dict) -> None:
    # A fit under "ln_n" always stores its level; a null one would never clip.
    doc["config"]["truncation_mode"] = "ln_n"


# Counts and levels that no fit writes, each with its one error line; the
# model is fixed_k with k_max = 1 and truncation_mode "off".
_FIT_RULES = {
    _no_terms: "member has k=0, outside 1..1",
    _k_max_above_fixed_k: "member has k=1, outside 2..2",
    _second_term_beyond_k_max: "member has k=2, outside 1..1",
    _bic_step_beyond_k_max: "member has 2 SSE entries for k=1",
    _stray_truncation:
        "truncation must be null exactly when truncation_mode is 'off'",
    _ln_n_without_truncation:
        "truncation must be null exactly when truncation_mode is 'off'",
}


# The ridge rules the loader checks, each with its one error line.
_RIDGE_RULES = {
    _non_unit_theta: "theta must have unit norm",
    _theta_longer_than_subset: "subset and theta must be matching vectors",
    _decreasing_subset: "subset indices must be strictly increasing",
    _repeated_subset_index: "subset indices must be strictly increasing",
    _one_coefficient_short: "coefficient count must match the spline basis",
    _equal_scaler_bounds: "scaler requires hi > lo",
    _reversed_scaler_bounds: "scaler requires hi > lo",
    _overflowing_scaler_range: "scaler range hi - lo overflows float64",
}


def _q_exceeds_p(doc: dict) -> None:
    doc["config"]["q"] = len(doc["feature_scaling"]["lo"]) + 1


def _q_not_the_subset_length(doc: dict) -> None:
    # Every ridge still passes its own checks; only config.q disagrees.
    doc["config"]["q"] -= 1


# Rules on q, each with its one error line; the model has p = 9 and q = 6.
# q is checked against p with the rest of the config, once the feature
# scaling is read, and against each subset's length with that ridge's
# other subset rules.
_Q_RULES = {
    _q_exceeds_p: "q=10 exceeds predictor count p=9",
    _q_not_the_subset_length: "every ridge subset must hold q=5 indices",
}


def _dropping(*path):
    """A mutation that deletes the key at ``path``, named after it."""
    def mutate(doc: dict) -> None:
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    mutate.__name__ = "_drop_" + "_".join(path)
    return mutate


def _unknown_top_level_key(doc: dict) -> None:
    doc["bogus"] = 1


def _unknown_feature_scaling_key(doc: dict) -> None:
    doc["feature_scaling"]["bogus"] = 1


def _unknown_member_key(doc: dict) -> None:
    doc["members"][0]["bogus"] = 1


def _unknown_ridge_key(doc: dict) -> None:
    _ridge(doc)["bogus"] = 1


_CONFIG_FIELDS = ("variant", "q", "ell", "B", "k_max", "J", "degree", "nu",
                  "stopping", "truncation_mode", "seed")


# A model file holds exactly the keys the writer writes, each with its one
# error line when missing or unknown.
_KEY_RULES = {
    **{_dropping("config", name): f"config lacks key {name!r}"
       for name in _CONFIG_FIELDS},
    _dropping("truncation"): "model lacks key 'truncation'",
    _dropping("column_names"): "model lacks key 'column_names'",
    _unknown_top_level_key: "model has unknown key 'bogus'",
    _unknown_config_field: "config has unknown key 'bogus'",
    _unknown_feature_scaling_key: "feature_scaling has unknown key 'bogus'",
    _unknown_member_key: "member has unknown key 'bogus'",
    _unknown_ridge_key: "ridge has unknown key 'bogus'",
}


# Written unquoted, as a literal json.dumps cannot produce from a float.
OVERFLOW = "1e999"


@pytest.mark.parametrize(
    "mutate",
    [_drop_theta, _subset_beyond_p, _extra_weight,
     _short_scaling_bound, _no_members, _k_exceeds_ridges, _nan_theta,
     _infinite_coeff, _minus_infinite_scaling, _overflowing_weight,
     _overflowing_int_intercept, _overflowing_scaler_range,
     _overflowing_scaling_range, _reversed_scaling_range, _negative_truncation,
     _column_names_object, _column_names_number, _column_names_one_short,
     _column_names_not_strings, _column_names_repeated, _nested_lists,
     _quoted_coefficient_and_intercept,
     _quoted_truncation, _bool_weight, _fractional_subset_index,
     _fractional_k, _bool_k, _fractional_config_count, _fractional_bic_step,
     _bool_scaler_bounds, _bool_nu, _member_variant_number,
     _member_variant_not_the_configs, _degree_zero, _J_equal_to_degree,
     _largest_float_coefficients, *_OVERSIZED, _non_unit_theta,
     _theta_longer_than_subset, _decreasing_subset, _repeated_subset_index,
     _one_coefficient_short, _equal_scaler_bounds, _reversed_scaler_bounds,
     *_KEY_RULES, *_TRACE_RULES, *_FIT_RULES, *_Q_RULES],
)
def test_malformed_model_is_one_line_usage_error(
    tmp_path, capsys, mutate
) -> None:
    data = synth_file(tmp_path, scenario="ppr3", n=120, p=9)
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", data, "--target", "y",
                 "--out", str(model_path), "--B", "1", "--kmax", "1",
                 "--stopping", "fixed_k"]) == EXIT_OK
    doc = json.loads(model_path.read_text())
    text = mutate(doc) or json.dumps(doc).replace(f'"{OVERFLOW}"', OVERFLOW)
    model_path.write_text(text)
    capsys.readouterr()
    argv = ["predict", "--model", str(model_path), "--data", data,
            "--out", str(tmp_path / "p.csv")]
    if mutate in _OVERSIZED:
        code, err = _capped_main(argv)
    else:
        code, err = main(argv), capsys.readouterr().err
    assert code == EXIT_USAGE
    assert _one_error_line(err)
    rules = {**_RIDGE_RULES, **_KEY_RULES, **_TRACE_RULES, **_FIT_RULES,
             **_Q_RULES}
    line = rules.get(mutate)
    if line is not None:
        assert err == f"error: {line}\n"
    assert not (tmp_path / "p.csv").exists()


# A spline this large is refused before its tables are built.
_OVERSIZED_FLAGS = [("--J", "100000"), ("--degree", "1100")]


@pytest.mark.parametrize("flag, value", [
    ("--J", "3"), ("--degree", "0"), ("--ell", "0"), ("--q", "10"),
    *_OVERSIZED_FLAGS,
])
def test_train_refuses_config_the_fit_relies_on(
    tmp_path, capsys, flag, value
) -> None:
    """Only ``FitConfig.validate`` checks these; the layers below do not."""
    data = synth_file(tmp_path, scenario="ppr3", n=120, p=9)
    out = tmp_path / "m.json"
    capsys.readouterr()
    argv = ["train", "--data", data, "--target", "y", "--out", str(out),
            "--B", "1", "--kmax", "1", flag, value]
    if (flag, value) in _OVERSIZED_FLAGS:
        code, err = _capped_main(argv)
    else:
        code, err = main(argv), capsys.readouterr().err
    assert code == EXIT_USAGE
    assert _one_error_line(err)
    assert not out.exists()


def _overflowing_column(lines: list[str], column: int, cells) -> list[str]:
    rows = [line.split(",") for line in lines]
    for row, cell in zip(rows[1:], cells):
        row[column] = cell
    return [",".join(row) for row in rows]


@pytest.mark.parametrize(
    "case", ["x1_range", "y_mean", "y_spread", "y_mixed"]
)
def test_train_refuses_ranges_that_overflow(tmp_path, capfd, case) -> None:
    """One error line and exit 4: no warning, no LAPACK message, no model."""
    data = tmp_path / "wide.csv"
    synth = Path(synth_file(tmp_path, scenario="ppr3", n=120, p=9))
    lines = synth.read_text().splitlines()
    if case == "x1_range":
        lines = _overflowing_column(lines, 0, ["-1e308", "1e308"])
    elif case == "y_mean":
        lines = _overflowing_column(lines, -1, ["1.5e308"] * 120)
    elif case == "y_spread":
        lines = _overflowing_column(lines, -1, ["1e200", "-1e200"] * 60)
    else:  # the sum of each sign overflows, and inf - inf is NaN
        lines = _overflowing_column(lines, -1, ["1.5e308", "-1.5e308"] * 60)
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "m.json"
    capfd.readouterr()
    code = main(["train", "--data", str(data), "--target", "y",
                 "--out", str(out), "--B", "1", "--kmax", "2"])
    assert code == EXIT_NUMERIC
    assert _one_error_line(capfd.readouterr().err)
    assert not out.exists()


# Each field of a model is dropped or set to each of these in turn.
_DROP = object()
FUZZ_VALUES = [_DROP, None, "x", [], {}, -1, 1e308, -1e308]


def _key_paths(node, path: tuple = ()):
    """Every key and list index below ``node``, parents before children."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _key_paths(child, path + (key,))


def _mutated(doc: dict, path: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def test_model_field_mutation_fuzz(tmp_path, capsys) -> None:
    """Every field of a small model dropped or retyped, one at a time.

    ``predict`` either writes one finite prediction per row, or ends in
    exit 2 or 3 with exactly one ``error:`` line and no output file; a
    dropped key always ends in exit 2, as a model file holds exactly the
    keys the writer writes.  A warning or an exception escaping ``main`` is
    a failure.
    """
    data = synth_file(tmp_path, scenario="ppr3", n=120, p=9)
    model_path = tmp_path / "model.json"
    out = tmp_path / "p.csv"
    assert main(["train", "--data", data, "--target", "y",
                 "--out", str(model_path), "--B", "1", "--kmax", "1",
                 "--stopping", "fixed_k"]) == EXIT_OK
    doc = json.loads(model_path.read_text())
    argv = ["predict", "--model", str(model_path), "--data", data,
            "--out", str(out)]
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in _key_paths(doc):
            for value in FUZZ_VALUES:
                case = (path, "drop" if value is _DROP else value)
                model_path.write_text(json.dumps(_mutated(doc, path, value)))
                if out.exists():
                    out.unlink()
                capsys.readouterr()
                try:
                    code = main(argv)
                except Exception as exc:  # main must map every error to a code
                    failures.append((*case, repr(exc)))
                    continue
                err = capsys.readouterr().err
                dropped_key = value is _DROP and isinstance(path[-1], str)
                if dropped_key and code != EXIT_USAGE:
                    failures.append((*case, f"exit {code}: {err}"))
                elif code == EXIT_OK:
                    lines = out.read_text().splitlines()
                    values = np.array(lines[1:], dtype=float)
                    if values.size != 120 or not np.all(np.isfinite(values)):
                        failures.append((*case, "non-finite predictions"))
                elif code not in (EXIT_USAGE, EXIT_IO):
                    failures.append((*case, f"exit {code}: {err}"))
                elif not _one_error_line(err) or out.exists():
                    failures.append((*case, err))
    assert not failures, failures


def _reading_argv(tmp_path, command: str, data: str) -> list[str]:
    """Arguments that make ``command`` read the CSV file ``data``."""
    if command == "predict":
        model_path = str(tmp_path / "model.json")
        assert main(["train", "--data", synth_file(tmp_path, p=1),
                     "--target", "y", "--out", model_path, "--B", "1",
                     "--kmax", "1", "--stopping", "fixed_k"]) == EXIT_OK
        return ["predict", "--model", model_path, "--data", data,
                "--out", str(tmp_path / "p.csv")]
    if command == "train":
        return ["train", "--data", data, "--target", "y",
                "--out", str(tmp_path / "m.json")]
    return ["benchmark", "--data", data, "--target", "y", "--repeats", "1"]


@pytest.mark.parametrize("command", ["train", "predict"])
def test_non_utf8_csv_is_one_line_file_error(tmp_path, capsys, command) -> None:
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"x1,y\n1,2\n\xe9,3\n4,5\n")
    argv = _reading_argv(tmp_path, command, str(bad))
    capsys.readouterr()
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert _one_error_line(err) and "UTF-8" in err


# One cell longer than the csv module's field limit of 131,072 characters.
OVERSIZED_CELL = "a" * 140_000


@pytest.mark.parametrize("where", ["header", "body"])
@pytest.mark.parametrize("command", ["train", "predict", "benchmark"])
def test_oversized_csv_cell_is_one_line_file_error(
    tmp_path, capsys, command, where
) -> None:
    big = tmp_path / "big.csv"
    if where == "header":
        big.write_text(f"x1,{OVERSIZED_CELL}\n1,2\n3,4\n4,5\n")
    else:
        big.write_text(f"x1,y\n1,2\n{OVERSIZED_CELL},3\n4,5\n")
    argv = _reading_argv(tmp_path, command, str(big))
    capsys.readouterr()
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert _one_error_line(err) and str(big) in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command", ["train", "predict"])
def test_oversized_numeric_cell_is_refused_on_either_path(
    tmp_path, capsys, command
) -> None:
    """A 200,002-character number in the last of 20 clean rows is refused
    with the same line whether numpy parses its piece or, after an ``NA``
    row in the same piece, the per-row rules do."""
    rows = [f"{i},{i + 1}" for i in range(20)] + ["1,0." + "1" * 200_000]
    big = tmp_path / "big.csv"
    errors = []
    for dirty in (False, True):
        big.write_text("\n".join(["x1,y", *rows]) + "\n")
        argv = _reading_argv(tmp_path, command, str(big))
        capsys.readouterr()
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert _one_error_line(err) and "field limit" in err
        errors.append(err)
        rows.insert(3, "NA,1")
    assert errors[0] == errors[1]


def _rename_columns(path: str, header: str, copy_from: int | None = None):
    """``path`` with a new header; ``copy_from`` appends a copy of a column."""
    lines = Path(path).read_text().splitlines()
    if copy_from is not None:
        lines = [f"{line},{line.split(',')[copy_from]}" for line in lines]
    renamed = Path(path).with_name("renamed.csv")
    renamed.write_text("\n".join([header] + lines[1:]) + "\n")
    return str(renamed)


@pytest.mark.parametrize("case", ["train", "predict_feature", "predict_unused"])
def test_repeated_column_name(tmp_path, capsys, case) -> None:
    """A repeated name among the columns read is a file error, exit 3.

    predict matches features by name, so a repeat would feed one column to
    two features; a repeat among the columns it ignores is harmless.
    """
    data = synth_file(tmp_path, p=2)
    model_path, out = tmp_path / "model.json", tmp_path / "p.csv"
    train = ["train", "--target", "y", "--out", str(model_path),
             "--B", "1", "--kmax", "1", "--stopping", "fixed_k"]
    if case == "train":
        argv = train + ["--data", _rename_columns(data, "x,x,y")]
        out = model_path
    else:
        assert main(train + ["--data", data]) == EXIT_OK
        header, copy_from = "x1,x2,y,x1", 0
        if case == "predict_unused":
            header, copy_from = "x1,x2,y,y", 2
        argv = ["predict", "--model", str(model_path), "--out", str(out),
                "--data", _rename_columns(data, header, copy_from)]
    capsys.readouterr()
    code, err = main(argv), capsys.readouterr().err
    if case == "predict_unused":
        assert code == EXIT_OK and err == ""
        assert main(["predict", "--model", str(model_path), "--data", data,
                     "--out", str(tmp_path / "q.csv")]) == EXIT_OK
        assert out.read_bytes() == (tmp_path / "q.csv").read_bytes()
        return
    assert code == EXIT_IO
    assert _one_error_line(err) and "'x" in err and "more than once" in err
    assert not out.exists()


def test_non_utf8_model_is_one_line_usage_error(tmp_path, capsys) -> None:
    data = synth_file(tmp_path)
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", data, "--target", "y",
                 "--out", str(model_path), "--B", "1", "--kmax", "1",
                 "--stopping", "fixed_k"]) == EXIT_OK
    text = model_path.read_bytes()
    model_path.write_bytes(text.replace(b'"column_names"', b'"\xe9"', 1))
    with pytest.raises(ConfigError, match="UTF-8"):
        load_model(str(model_path))
    capsys.readouterr()
    code = main(["predict", "--model", str(model_path), "--data", data,
                 "--out", str(tmp_path / "p.csv")])
    assert code == EXIT_USAGE
    assert _one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "p.csv").exists()


def _with_bom(path: str) -> str:
    """A copy of ``path`` led by a UTF-8 byte order mark, as spreadsheet
    programs write their "CSV UTF-8" exports."""
    bom = Path(path).with_name("bom.csv")
    bom.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
    return str(bom)


def test_bom_is_not_part_of_the_first_name(tmp_path, capsys) -> None:
    model_path = tmp_path / "model.json"
    code = main(["train", "--data", _with_bom(synth_file(tmp_path)),
                 "--target", "x1", "--out", str(model_path), "--B", "1",
                 "--kmax", "1", "--stopping", "fixed_k"])
    assert code == EXIT_OK, capsys.readouterr().err
    assert load_model(str(model_path)).column_names == ["x2", "x3", "y", "x1"]


@pytest.mark.parametrize("trained_on", ["bom", "plain"])
def test_bom_and_plain_files_predict_alike(tmp_path, capsys, trained_on):
    plain = synth_file(tmp_path)
    files = [_with_bom(plain), plain]
    if trained_on == "plain":
        files.reverse()
    model_path = str(tmp_path / "model.json")
    assert main(["train", "--data", files[0], "--target", "y",
                 "--out", model_path, "--B", "1", "--kmax", "1",
                 "--stopping", "fixed_k"]) == EXIT_OK
    outs = [tmp_path / "same.csv", tmp_path / "other.csv"]
    for path, out in zip(files, outs):
        code = main(["predict", "--model", model_path, "--data", path,
                     "--out", str(out)])
        assert code == EXIT_OK, capsys.readouterr().err
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_unnamed_never_numeric_column_is_named_by_position(
    tmp_path, capsys
) -> None:
    """Lines that end in a comma give an unnamed, empty last column."""
    lines = Path(synth_file(tmp_path)).read_text().splitlines()
    trailing = tmp_path / "trailing.csv"
    trailing.write_text("".join(f"{line},\n" for line in lines))
    capsys.readouterr()
    code = main(["train", "--data", str(trailing), "--target", "y",
                 "--out", str(tmp_path / "model.json")])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert err == "error: column(s) never numeric: column 5 (unnamed)\n"


@pytest.mark.parametrize("command", ["train", "benchmark"])
def test_target_index_reads_the_file_once(
    tmp_path, capsys, monkeypatch, command
) -> None:
    """``--target 3`` names no column of x1,x2,x3,y, so it is position 3:
    the same run as ``--target y``, from one open of the data file."""
    data = synth_file(tmp_path)
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(data_io, "open", counting_open, raising=False)
    fit = ["--B", "1", "--kmax", "1", "--stopping", "fixed_k"]
    outputs = []
    for target in ["y", "3"]:
        argv = [command, "--data", data, "--target", target, *fit]
        out = tmp_path / f"{target}.out"
        if command == "train":
            argv += ["--out", str(out)]
        opened.clear()
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        assert opened == [data]
        outputs.append(out.read_bytes() if command == "train"
                       else capsys.readouterr().out)
    assert outputs[0] == outputs[1]


# synth, train, benchmark and predict on one small ppr3 table, with file
# names relative to the working directory, so both runs print the same text.
_COMMANDS = [
    ["synth", "--scenario", "ppr3", "--n", "300", "--p", "9", "--noise",
     "0.5", "--seed", "1", "--out", "t.csv"],
    ["train", "--data", "t.csv", "--target", "y", "--seed", "0", "--B", "2",
     "--out", "m.json"],
    ["benchmark", "--data", "t.csv", "--target", "y", "--seed", "0",
     "--repeats", "1", "--B", "2"],
    ["predict", "--model", "m.json", "--data", "t.csv", "--out", "p.csv"],
]


def test_no_command_imports_scipy(tmp_path, capsys, monkeypatch) -> None:
    """Each command runs in a child process that cannot import scipy and
    gives the bytes it gives in this process: its files and its stdout.
    stderr is not compared, since ``benchmark`` times each repeat there."""
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from eppr.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(eppr.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    here, child = tmp_path / "here", tmp_path / "child"
    here.mkdir()
    child.mkdir()
    monkeypatch.chdir(here)
    capsys.readouterr()
    for argv in _COMMANDS:
        code, out = main(argv), capsys.readouterr().out
        run = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                             cwd=child, capture_output=True, text=True,
                             timeout=60)
        assert code == EXIT_OK
        assert (run.returncode, run.stdout) == (code, out), run.stderr
    names = sorted(path.name for path in here.iterdir())
    assert names == sorted(path.name for path in child.iterdir())
    assert "p.csv" in names
    for name in names:
        assert (here / name).read_bytes() == (child / name).read_bytes()
