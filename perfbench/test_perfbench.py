"""Tests of the benchmark itself, on the tiny ``--smoke`` sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
CHATTER = ("model written to", "prediction(s) written", "repeat 1/")


def test_benchmark_json_follows_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 1 <= SPEC["run_seconds"] <= 60


def test_every_per_layer_metric_is_traced():
    names = {m["name"] for m in SPEC["per_layer"]}
    assert names - set(tracer.known_metrics()) == {
        "trace.overhead_frac", "check.heldout_error"
    }


def _bindings() -> dict[str, object]:
    import eppr

    out = {}
    for module in tracer._eppr_modules():
        for attr, value in vars(module).items():
            out[f"{module.__name__}.{attr}"] = value
    out["EnsembleModel.predict"] = vars(eppr.EnsembleModel)["predict"]
    return out


def test_tracer_wraps_every_binding_and_restores():
    import eppr.cli
    import eppr.greedy
    import eppr.singleindex

    before = _bindings()
    assert not any(hasattr(v, tracer._MARK) for v in before.values())
    with pytest.raises(KeyError):
        with tracer.Tracer().installed():
            for site in (eppr.singleindex.basis_matrix,
                         eppr.greedy.solve_ridge_ls,
                         eppr.cli.load_feature_matrix,
                         eppr.EnsembleModel.predict):
                assert hasattr(site, tracer._MARK)
            raise KeyError("leaves the block early")
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_counts_member_pool_threads():
    import numpy as np
    from dataclasses import replace
    from eppr import cli, ensemble

    X, y, _ = cli.generate_scenario("ppr3", 200, 9, 0.5,
                                    np.random.default_rng(0))
    config = replace(ensemble.default_config(200, 9), B=4)
    traced = tracer.Tracer()
    with traced.installed():
        model = ensemble.fit(X, y, config, workers=2)
    layers = traced.metrics()
    assert layers["greedy.run_greedy.calls"] == 4
    assert layers["greedy.k_star"] == sum(m.k for m in model.members)
    assert layers["greedy.steps"] == sum(len(m.bic_trace)
                                         for m in model.members)
    assert 0.0 <= layers["greedy.run_greedy.self_s"] <= \
        layers["greedy.run_greedy.s"]
    assert 0.0 < layers["greedy.refit.s"] < layers["numerics.solve_ridge_ls.s"]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run(ROOT, "--smoke", "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not any(text in done.stdout + done.stderr for text in CHATTER)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "train_ppr3", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _record(directory: Path, seed: int, op_s: float) -> None:
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    metrics["op_s"]["value"] = op_s
    record = {"workload": "train_ppr3", "seed": seed, "trace": 0,
              "environment": {"inputs": {"train.csv": "same"}},
              "result": {"metrics": metrics}}
    directory.mkdir(exist_ok=True)
    (directory / f"train_ppr3.trace0.seed{seed}.json").write_text(
        json.dumps(record))


@pytest.mark.parametrize("scale, word, code", [
    (0.5, "gain", 0), (1.0, "within bound", 0), (1.5, "regression", 1),
])
def test_compare_verdicts(tmp_path, capsys, scale, word, code):
    for seed in range(10):
        _record(tmp_path / "parent", seed, 10.0 + 0.01 * seed)
        _record(tmp_path / "change", seed, scale * (10.0 + 0.01 * seed))
    assert compare.main([str(tmp_path / "parent"),
                         str(tmp_path / "change")]) == code
    line = next(x for x in capsys.readouterr().out.splitlines()
                if x.strip().startswith("op_s "))
    assert line.endswith(word)


def test_compare_reports_wide_spread_as_unresolved():
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [1.5, 2.5, 3.5, 4.5]
    pairs = list(zip(parent, change))
    assert compare.verdict(parent, change, pairs, "lower", 0.1)[1] == \
        "unresolved"
