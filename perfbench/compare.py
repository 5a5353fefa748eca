"""Compare two result sets written by ``run.py --results DIR``.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Runs are paired by workload and seed.  For every workload and end-to-end
metric it prints each side's median and quartiles, the fraction of pairs
the change wins (ties count for neither) and a verdict:

- ``unresolved``: the parent's own spread (quartile distance over median)
  exceeds the metric's bound, and not every change run beats every parent
  run;
- ``gain``: the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile distance;
- ``regression``: the change's median is worse than the parent's by more
  than the bound;
- ``within bound`` otherwise.

Traced runs, where present, add the per-layer medians of both sides.  The
exit code is 1 when any metric regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(directory: Path, trace: int) -> dict[str, dict[int, dict]]:
    """{workload: {seed: record}} for the runs of one trace setting."""
    runs: dict[str, dict[int, dict]] = defaultdict(dict)
    for path in sorted(directory.glob(f"*.trace{trace}.seed*.json")):
        record = json.loads(path.read_text())
        runs[record["workload"]][record["seed"]] = record
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float],
            pairs: list[tuple[float, float]], better: str,
            bound: float) -> tuple[float, str]:
    sign = 1.0 if better == "higher" else -1.0
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    win_share = wins / len(pairs) if pairs else 0.0
    spread = (p3 - p1) / abs(pmed) if pmed else float("inf")
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    gain = sign * (cmed - pmed)
    if spread > bound and not all_better:
        return win_share, "unresolved"
    if win_share >= WIN_SHARE and gain > p3 - p1:
        return win_share, "gain"
    if -gain > bound * abs(pmed):
        return win_share, "regression"
    return win_share, "within bound"


def metric_values(runs: dict[int, dict], name: str) -> dict[int, float]:
    return {
        seed: record["result"]["metrics"][name]["value"]
        for seed, record in runs.items()
        if name in record["result"]["metrics"]
    }


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> int:
    parent, change = load(parent_dir, 0), load(change_dir, 0)
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        prun, crun = parent[workload], change[workload]
        print(f"{workload}: {len(prun)} parent run(s), "
              f"{len(crun)} change run(s)")
        for seed in sorted(set(prun) & set(crun)):
            pin = prun[seed]["environment"]["inputs"]
            cin = crun[seed]["environment"]["inputs"]
            differ = sorted(k for k in pin if pin[k] != cin.get(k))
            if differ:
                print(f"  note: seed {seed} inputs differ: "
                      f"{', '.join(differ)}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv, cv = metric_values(prun, name), metric_values(crun, name)
            if not pv or not cv:
                continue
            pairs = [(pv[s], cv[s]) for s in sorted(set(pv) & set(cv))]
            share, word = verdict(list(pv.values()), list(cv.values()), pairs,
                                  metric["better"], metric["bound"])
            regressed |= word == "regression"
            p1, pm, p3 = quartiles(list(pv.values()))
            c1, cm, c3 = quartiles(list(cv.values()))
            print(f"  {name:14s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                  f"change {cm:.6g} [{c1:.6g}, {c3:.6g}] {metric['unit']}  "
                  f"wins {share:.2f} of {len(pairs)}  {word}")
    traced_parent, traced_change = load(parent_dir, 1), load(change_dir, 1)
    for workload in sorted(set(traced_parent) & set(traced_change)):
        print(f"{workload} per layer (medians of traced runs):")
        for metric in spec["per_layer"]:
            name = metric["name"]
            pv = list(metric_values(traced_parent[workload], name).values())
            cv = list(metric_values(traced_change[workload], name).values())
            if pv and cv:
                print(f"  {name:40s} parent {statistics.median(pv):.6g}  "
                      f"change {statistics.median(cv):.6g} {metric['unit']}")
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return compare(args.parent, args.change, spec)


if __name__ == "__main__":
    sys.exit(main())
