"""Compare parent and change runs of the end-to-end benchmark.

Usage::

    python3 benchmarks/e2e/compare.py --parent p1.txt ... p10.txt --change c1.txt ... c10.txt

Each file is the captured standard output of one ``run.py`` invocation (any
number of workloads); ``--parent`` and ``--change`` list them in the order
they ran, so ``parent[i]`` and ``change[i]`` form pair ``i``.  Alternate
which side runs first from pair to pair.

Per (workload, metric) it prints each side's median and quartiles, the share
of pairs the change won (ties count for neither side) and a verdict:

* ``improved``   -- the change won at least 9/10 of the pairs and the medians
  differ by more than the parent's own spread (its interquartile range);
* ``regressed``  -- the change's median is worse than the parent's by more
  than the metric's ``bound`` in ``BENCHMARK.json`` (per-layer metrics, which
  have no bound: the mirror image of ``improved``);
* ``unresolved`` -- the parent's spread is wider than the bound, and not
  every change run reads better than every parent run;
* ``unchanged``  -- none of the above.

The exit status is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10


def read_run(path: Path) -> dict[tuple[str, str], float]:
    """``(workload, metric) -> value`` from one run's standard output."""
    values: dict[tuple[str, str], float] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        parts = line.split()
        if len(parts) != 4 or parts[0] not in WORKLOADS:
            continue
        try:
            values[(parts[0], parts[1])] = float(parts[2])
        except ValueError:
            continue
    return values


def declared_metrics(benchmark: Path) -> dict[str, dict]:
    document = json.loads(benchmark.read_text(encoding="utf-8"))
    return {m["name"]: m for m in document["end_to_end"] + document["per_layer"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> tuple[str, float]:
    """The verdict for one (workload, metric) and the change's share of wins."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pairs = len(parent)
    p1, p_med, p3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    spread = p3 - p1
    gain = sign * (c_med - p_med)
    if wins >= 0.9 * pairs and gain > spread:
        return "improved", wins / pairs
    if bound is None:
        if losses >= 0.9 * pairs and -gain > spread:
            return "regressed", wins / pairs
        return "unchanged", wins / pairs
    if -gain > bound * abs(p_med):
        return "regressed", wins / pairs
    every_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_med and spread / abs(p_med) > bound and not every_better:
        return "unresolved", wins / pairs
    return "unchanged", wins / pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change):
        parser.error("--parent and --change need the same number of files")
    if len(args.parent) < MIN_PAIRS:
        parser.error(f"need at least {MIN_PAIRS} pairs, got {len(args.parent)}")
    declared = declared_metrics(ROOT / "BENCHMARK.json")
    parents = [read_run(path) for path in args.parent]
    changes = [read_run(path) for path in args.change]
    keys = sorted(
        set.intersection(*(set(run) for run in parents + changes)),
        key=lambda key: (WORKLOADS.index(key[0]), key[1]),
    )
    print(f"{'workload':12s} {'metric':28s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'delta':>8s} {'wins':>5s}  verdict")
    regressed = False
    for workload, metric in keys:
        spec = declared.get(metric)
        if spec is None:
            continue
        parent = [run[(workload, metric)] for run in parents]
        change = [run[(workload, metric)] for run in changes]
        outcome, wins = verdict(parent, change, spec["better"], spec.get("bound"))
        regressed |= outcome == "regressed"
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        delta = (cm / pm - 1.0) * 100.0 if pm else 0.0
        print(f"{workload:12s} {metric:28s} {pm:12.4g} [{p1:9.4g}, {p3:9.4g}] "
              f"{cm:12.4g} [{c1:9.4g}, {c3:9.4g}] {delta:+7.1f}% {wins:5.2f}  {outcome}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
