#!/usr/bin/env python3
"""Compare two result files of the benchmark.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

A result file holds one JSON record per ``run.py`` invocation (``run.py``
appends to ``perfbench/out/results.jsonl`` unless given ``--out``).  For
every workload and metric this prints each side's median and quartiles over
its runs, the ratio new/base, and a verdict:

* ``worse`` — the new median is worse than the base by more than the
  metric's bound in ``BENCHMARK.json``;
* ``better`` — it is better by more than the spread (quartile distance over
  median) of either side;
* ``unresolved`` — the spread is wider than the bound and the runs do not
  separate (every new run better than every base run);
* ``same`` — none of these.

Per-layer metrics have no bound; they get ``better``/``worse`` only when
the medians differ by more than the spread.  Records are compared only like
with like: the two files must agree on Python version, ``nproc`` and
whether numba is importable, or the tool refuses (exit code 2).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")
ENVIRONMENT = ("python", "nproc", "numba")


def load(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base, new, bound, lower_is_better):
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    spread = max((b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
                 (n_q3 - n_q1) / abs(n_med) if n_med else 0.0)
    if b_med == 0:
        return "same" if n_med == 0 else "unresolved"
    worsening = (n_med - b_med) / abs(b_med)
    if not lower_is_better:
        worsening = -worsening
    if bound is not None and spread > bound:
        if lower_is_better:
            separated = max(new) < min(base)
        else:
            separated = min(new) > max(base)
        return "better" if separated else "unresolved"
    if bound is not None and worsening > bound:
        return "worse"
    if -worsening > spread:
        return "better"
    if bound is None and worsening > spread:
        return "worse"
    return "same"


def group(records):
    grouped = defaultdict(lambda: defaultdict(list))
    units = {}
    for record in records:
        for name, metric in record["metrics"].items():
            grouped[record["workload"]][name].append(metric["value"])
            units[name] = metric["unit"]
    return grouped, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=BENCHMARK)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    for key in ENVIRONMENT:
        seen = {str(record.get(key)) for record in base + new}
        if len(seen) > 1:
            print(f"not like for like: {key} differs ({', '.join(sorted(seen))})",
                  file=sys.stderr)
            return 2
    with open(args.benchmark) as handle:
        spec = json.load(handle)
    declared = {metric["name"]: metric
                for metric in spec["end_to_end"] + spec["per_layer"]}
    base_groups, units = group(base)
    new_groups, _ = group(new)
    print(f"{'workload':<13} {'metric':<32} {'base q1/med/q3':>30} "
          f"{'new q1/med/q3':>30} {'ratio':>7}  verdict")
    for workload in sorted(set(base_groups) & set(new_groups)):
        for name in sorted(set(base_groups[workload])
                           & set(new_groups[workload])):
            before = base_groups[workload][name]
            after = new_groups[workload][name]
            metric = declared.get(name, {})
            lower = metric.get("better", "lower") == "lower"
            b_q = quartiles(before)
            n_q = quartiles(after)
            ratio = n_q[1] / b_q[1] if b_q[1] else float("nan")
            print(f"{workload:<13} {name:<32} "
                  f"{'/'.join(f'{v:.4g}' for v in b_q):>30} "
                  f"{'/'.join(f'{v:.4g}' for v in n_q):>30} {ratio:>7.3f}  "
                  f"{verdict(before, after, metric.get('bound'), lower)} "
                  f"[{units[name]}, n={len(before)}/{len(after)}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
