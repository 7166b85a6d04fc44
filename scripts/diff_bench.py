#!/usr/bin/env python3
"""Diff the end-to-end numbers of two committed benchmark records.

    python3 scripts/diff_bench.py BENCH_13.json BENCH_14.json

Each ``BENCH_*.json`` file holds a ``summary`` with, per workload run (e.g.
``paper-rows-seed7-trace0``) and metric, the parent's and the change's
quartiles over their runs.  For every workload run the two files share and
every end-to-end metric declared in ``BENCHMARK.json``, this prints the
median of the *change* side of A and of B (``change_q1_med_q3[1]``) and
the ratio B/A, so the trajectory from one change to the next reads off one
table.  A ratio below 1 means B's median is lower (for the time, node and
memory metrics: better).  Workload runs found in only one of the files are
listed after the table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Tuple

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")

Row = Tuple[str, str, str, float, float, float]


def load(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def end_to_end_names() -> List[str]:
    """The end-to-end metric names ``BENCHMARK.json`` declares, in order."""
    return [metric["name"] for metric in load(BENCHMARK)["end_to_end"]]


def diff_rows(a: Dict, b: Dict, metrics: List[str]) -> Tuple[List[Row], List[str]]:
    """``(rows, unmatched)``: one ``(workload, metric, unit, median_a,
    median_b, ratio)`` row per shared workload run and end-to-end metric,
    and the workload runs that carry end-to-end metrics in only one file."""
    def runs(record):
        return {key: entry for key, entry in record["summary"].items()
                if any(name in entry for name in metrics)}

    runs_a, runs_b = runs(a), runs(b)
    rows: List[Row] = []
    for workload in sorted(set(runs_a) & set(runs_b)):
        for name in metrics:
            if name not in runs_a[workload] or name not in runs_b[workload]:
                continue
            median_a = runs_a[workload][name]["change_q1_med_q3"][1]
            median_b = runs_b[workload][name]["change_q1_med_q3"][1]
            ratio = median_b / median_a if median_a else float("nan")
            rows.append((workload, name, runs_b[workload][name]["unit"],
                         median_a, median_b, ratio))
    unmatched = sorted(set(runs_a) ^ set(runs_b))
    return rows, unmatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="the earlier BENCH_*.json")
    parser.add_argument("b", help="the later BENCH_*.json")
    args = parser.parse_args(argv)
    rows, unmatched = diff_rows(load(args.a), load(args.b),
                                end_to_end_names())
    print(f"{'workload':<26} {'metric':<12} {'unit':<6} "
          f"{'A median':>12} {'B median':>12} {'B/A':>7}")
    for workload, name, unit, median_a, median_b, ratio in rows:
        print(f"{workload:<26} {name:<12} {unit:<6} "
              f"{median_a:>12.6g} {median_b:>12.6g} {ratio:>7.3f}")
    for workload in unmatched:
        print(f"only in one file: {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
