"""Tests for ``scripts/diff_bench.py`` on the committed benchmark records."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "diff_bench.py"
END_TO_END = ("ref_wall_s", "setup_s", "peak_nodes", "peak_rss_mb")
WORKLOADS = ("paper-rows-seed7-trace0", "sampled-grcs-seed7-trace0",
             "service-mix-seed7-trace0")


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("diff_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_end_to_end_names_come_from_benchmark_json(script):
    assert tuple(script.end_to_end_names()) == END_TO_END


def test_rows_on_committed_records(script):
    a = script.load(REPO_ROOT / "BENCH_13.json")
    b = script.load(REPO_ROOT / "BENCH_14.json")
    rows, unmatched = script.diff_rows(a, b, list(END_TO_END))
    assert unmatched == []
    assert [(row[0], row[1]) for row in rows] == [
        (workload, name) for workload in WORKLOADS for name in END_TO_END]
    by_key = {(row[0], row[1]): row for row in rows}
    for (workload, name), (_, _, unit, median_a, median_b, ratio) in by_key.items():
        assert median_a == a["summary"][workload][name]["change_q1_med_q3"][1]
        assert median_b == b["summary"][workload][name]["change_q1_med_q3"][1]
        assert ratio == pytest.approx(median_b / median_a)
        assert unit == b["summary"][workload][name]["unit"]
    # The node counts did not move between these two changes.
    for workload in WORKLOADS:
        assert by_key[(workload, "peak_nodes")][5] == 1.0


def test_unmatched_workload_runs_are_listed(script):
    a = script.load(REPO_ROOT / "BENCH_13.json")
    b = script.load(REPO_ROOT / "BENCH_14.json")
    b["summary"] = {key: value for key, value in b["summary"].items()
                    if not key.startswith("service-mix")}
    rows, unmatched = script.diff_rows(a, b, list(END_TO_END))
    assert unmatched == ["service-mix-seed7-trace0"]
    assert {row[0] for row in rows} == set(WORKLOADS[:2])


def test_command_line_prints_one_line_per_row():
    completed = subprocess.run(
        [sys.executable, str(SCRIPT), str(REPO_ROOT / "BENCH_13.json"),
         str(REPO_ROOT / "BENCH_14.json")],
        capture_output=True, text=True, check=True, cwd=REPO_ROOT)
    lines = completed.stdout.splitlines()
    assert lines[0].split() == ["workload", "metric", "unit", "A", "median",
                                "B", "median", "B/A"]
    assert len(lines) == 1 + len(WORKLOADS) * len(END_TO_END)
    paper_wall = next(line for line in lines
                      if line.startswith("paper-rows-seed7-trace0")
                      and " ref_wall_s " in line)
    assert paper_wall.split()[-3:] == ["1.96768", "1.90654", "0.969"]
