"""Unit tests for ``scripts/check_bench_regression.py``.

The regression gate is itself gated here: the comparison rules (timing
threshold, deterministic-metric drift, missing families), the per-benchmark
calibration (each benchmark scaled by the loop samples taken around it, the
check-time loop only as the fallback) and the markdown job summary — in
particular that benchmarks present only in the run report are reported as
**new** (a family awaiting its ``--update`` baseline entry), never as
failures and never mislabelled as tracked.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_bench_regression.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("check_bench_regression",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def baseline_of(entries):
    return {"_meta": {}, "benchmarks": entries}  # no calibration rescaling


class TestCheck:
    def test_matching_run_passes(self, script):
        entries = {"test_a": {"min_seconds": 0.01, "extra": {"nodes": 5}}}
        failures, _, rows = script.check(dict(entries), baseline_of(entries),
                                         threshold=1.25)
        assert failures == []
        assert [row["status"] for row in rows] == ["ok"]

    def test_slowdown_beyond_threshold_fails(self, script):
        base = {"test_a": {"min_seconds": 0.01, "extra": {}}}
        run = {"test_a": {"min_seconds": 0.02, "extra": {}}}
        failures, _, rows = script.check(run, baseline_of(base), threshold=1.25)
        assert len(failures) == 1 and "exceeds allowed" in failures[0]
        assert rows[0]["status"] == "REGRESSION"

    def test_deterministic_metric_drift_fails(self, script):
        base = {"test_a": {"min_seconds": 0.01, "extra": {"cache_misses": 7}}}
        run = {"test_a": {"min_seconds": 0.01, "extra": {"cache_misses": 8}}}
        failures, _, rows = script.check(run, baseline_of(base), threshold=1.25)
        assert any("deterministic metric" in failure for failure in failures)
        assert rows[0]["status"] == "metric drift"

    def test_baseline_family_missing_from_run_fails(self, script):
        base = {"test_gone": {"min_seconds": 0.01, "extra": {}}}
        failures, _, rows = script.check({}, baseline_of(base), threshold=1.25)
        assert any("missing from the run report" in failure
                   for failure in failures)
        assert rows[0]["status"] == "missing"

    def test_run_only_benchmark_is_new_not_a_failure(self, script):
        """A benchmark that exists only in the run report is a *new* family
        (its baseline entry lands with --update) — the gate must stay green
        and the row must say so."""
        run = {"test_fresh": {"min_seconds": 0.01, "extra": {"nodes": 3}}}
        failures, notes, rows = script.check(run, baseline_of({}),
                                             threshold=1.25)
        assert failures == []
        assert [row["status"] for row in rows] == ["new"]
        assert any("new benchmark" in note and "--update" in note
                   for note in notes)


def timed(min_seconds, samples, extra=None):
    return {"min_seconds": min_seconds, "calibration_s": list(samples),
            "extra": dict(extra or {})}


@pytest.fixture
def no_check_time_loop(script, monkeypatch):
    """Fails the test if the check-time calibration loop runs."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the check-time loop ran")
    monkeypatch.setattr(script, "calibration_seconds", forbidden)


class TestPerBenchmarkCalibration:
    def test_each_benchmark_scaled_by_its_own_samples(self, script,
                                                      no_check_time_loop):
        base = {"test_a": timed(0.010, [0.10, 0.10]),
                "test_b": timed(0.010, [0.10, 0.10])}
        # The host ran at half speed during test_a only.
        run = {"test_a": timed(0.020, [0.20, 0.20]),
               "test_b": timed(0.011, [0.10, 0.10])}
        failures, notes, rows = script.check(run, baseline_of(base),
                                             threshold=1.25)
        assert failures == []
        assert [row["scale"] for row in rows] == [2.0, 1.0]
        assert any(note.startswith("calibration: 2 benchmark(s)")
                   for note in notes)

    def test_scale_is_the_ratio_of_the_fastest_samples(self, script,
                                                       no_check_time_loop):
        base = {"test_a": timed(0.010, [0.12, 0.08, 0.10])}
        run = {"test_a": timed(0.010, [0.25, 0.16, 0.30])}
        _, _, rows = script.check(run, baseline_of(base), threshold=1.25)
        assert rows[0]["scale"] == pytest.approx(2.0)

    @pytest.mark.parametrize("host_scale", [1.0, 0.8, 1.3])
    def test_one_and_a_half_times_slower_benchmark_still_fails(
            self, script, no_check_time_loop, host_scale):
        """Mutation case: one benchmark 1.5x slower than its baseline at the
        same host speed fails the 25 % gate, whatever that speed is; the
        untouched benchmark beside it passes."""
        samples = [0.1 * host_scale, 0.1 * host_scale]
        base = {"test_slowed": timed(0.010, [0.1, 0.1]),
                "test_same": timed(0.010, [0.1, 0.1])}
        run = {"test_slowed": timed(0.015 * host_scale, samples),
               "test_same": timed(0.010 * host_scale, samples)}
        failures, _, rows = script.check(run, baseline_of(base), threshold=1.25)
        assert len(failures) == 1 and "test_slowed" in failures[0]
        assert {row["name"]: row["status"] for row in rows} == {
            "test_same": "ok", "test_slowed": "REGRESSION"}

    def test_baseline_without_samples_falls_back_to_check_time_loop(
            self, script, monkeypatch):
        calls = []

        def check_time_loop(*args, **kwargs):
            calls.append(args)
            return 0.2

        monkeypatch.setattr(script, "calibration_seconds", check_time_loop)
        base = {"test_a": {"min_seconds": 0.010, "extra": {}},
                "test_b": {"min_seconds": 0.010, "extra": {}}}
        run = {"test_a": timed(0.019, [0.5, 0.5]),
               "test_b": timed(0.026, [0.5, 0.5])}
        baseline = {"_meta": {"calibration_seconds": 0.1}, "benchmarks": base}
        failures, notes, rows = script.check(run, baseline, threshold=1.25)
        assert len(calls) == 1  # timed once, shared by every fallback entry
        assert [row["scale"] for row in rows] == [2.0, 2.0]
        assert len(failures) == 1 and "test_b" in failures[0]
        assert any("check-time fallback" in note for note in notes)

    def test_load_run_moves_samples_out_of_the_extras(self, script, tmp_path,
                                                      monkeypatch):
        report = {"benchmarks": [
            {"name": "test_a", "stats": {"min": 0.01},
             "extra_info": {"nodes": 5, "calibration_s": [0.1, 0.2]}},
            {"name": "test_b", "stats": {"min": 0.02}, "extra_info": {}}]}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        run = script.load_run(path)
        assert run["test_a"] == {"min_seconds": 0.01, "extra": {"nodes": 5},
                                 "calibration_s": [0.1, 0.2]}
        assert "calibration_s" not in run["test_b"]
        monkeypatch.setattr(script, "calibration_seconds", lambda: 0.3)
        baseline = script.build_baseline(run)
        assert baseline["benchmarks"]["test_a"]["calibration_s"] == [0.1, 0.2]

    def test_benchmark_session_records_samples(self, script, tmp_path):
        """The benchmarks' conftest times the loop around each benchmark and
        the samples land in the pytest-benchmark JSON."""
        report = tmp_path / "run.json"
        completed = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "benchmarks/bench_reorder.py", "-k", "swap_adjacent",
             "--benchmark-only", f"--benchmark-json={report}"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=300)
        assert completed.returncode == 0, completed.stdout + completed.stderr
        (bench,) = json.loads(report.read_text(encoding="utf-8"))["benchmarks"]
        samples = bench["extra_info"]["calibration_s"]
        assert len(samples) == 2 * script.SAMPLES_PER_SIDE
        assert all(sample > 0 for sample in samples)


class TestMarkdownSummary:
    def render(self, script, rows, notes=(), tmp_path=None):
        destination = tmp_path / "summary.md"
        script.write_markdown_summary(rows, list(notes), destination)
        return destination.read_text(encoding="utf-8")

    def test_new_benchmark_row_lists_as_new(self, script, tmp_path):
        run = {"test_fresh": {"min_seconds": 0.01, "extra": {}}}
        _, notes, rows = script.check(run, baseline_of({}), threshold=1.25)
        text = self.render(script, rows, notes, tmp_path)
        assert "| `test_fresh` |" in text
        assert "| new |" in text
        assert "untracked" not in text
        # No baseline time yet: the baseline and delta cells are em-dashes.
        row_line = next(line for line in text.splitlines()
                        if "test_fresh" in line)
        assert row_line.count("—") >= 2

    def test_tracked_row_shows_delta(self, script, tmp_path):
        entries = {"test_a": {"min_seconds": 0.01,
                              "extra": {"nodes_before": 50,
                                        "nodes_after": 20}}}
        _, notes, rows = script.check(dict(entries), baseline_of(entries),
                                      threshold=1.25)
        text = self.render(script, rows, notes, tmp_path)
        assert "| `test_a` |" in text
        assert "+0.0%" in text
        assert "50→20" in text  # the reordering before→after cell

    def test_summary_appends(self, script, tmp_path):
        destination = tmp_path / "summary.md"
        destination.write_text("existing content\n", encoding="utf-8")
        script.write_markdown_summary([], [], destination)
        text = destination.read_text(encoding="utf-8")
        assert text.startswith("existing content\n")
        assert "## Benchmark delta vs committed baseline" in text
