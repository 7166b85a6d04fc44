"""Shared configuration for the benchmark suite.

The benchmarks reproduce the paper's Tables III–VI at laptop scale (smaller
qubit counts, shorter budgets) so that ``pytest benchmarks/ --benchmark-only``
finishes in minutes rather than the days the paper-scale sweep would take in
pure Python.  Every benchmark records, next to its timing, the qualitative
quantities the paper reports (success/failure class, node counts), via the
``extra_info`` mechanism of pytest-benchmark.

Set the environment variable ``REPRO_BENCH_SCALE=large`` to run closer to the
paper's parameters (still smaller than the original 7200 s budgets).
"""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

import pytest

#: Scale selector: "small" (default) or "large".
BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")


def _load_regression_gate():
    """``scripts/check_bench_regression.py`` as a module: its calibration
    loop is the one the gate scales each benchmark by."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "check_bench_regression.py"
    spec = importlib.util.spec_from_file_location("check_bench_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_REGRESSION_GATE = _load_regression_gate()


def scale_choice(small, large):
    """Pick a parameter set based on the benchmark scale."""
    return large if BENCH_SCALE == "large" else small


@pytest.fixture(scope="session")
def bench_limits():
    """Resource limits applied to every benchmark run."""
    from repro.harness.runner import ResourceLimits

    return ResourceLimits(
        max_seconds=scale_choice(30.0, 300.0),
        max_nodes=scale_choice(200_000, 2_000_000),
    )


@pytest.fixture(autouse=True)
def calibration_samples(request):
    """Time the regression gate's calibration loop right before and right
    after each benchmark, and store the samples in the benchmark's
    ``extra_info["calibration_s"]`` (so in the run JSON): the gate scales
    every benchmark by the host's speed while that benchmark ran."""
    benchmark = (request.getfixturevalue("benchmark")
                 if "benchmark" in request.fixturenames else None)
    if benchmark is None or not benchmark.enabled:
        yield
        return
    before = _REGRESSION_GATE.sample_calibration()
    yield
    after = _REGRESSION_GATE.sample_calibration()
    benchmark.extra_info["calibration_s"] = before + after
