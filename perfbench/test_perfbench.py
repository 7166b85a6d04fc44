"""Tests of the benchmark itself (not part of the tier-1 suite):

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import circuit_fingerprint

import calibration
import compare
import run
import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
QUICK_SEED = 3


def fingerprints(workload, seed):
    inputs = workloads.build_inputs(workload, seed)
    if workload == "service-mix":
        inputs = [request.circuit for request in inputs]
    return [circuit_fingerprint(circuit) for circuit in inputs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert fingerprints(workload, 0) == fingerprints(workload, 0)
    assert fingerprints(workload, 5) == fingerprints(workload, 5)
    assert fingerprints(workload, 0) != fingerprints(workload, 5)


def test_default_seed_gives_the_paper_rows():
    rows = workloads.build_inputs("paper-rows", workloads.DEFAULT_SEED)
    assert [(c.name, c.num_qubits) for c in rows] == [
        ("random_16q_s16000", 16), ("random_16q_s16001", 16),
        ("random_18q_s18000", 18), ("random_18q_s18001", 18),
        ("random_20q_s20000", 20), ("grcs_4x4_d5_s0", 16),
        ("grcs_4x5_d4_s0", 20), ("add10_mod", 22)]


def test_service_plan_mix():
    plan = workloads.build_inputs("service-mix", 1)
    kinds = [request.kind for request in plan]
    assert [kinds.count(k) for k in ("miss", "hit", "sample", "append")] \
        == [400, 400, 100, 100]
    assert kinds[0] == "miss"
    missed = set()
    for request in plan:
        key = circuit_fingerprint(request.circuit)
        if request.kind == "miss":
            assert key not in missed
            missed.add(key)
        elif request.kind == "hit":
            assert key in missed


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Every (workload, trace) combination once in quick mode."""
    runs = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            out = tmp_path_factory.mktemp(f"{workload}-{trace}")
            done = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", str(QUICK_SEED),
                 "--seconds", "0", "--trace", str(trace), "--quick",
                 "--out", str(out / "results.jsonl")],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            runs[workload, trace] = (
                json.loads(done.stdout.strip().splitlines()[-1]), out)
    return runs


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_mode_emits_every_declared_metric(quick_runs, workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    result, _ = quick_runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_spans_nest(quick_runs, workload):
    _, out = quick_runs[workload, 1]
    with open(out / f"spans-{workload}-seed{QUICK_SEED}.json") as handle:
        recorded = json.load(handle)
    assert recorded
    assert spans.nesting_errors(recorded) == []
    assert min(spans.self_times(recorded).values()) >= -1e-9


def test_self_time_subtracts_the_union_of_children():
    recorded = [[1, None, "parent", 0.0, 10.0],
                [2, 1, "child", 1.0, 3.0],
                [3, 1, "other-thread", 2.0, 5.0],
                [4, 3, "grandchild", 2.5, 3.5]]
    own = spans.self_times(recorded)
    assert own == {1: 6.0, 2: 2.0, 3: 2.0, 4: 1.0}


def test_nesting_errors_flag_a_span_outside_its_parent():
    recorded = [[1, None, "parent", 0.0, 1.0], [2, 1, "late", 0.5, 2.0]]
    assert spans.nesting_errors(recorded) == [
        "late is not inside its parent parent"]


def test_reference_seconds_scales_each_chunk_by_the_loops_around_it():
    ref = calibration.REFERENCE_S

    def one_pass(latencies, loops):
        return workloads.PassResult(wall_s=sum(latencies),
                                    latencies_s=latencies, calibration_s=loops)

    passes = [one_pass([0.1, 0.2, 0.3], [ref, ref, 2 * ref]),
              # the same pass on a host at half the speed
              one_pass([0.2, 0.4, 0.6], [2 * ref, 2 * ref, 4 * ref]),
              # an outlier the median over passes drops
              one_pass([1.0, 1.0, 1.0], [ref, ref, ref])]
    # chunks of two requests: [0.1 + 0.2] between loops 0 and 1, [0.3]
    # between loops 1 and 2 (mean 1.5 ref)
    assert run.reference_seconds(passes, 2) == pytest.approx(0.3 + 0.2)


def test_compare_verdicts():
    base = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert compare.verdict(base, [1.3, 1.31, 1.29, 1.3, 1.3], 0.1, True) \
        == "worse"
    assert compare.verdict(base, [0.8, 0.81, 0.79, 0.8, 0.8], 0.1, True) \
        == "better"
    assert compare.verdict(base, [1.0, 1.01, 1.0, 0.99, 1.0], 0.1, True) \
        == "same"
    assert compare.verdict(base, [0.5, 1.5, 1.0, 0.7, 1.4], 0.1, True) \
        == "unresolved"
