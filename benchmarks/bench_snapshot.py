"""Smoke benchmarks for the snapshot/checkpoint layer.

Three guarantees are gated here, with in-benchmark assertions so CI
fails loudly if crash-safety ever stops paying its way:

* ``test_snapshot_dump_load_roundtrip`` — serialising a warm 10-qubit
  bit-sliced state and restoring it must be faster than re-executing
  the circuit that produced it (at least **2x**): restore is a linear
  column rebuild, re-execution repeats every BDD apply.  The circuit is
  a deep one (mirrored CX ladders after the workload below), so the
  contest is restore against re-running a long circuit, not against the
  fixed cost of two fsyncs.  The restored manager is column-identical (a
  re-dump is byte-identical).
* ``test_checkpointed_run_overhead`` — a run with per-gate
  checkpointing enabled produces a ``to_dict(timings=False)``
  byte-identical to the cold run, sampled counts included; the
  wall-clock overhead factor is recorded (informational — it is
  dominated by fsync latency, which is machine-dependent).
* ``test_checkpoint_resume_latency`` — restoring a mid-circuit
  checkpoint and executing only the suffix is byte-identical to the
  uninterrupted run; the resumed depth is pinned exactly.

Only round-count-independent quantities go into ``extra_info`` as
integers (the regression gate pins those exactly): node counts, gate
counts, section counts, resumed depth.  Measured speedups and sizes
are recorded as floats — informational, machine-dependent.
"""

from __future__ import annotations

import json
import os
import time

import repro
from repro import JobCancelledError, QuantumCircuit
from repro.core.simulator import BitSliceSimulator
from repro.engines import ResourceLimits
from repro.snapshot import dump_simulator, load_simulator, snapshot_info

LIMITS = ResourceLimits(max_seconds=60.0, max_nodes=200_000)
SHOTS = 1024
SEED = 17

#: Structured 10-qubit workload: GHZ backbone with non-Clifford tails —
#: big enough that restore-vs-reexecute is a real contest, small enough
#: for CI (same shape as the cache benchmarks, so numbers are comparable).
WORKLOAD = QuantumCircuit(10, name="snapshot_workload").h(0)
for _qubit in range(9):
    WORKLOAD.cx(_qubit, _qubit + 1)
WORKLOAD.t(2).h(2).t(5).h(5).t(8)
SAMPLED = WORKLOAD.copy(name="snapshot_sampled").measure_all()

#: The workload followed by six compute/uncompute CX ladders: the same
#: 27-node final state, reached through 123 gates.
DEEP_WORKLOAD = WORKLOAD.copy(name="snapshot_deep_workload")
for _round in range(6):
    for _qubit in range(9):
        DEEP_WORKLOAD.cx(_qubit, _qubit + 1)
    for _qubit in reversed(range(9)):
        DEEP_WORKLOAD.cx(_qubit, _qubit + 1)


class _FireAfter:
    """A cancel token that trips after N polls — a deterministic 'crash'
    at a gate boundary (the limit enforcer polls once per instruction)."""

    def __init__(self, after):
        self.after = after
        self.calls = 0

    def is_set(self):
        self.calls += 1
        return self.calls > self.after


def _best_of(callable_, repeats=3):
    """Best-of-N wall-clock seconds of one call (jitter-resistant cold
    reference for the speedup assertions)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def _det(result):
    return json.dumps(result.to_dict(timings=False), sort_keys=True)


def test_snapshot_dump_load_roundtrip(benchmark, tmp_path):
    """Dump + load of a warm simulator vs re-executing its circuit."""

    def warm():
        simulator = BitSliceSimulator(10)
        simulator.run(DEEP_WORKLOAD)
        return simulator

    reexecute_seconds, simulator = _best_of(warm)
    path = tmp_path / "warm.snap"

    def roundtrip():
        dump_simulator(simulator, path)
        restored, _extra = load_simulator(path)
        return restored

    restored = benchmark(roundtrip)
    assert restored.state.num_nodes() == simulator.state.num_nodes()
    assert restored.gates_applied == simulator.gates_applied
    # The restore is exact: re-dumping it reproduces the same bytes.
    blob = path.read_bytes()
    redump = tmp_path / "redump.snap"
    dump_simulator(restored, redump)
    assert redump.read_bytes() == blob
    roundtrip_seconds = benchmark.stats.stats.min
    speedup = reexecute_seconds / roundtrip_seconds
    assert speedup >= 2.0, (
        f"snapshot roundtrip only {speedup:.1f}x faster than re-execution "
        f"({roundtrip_seconds:.6f}s vs {reexecute_seconds:.6f}s)")
    info = snapshot_info(path)
    benchmark.extra_info["state_nodes"] = simulator.state.num_nodes()
    benchmark.extra_info["gates_applied"] = simulator.gates_applied
    benchmark.extra_info["snapshot_sections"] = len(info["sections"])
    benchmark.extra_info["snapshot_kilobytes"] = round(len(blob) / 1024, 2)
    benchmark.extra_info["restore_vs_reexecute_speedup"] = round(speedup, 2)


def test_checkpointed_run_overhead(benchmark, tmp_path):
    """Per-gate checkpointing: byte-identical output, overhead recorded."""
    cold_seconds, cold = _best_of(
        lambda: repro.run(SAMPLED, engine="bitslice", limits=LIMITS,
                          shots=SHOTS, seed=SEED))

    def checkpointed():
        return repro.run(SAMPLED, engine="bitslice", limits=LIMITS,
                         shots=SHOTS, seed=SEED, checkpoint_every=1,
                         checkpoint_dir=tmp_path)

    hot = benchmark(checkpointed)
    assert _det(hot) == _det(cold)
    assert hot.extra["checkpoints_written"] >= 1
    # The ok finish discarded the stale-prefix checkpoint.
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".ckpt")]
    overhead = benchmark.stats.stats.min / cold_seconds
    benchmark.extra_info["status"] = hot.status
    benchmark.extra_info["checkpoints_written"] = \
        hot.extra["checkpoints_written"]
    benchmark.extra_info["distinct_outcomes"] = len(hot.counts)
    benchmark.extra_info["checkpoint_overhead_x"] = round(overhead, 2)


def test_checkpoint_resume_latency(benchmark, tmp_path):
    """Restore a mid-circuit checkpoint + execute only the suffix."""
    baseline = _det(repro.run(SAMPLED, engine="bitslice", limits=LIMITS,
                              shots=SHOTS, seed=SEED))
    crash_after = WORKLOAD.num_gates - 3

    def crash():
        try:
            repro.run(SAMPLED, engine="bitslice", limits=LIMITS,
                      shots=SHOTS, seed=SEED, cancel=_FireAfter(crash_after),
                      checkpoint_every=1, checkpoint_dir=tmp_path)
        except JobCancelledError:
            pass
        assert [p for p in os.listdir(tmp_path) if p.endswith(".ckpt")]
        return (), {}

    box = {}

    def resume():
        box["result"] = repro.run(SAMPLED, engine="bitslice", limits=LIMITS,
                                  shots=SHOTS, seed=SEED, checkpoint_every=1,
                                  checkpoint_dir=tmp_path)

    benchmark.pedantic(resume, setup=crash, rounds=5, iterations=1)
    resumed = box["result"]
    assert _det(resumed) == baseline
    assert resumed.extra["resumed_from_checkpoint"] >= 1
    benchmark.extra_info["status"] = resumed.status
    benchmark.extra_info["resumed_from_depth"] = \
        resumed.extra["resumed_from_checkpoint"]
    benchmark.extra_info["circuit_gates"] = SAMPLED.num_gates
