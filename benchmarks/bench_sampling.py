"""Smoke benchmarks for the measurement & sampling subsystem.

Pins the three cost centres of the new subsystem with fixed seeds:

* ``test_bitslice_descent_sampling`` — the exact slice sampler on a
  structured state: 4096 shots must cost a handful of restrict batches,
  not 4096 state walks (the descent's cost scales with *distinct*
  outcomes).
* ``test_statevector_descent_sampling`` — the dense engine's descent
  re-sampling one state, so after the first round it reads the memoised
  marginal tree.
* ``test_statevector_sample_fresh_state`` — the same descent on a freshly
  prepared 12-qubit state every round: the marginal tree's build plus its
  lookups, as one ``service-mix`` sample request pays them.
* ``test_frontdoor_shots`` — the whole ``repro.run(shots=...)`` pipeline
  including counts re-keying, on the auto-dispatch-sized workload.
* ``test_dynamic_trajectories`` — per-shot trajectory execution of a
  feedback circuit (mid-circuit measure + conditional gate).

Deterministic ``extra_info`` (counts totals, sampler work counters) is
gated exactly by ``scripts/check_bench_regression.py``; the fixed seeds
must not drift.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import GateKind
from repro.engines import ResourceLimits, create_engine, run
from repro.workloads.random_circuits import generate_random_circuit

LIMITS = ResourceLimits(max_seconds=60.0, max_nodes=200_000)
SHOTS = 4096

#: Structured 12-qubit workload: a GHZ backbone with T-rotated tails, so
#: the outcome support is small but non-Clifford.
STRUCTURED = QuantumCircuit(12, name="sampling_structured").h(0)
for _qubit in range(11):
    STRUCTURED.cx(_qubit, _qubit + 1)
STRUCTURED.t(3).h(3).t(7).h(7)
STRUCTURED.measure_all()

#: Dense random workload for the descent (8 qubits keeps the dense
#: engine's per-prefix lookups visible but bounded).
RANDOM = generate_random_circuit(8, seed=2021)
RANDOM.measure_all()

#: A 12-qubit random circuit of the kind ``engine="auto"`` sends to the
#: dense engine in a service mix.
DENSE_MIX = generate_random_circuit(12, seed=70002)
DENSE_SHOTS = 256

#: Feedback circuit: H; measure; conditional X; terminal measure.
FEEDBACK = QuantumCircuit(2, name="sampling_feedback")
FEEDBACK.h(0).measure_mid(0, 0)
FEEDBACK.add(GateKind.X, [1], condition=1)
FEEDBACK.measure(1, 1)


def test_bitslice_descent_sampling(benchmark):
    """Exact slice-restriction sampling on the bit-sliced engine."""
    engine = create_engine("bitslice")
    engine.run(STRUCTURED)

    def sample():
        return engine.sample(SHOTS, rng=np.random.default_rng(7))

    counts = benchmark(sample)
    assert sum(counts.values()) == SHOTS
    stats = engine.statistics()
    benchmark.extra_info["distinct_outcomes"] = len(counts)
    benchmark.extra_info["restrict_batches"] = int(
        stats["sampler_restrict_batches"])
    benchmark.extra_info["mass_evaluations"] = int(
        stats["sampler_mass_evaluations"])


def test_statevector_descent_sampling(benchmark):
    """The dense engine's descent over its memoised marginal tree."""
    engine = create_engine("statevector")
    engine.run(RANDOM)

    def sample():
        return engine.sample(SHOTS, rng=np.random.default_rng(7))

    counts = benchmark(sample)
    assert sum(counts.values()) == SHOTS
    benchmark.extra_info["distinct_outcomes"] = len(counts)


def test_statevector_sample_fresh_state(benchmark):
    """256 shots on a freshly prepared dense state each round (the circuit
    runs untimed in the setup): the marginal tree is built every time."""

    def fresh_engine():
        engine = create_engine("statevector")
        engine.run(DENSE_MIX)
        return (engine,), {}

    def sample(engine):
        return engine.sample(DENSE_SHOTS, rng=np.random.default_rng(7))

    counts = benchmark.pedantic(sample, setup=fresh_engine, rounds=40)
    assert sum(counts.values()) == DENSE_SHOTS
    benchmark.extra_info["distinct_outcomes"] = len(counts)
    benchmark.extra_info["num_qubits"] = DENSE_MIX.num_qubits


def test_frontdoor_shots(benchmark):
    """The full ``repro.run(shots=...)`` pipeline with counts re-keying."""

    def front_door():
        return run(STRUCTURED, engine="bitslice", limits=LIMITS,
                   shots=SHOTS, seed=11)

    result = benchmark(front_door)
    assert result.succeeded
    assert sum(result.counts.values()) == SHOTS
    benchmark.extra_info["status"] = result.status
    benchmark.extra_info["distinct_outcomes"] = len(result.counts)
    benchmark.extra_info["counts_checksum"] = sorted(result.counts.items())[0][1]


def test_dynamic_trajectories(benchmark):
    """Per-shot trajectory re-execution of a classical-feedback circuit."""
    trajectory_shots = 64

    def trajectories():
        return run(FEEDBACK, engine="bitslice", limits=LIMITS,
                   shots=trajectory_shots, seed=5)

    result = benchmark(trajectories)
    assert result.succeeded
    assert sum(result.counts.values()) == trajectory_shots
    assert set(result.counts) <= {0b00, 0b11}
    benchmark.extra_info["status"] = result.status
    benchmark.extra_info["branches"] = len(result.counts)
