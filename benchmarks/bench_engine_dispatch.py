"""Microbenchmark: the unified engine API must stay ~free.

The redesign routes every run through name resolution, capability-based
selection, the adapter layer and the LimitEnforcer wrapper.  These
benchmarks pin that plumbing:

* ``test_dispatch_overhead_vs_native`` times the full ``repro.run`` front
  door on a tiny fixed circuit — registry lookup + adapter + limit checks +
  classification + the final query.  The circuit is small on purpose so the
  dispatch layer is a visible fraction of the time; a regression here means
  the abstraction got more expensive, not the simulator.
* ``test_native_baseline`` times the same workload on the raw
  ``BitSliceSimulator`` (construction, gate loop, query), giving the
  denominator for the overhead ratio.
* ``test_auto_selection`` times capability-based selection alone, which
  runs per circuit in every ``engine="auto"`` call.
* ``test_statevector_gate_loop`` times ``repro.run`` on the dense engine
  with a 12-qubit random circuit of a few hundred gates, the engine
  ``auto`` picks for small non-Clifford circuits; its gate kernel
  dominates the time.

Deterministic ``extra_info`` (statuses, node counts) is gated exactly by
``scripts/check_bench_regression.py``; the fixed-seed workload must not
drift.
"""

from __future__ import annotations

from repro.engines import ResourceLimits, run, select_engine
from repro.core.simulator import BitSliceSimulator
from repro.workloads.random_circuits import generate_random_circuit

#: Small fixed workload: dispatch cost must be visible next to it.
CIRCUIT = generate_random_circuit(6, seed=2021)
LIMITS = ResourceLimits(max_seconds=30.0, max_nodes=100_000)
QUERY_QUBITS = list(range(CIRCUIT.num_qubits))
#: Fixed dense workload: enough gates that the gate loop, not dispatch, shows.
DENSE_CIRCUIT = generate_random_circuit(12, num_gates=240, seed=2021)


def test_dispatch_overhead_vs_native(benchmark):
    """Full front-door run (registry + adapter + limits + classification)."""

    def front_door():
        return run(CIRCUIT, engine="bitslice", limits=LIMITS)

    result = benchmark(front_door)
    assert result.succeeded
    benchmark.extra_info["status"] = result.status
    benchmark.extra_info["peak_memory_nodes"] = result.peak_memory_nodes
    benchmark.extra_info["num_gates"] = CIRCUIT.num_gates


def test_native_baseline(benchmark):
    """The same workload on the raw simulator class (no dispatch layer)."""

    def native():
        simulator = BitSliceSimulator(CIRCUIT.num_qubits)
        simulator.run(CIRCUIT)
        return simulator.probability_of_outcome(QUERY_QUBITS,
                                                [0] * len(QUERY_QUBITS))

    probability = benchmark(native)
    assert 0.0 <= probability <= 1.0
    benchmark.extra_info["num_gates"] = CIRCUIT.num_gates


def test_auto_selection(benchmark):
    """Capability-based engine selection alone (runs per 'auto' call)."""

    selected = benchmark(select_engine, CIRCUIT, LIMITS)
    benchmark.extra_info["selected"] = selected
    # The fixed circuit is non-Clifford and below the dense cutoff.
    assert selected == "statevector"


def test_statevector_gate_loop(benchmark):
    """The dense engine's gate loop through the front door."""

    def dense():
        return run(DENSE_CIRCUIT, engine="statevector", limits=LIMITS)

    result = benchmark(dense)
    assert result.succeeded
    benchmark.extra_info["status"] = result.status
    benchmark.extra_info["num_gates"] = DENSE_CIRCUIT.num_gates
    benchmark.extra_info["num_qubits"] = DENSE_CIRCUIT.num_qubits
