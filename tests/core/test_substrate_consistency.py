"""Substrate consistency under width growth, GC pressure and instrumentation.

The ISSUE-level risk: overflow-triggered width growth in
:class:`BitSlicedState` interleaved with garbage collections (which recycle
node ids and invalidate computed tables) must never corrupt amplitudes.  The
oracle is the dense statevector engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.statevector import StatevectorSimulator
from repro.bdd import BddManager
from repro.circuit.circuit import QuantumCircuit
from repro.core.simulator import BitSliceSimulator
from repro.harness.experiments import accuracy_circuit
from tests.conftest import build_circuit_from_ops, random_ops


def assert_matches_dense(circuit: QuantumCircuit, manager: BddManager = None):
    exact = BitSliceSimulator(circuit.num_qubits, manager=manager)
    exact.run(circuit)
    dense = StatevectorSimulator.simulate(circuit)
    np.testing.assert_allclose(exact.to_numpy(), dense.state, atol=1e-9)
    return exact


class TestWidthGrowthKeepsCachesConsistent:
    def test_accuracy_circuit_widens_and_stays_exact(self):
        """Deep H/T layers force repeated overflow-driven widening."""
        circuit = accuracy_circuit(3, layers=24)
        exact = assert_matches_dense(circuit)
        assert exact.state.r >= 2

    def test_widening_with_aggressive_gc_threshold(self):
        """A tiny auto-GC threshold forces collections between gates while
        the representation keeps widening; computed tables must be
        generation-invalidated each time, never serving stale ids."""
        circuit = accuracy_circuit(4, layers=12)
        manager = BddManager(4, auto_gc_threshold=64)
        exact = assert_matches_dense(circuit, manager=manager)
        stats = exact.state.substrate_stats()
        assert stats["gc_runs"] > 0
        assert stats["cache_generation"] >= stats["gc_runs"]

    def test_widening_with_bounded_caches(self):
        """Tiny computed tables (constant evictions) must not change
        results, only hit rates."""
        circuit = accuracy_circuit(3, layers=16)
        manager = BddManager(3, cache_size_limit=128)
        exact = assert_matches_dense(circuit, manager=manager)
        assert exact.state.substrate_stats()["cache_evictions"] > 0

    def test_manual_gc_between_gates(self):
        """Explicitly collecting after every gate is the worst case for
        stale-cache bugs: every gate starts from empty tables."""
        circuit = QuantumCircuit(3).h(0).t(0).cx(0, 1).h(1).tdg(1).cx(1, 2).h(2)
        exact = BitSliceSimulator(3)
        for gate in circuit.gates:
            exact.apply_gate(gate)
            exact.state.manager.garbage_collect()
        dense = StatevectorSimulator.simulate(circuit)
        np.testing.assert_allclose(exact.to_numpy(), dense.state, atol=1e-9)


class TestStoreUpkeepRegimes:
    """The upkeep regimes that broke early drafts of the node store, each
    checked against the dense engine: a collection at every gate boundary
    (constant id recycling through the free list), computed tables small
    enough to evict constantly, sifting mid-run (growth-triggered or
    called between two gates), and GC plus sifting at once on a deeper
    circuit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_gc_at_every_gate(self, seed):
        circuit = build_circuit_from_ops(4, random_ops(4, 24, seed))
        exact = assert_matches_dense(
            circuit, manager=BddManager(4, auto_gc_threshold=1))
        assert exact.state.substrate_stats()["gc_runs"] >= circuit.num_gates

    @pytest.mark.parametrize("seed", range(4))
    def test_sift_mid_run(self, seed):
        circuit = build_circuit_from_ops(4, random_ops(4, 24, seed + 10))
        exact = assert_matches_dense(
            circuit, manager=BddManager(4, auto_reorder_threshold=8))
        assert exact.state.substrate_stats()["reorder_count"] >= 1

    @pytest.mark.parametrize("seed", range(4))
    def test_bounded_cache_eviction(self, seed):
        circuit = build_circuit_from_ops(4, random_ops(4, 24, seed + 20))
        exact = assert_matches_dense(
            circuit, manager=BddManager(4, cache_size_limit=16))
        assert exact.state.substrate_stats()["cache_evictions"] > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_explicit_sift_between_gates(self, seed):
        """An explicit sift halfway through moves the variable order under
        live slices; the remaining gates must run on the new order."""
        circuit = build_circuit_from_ops(4, random_ops(4, 24, seed + 30))
        exact = BitSliceSimulator(4)
        manager = exact.state.manager
        half = circuit.num_gates // 2
        for gate in circuit.gates[:half]:
            exact.apply_gate(gate)
        manager.set_order([3, 1, 2, 0])
        reorders = manager.perf_stats()["reorder_count"]
        manager.sift()
        assert manager.perf_stats()["reorder_count"] == reorders + 1
        for gate in circuit.gates[half:]:
            exact.apply_gate(gate)
        dense = StatevectorSimulator.simulate(circuit)
        np.testing.assert_allclose(exact.to_numpy(), dense.state, atol=1e-9)

    def test_gc_and_sift_combined(self):
        circuit = build_circuit_from_ops(5, random_ops(5, 80, seed=23),
                                         name="squeeze5")
        exact = assert_matches_dense(
            circuit, manager=BddManager(5, auto_gc_threshold=64,
                                        auto_reorder_threshold=32))
        stats = exact.state.substrate_stats()
        assert stats["gc_runs"] > 0 and stats["reorder_count"] > 0


class TestStatisticsCarrySubstrateCounters:
    def test_statistics_include_flattened_perf_stats(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        simulator = BitSliceSimulator.simulate(circuit)
        stats = simulator.statistics()
        assert "substrate_cache_hit_rate" in stats
        assert "substrate_cache_and_hit_rate" in stats
        assert "substrate_unique_probes" in stats
        assert "substrate_gc_runs" in stats
        assert "substrate_peak_live_nodes" in stats
        assert stats["substrate_cache_misses"] > 0
        assert all(isinstance(value, (int, float)) for value in stats.values())

    def test_per_gate_perf_attribution(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).h(0)
        simulator = BitSliceSimulator.simulate(circuit)
        by_gate = simulator.substrate_perf_by_gate()
        assert by_gate["h"]["applications"] == 2
        assert by_gate["cx"]["applications"] == 1
        assert by_gate["h"]["elapsed_seconds"] >= 0.0
        assert "cache_hit_rate" in by_gate["h"]

    def test_runner_rows_carry_substrate_stats(self):
        from repro.harness.runner import ResourceLimits, run_circuit

        circuit = QuantumCircuit(2, name="bell").h(0).cx(0, 1)
        result = run_circuit("bitslice", circuit, ResourceLimits(max_seconds=30.0))
        assert result.status == "ok"
        assert "substrate_cache_hit_rate" in result.extra
        assert "substrate_gc_pause_seconds" in result.extra

    def test_report_json_carries_extras(self):
        import json

        from repro.harness.experiments import ExperimentResult
        from repro.harness.report import experiment_to_json
        from repro.harness.runner import ResourceLimits, run_circuit

        circuit = QuantumCircuit(2, name="bell").h(0).cx(0, 1)
        result = run_circuit("bitslice", circuit, ResourceLimits(max_seconds=30.0))
        experiment = ExperimentResult("wiring_test")
        experiment.add("bell", "bitslice", [result])
        decoded = json.loads(experiment_to_json(experiment))
        run_row = decoded["groups"][0]["engines"]["bitslice"]["runs"][0]
        assert "substrate_cache_hit_rate" in run_row["extra"]
        summary = decoded["groups"][0]["engines"]["bitslice"]["summary"]
        assert "avg_cache_hit_rate" in summary
