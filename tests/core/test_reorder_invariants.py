"""Reordering invariants at the simulator level.

The gate rules address qubits by variable *index* and the substrate's
operations resolve levels at call time, so the variable order may change at
any gate boundary — manually (``BitSliceSimulator.sift``) or automatically
(``auto_reorder_threshold``) — without changing a single amplitude,
probability or fixed-seed sampled count.  These tests pin that contract on
random circuits and on the RevLib-style Table IV workloads, including the
sampler's batched slice restrictions running at post-reorder levels.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.sampling import SliceSampler, sample_state
from repro.core.simulator import BitSliceSimulator
from repro.engines.sampling import sample_by_descent
from repro.workloads.revlib import h_augment, ripple_carry_adder

from tests.conftest import build_circuit_from_ops, random_ops

NUM_QUBITS = 5


def _reference_run(circuit):
    simulator = BitSliceSimulator(circuit.num_qubits)
    simulator.run(circuit)
    return simulator


def _amplitudes(simulator):
    return [simulator.amplitude(i)
            for i in range(1 << simulator.num_qubits)]


class TestGatesTolerateLevelChanges:
    @pytest.mark.parametrize("seed", range(6))
    def test_sift_between_gates_preserves_amplitudes(self, seed):
        ops = random_ops(NUM_QUBITS, 18, seed)
        circuit = build_circuit_from_ops(NUM_QUBITS, ops)
        reference = _reference_run(circuit)
        expected = _amplitudes(reference)

        simulator = BitSliceSimulator(NUM_QUBITS)
        rng = random.Random(seed)
        for gate in circuit.gates:
            simulator.apply_gate(gate)
            if rng.random() < 0.3:
                simulator.sift()
        assert _amplitudes(simulator) == expected
        assert simulator.state.k == reference.state.k

    @pytest.mark.parametrize("seed", range(6))
    def test_adjacent_swaps_between_gates_preserve_amplitudes(self, seed):
        ops = random_ops(NUM_QUBITS, 15, seed + 50)
        circuit = build_circuit_from_ops(NUM_QUBITS, ops)
        expected = _amplitudes(_reference_run(circuit))

        simulator = BitSliceSimulator(NUM_QUBITS)
        manager = simulator.state.manager
        rng = random.Random(seed)
        for gate in circuit.gates:
            simulator.apply_gate(gate)
            manager.swap_adjacent_levels(rng.randrange(NUM_QUBITS - 1))
        assert _amplitudes(simulator) == expected

    def test_auto_reorder_threshold_preserves_final_probability(self):
        circuit, constants = ripple_carry_adder(5)
        modified = h_augment(circuit, constants)
        reference = _reference_run(modified)
        qubits = list(range(modified.num_qubits))
        zeros = [0] * modified.num_qubits
        expected = reference.probability_of_outcome(qubits, zeros)

        simulator = BitSliceSimulator(modified.num_qubits,
                                      auto_reorder_threshold=40)
        simulator.run(modified)
        assert simulator.state.manager.perf_stats()["reorder_count"] >= 1
        assert simulator.probability_of_outcome(qubits, zeros) == pytest.approx(
            expected, abs=1e-15)

    def test_sift_reduces_nodes_on_revlib_adder(self):
        """The acceptance benchmark's claim, pinned as a test: sifting the
        modified ripple-carry adder shrinks the live node count (the
        natural wire order separates the two addend registers, which is
        the textbook-bad order for adder BDDs)."""
        circuit, constants = ripple_carry_adder(6)
        modified = h_augment(circuit, constants)
        simulator = _reference_run(modified)
        before = simulator.state.num_nodes()
        stats = simulator.sift()
        after = simulator.state.num_nodes()
        assert stats["nodes_after"] < stats["nodes_before"]
        assert after < before


class TestSamplingAcrossReorders:
    @pytest.mark.parametrize("seed", range(4))
    def test_fixed_seed_counts_invariant_under_sift(self, seed):
        ops = random_ops(NUM_QUBITS, 16, seed + 200)
        circuit = build_circuit_from_ops(NUM_QUBITS, ops)
        reference = _reference_run(circuit)
        expected = sample_state(reference.state, 150,
                                rng=np.random.default_rng(seed))

        sifted = _reference_run(circuit)
        sifted.sift()
        counts = sample_state(sifted.state, 150,
                              rng=np.random.default_rng(seed))
        assert counts == expected

    def test_sampler_survives_reorder_mid_descent(self):
        """A reorder between descent steps must not corrupt the sampler:
        its cofactor families are anchored in handles and cofactors address
        variables by index, so each step simply runs at the post-reorder
        levels (and the level-keyed slice-mass memo is flushed by the
        generation bump)."""
        circuit = build_circuit_from_ops(
            NUM_QUBITS, random_ops(NUM_QUBITS, 14, 77))
        simulator = _reference_run(circuit)
        qubits = list(range(NUM_QUBITS))
        oracle = SliceSampler(simulator.state, qubits)
        expected = [oracle.prefix_probability((0,) * n)
                    for n in range(1, NUM_QUBITS + 1)]

        probed = SliceSampler(simulator.state, qubits)
        values = []
        for n in range(1, NUM_QUBITS + 1):
            values.append(probed.prefix_probability((0,) * n))
            simulator.sift()  # reorder (and GC) between descent steps
        assert values == pytest.approx(expected, abs=1e-14)

    def test_descent_counts_equal_with_reorder_interleaved(self):
        circuit = build_circuit_from_ops(
            NUM_QUBITS, random_ops(NUM_QUBITS, 16, 88))
        reference = _reference_run(circuit)
        expected = sample_state(reference.state, 100,
                                rng=np.random.default_rng(3))

        simulator = _reference_run(circuit)
        sampler = SliceSampler(simulator.state, list(range(NUM_QUBITS)))

        def branch_probability(prefix):
            if len(prefix) == 2:  # reorder while the descent is running
                simulator.state.manager.swap_adjacent_levels(0)
            return sampler.prefix_probability(tuple(prefix))

        counts = sample_by_descent(branch_probability, NUM_QUBITS, 100,
                                   np.random.default_rng(3))
        assert counts == expected
