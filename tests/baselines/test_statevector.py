"""Tests for the dense statevector simulator (the floating-point oracle)."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

import repro
from repro.baselines.statevector import StatevectorSimulator
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import Gate, GateKind, full_unitary, gate_matrix
from repro.core.simulator import BitSliceSimulator
from repro.engines import create_engine
from repro.engines.base import Engine
from repro.engines.sampling import sample_by_descent
from repro.workloads.random_circuits import generate_random_circuit
from repro.workloads.revlib import revlib_suite

from tests.conftest import build_circuit_from_ops, random_ops, universal_mix


def tensordot_reference_state(circuit: QuantumCircuit) -> np.ndarray:
    """Final state of ``circuit`` from |0...0> through the earlier gate form:
    select the control-1 subspace, ``moveaxis`` the target first,
    ``tensordot`` the 2x2 matrix in and move the axis back."""
    n = circuit.num_qubits
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    tensor = state.reshape((2,) * n)
    for gate in circuit.gates:
        selector = [slice(None)] * n
        for control in gate.controls:
            selector[control] = 1
        sub = tensor[tuple(selector)]
        remaining = [q for q in range(n) if q not in gate.controls]
        if gate.kind in (GateKind.SWAP, GateKind.CSWAP):
            axis_a, axis_b = (remaining.index(q) for q in gate.targets)
            tensor[tuple(selector)] = np.swapaxes(sub, axis_a, axis_b)
            continue
        position = remaining.index(gate.targets[0])
        updated = np.tensordot(gate_matrix(gate.kind), np.moveaxis(sub, position, 0),
                               axes=([1], [0]))
        tensor[tuple(selector)] = np.moveaxis(updated, 0, position)
    return state


class TestGateApplication:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_explicit_unitaries(self, seed):
        """Applying gates one by one must equal multiplying the explicit
        full unitaries (paper Eq. 3)."""
        num_qubits = 3
        ops = random_ops(num_qubits, 12, seed + 11)
        circuit = build_circuit_from_ops(num_qubits, ops)
        simulator = StatevectorSimulator(num_qubits)
        state = np.zeros(1 << num_qubits, dtype=complex)
        state[0] = 1.0
        for gate in circuit.gates:
            simulator.apply_gate(gate)
            state = full_unitary(gate, num_qubits) @ state
        assert np.max(np.abs(simulator.state - state)) < 1e-12

    def test_initial_state(self):
        simulator = StatevectorSimulator(3, initial_state=0b101)
        assert simulator.amplitude(0b101) == 1.0
        assert simulator.norm() == pytest.approx(1.0)

    def test_norm_preserved(self):
        circuit = build_circuit_from_ops(4, random_ops(4, 40, 3))
        simulator = StatevectorSimulator.simulate(circuit)
        assert simulator.norm() == pytest.approx(1.0, abs=1e-10)

    def test_memory_guard(self):
        with pytest.raises(MemoryError):
            StatevectorSimulator(30, max_qubits=26)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StatevectorSimulator(2).run(QuantumCircuit(3).h(0))

    def test_measure_marker_ignored(self):
        simulator = StatevectorSimulator(1)
        simulator.apply_gate(Gate(GateKind.MEASURE, (0,)))
        assert simulator.amplitude(0) == 1.0


class TestDirectKernelBitIdentity:
    """The direct ``np.dot`` kernel builds the operand ``np.tensordot``
    builds and makes the same call, so every amplitude is the same float."""

    @pytest.mark.parametrize("num_qubits,seed", [(n, s) for n in (3, 5, 8, 11) for s in range(3)])
    def test_random_circuits_every_kind(self, num_qubits, seed):
        ops = random_ops(num_qubits, 80, seed + 101)
        circuit = build_circuit_from_ops(num_qubits, ops)
        simulator = StatevectorSimulator.simulate(circuit)
        assert np.array_equal(simulator.state, tensordot_reference_state(circuit))

    def test_ops_cover_every_gate_kind(self):
        kinds = {gate.kind for seed in range(3)
                 for gate in build_circuit_from_ops(5, random_ops(5, 80, seed + 101)).gates}
        assert kinds == {kind for kind in GateKind
                         if kind not in (GateKind.MEASURE, GateKind.RESET)}

    def test_controls_above_and_below_target(self):
        circuit = QuantumCircuit(6).h(0).h(3).ry_pi_2(5).t(2).rx_pi_2(4)
        circuit.cx(0, 4).cx(5, 1).cz(4, 2).cz(1, 5)
        circuit.ccx([0, 5], 2).ccx([3, 4], 0).ccx([0, 1], 5).ccx([4, 1], 3)
        circuit.swap(0, 5).swap(4, 1)
        circuit.cswap([3], 0, 5).cswap([0], 4, 2).cswap([5], 1, 3)
        circuit.y(1).s(4).sdg(0).tdg(5).z(3).x(2).h(1)
        simulator = StatevectorSimulator.simulate(circuit)
        assert np.array_equal(simulator.state, tensordot_reference_state(circuit))


class TestProbabilities:
    def test_qubit_probability(self):
        circuit = QuantumCircuit(2).h(0)
        simulator = StatevectorSimulator.simulate(circuit)
        assert simulator.probability_of_qubit(0, 0) == pytest.approx(0.5)
        assert simulator.probability_of_qubit(1, 0) == pytest.approx(1.0)

    def test_outcome_probability(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        simulator = StatevectorSimulator.simulate(circuit)
        assert simulator.probability_of_outcome([0, 1], [1, 1]) == pytest.approx(0.5)
        assert simulator.probability_of_outcome([0, 1], [1, 0]) == pytest.approx(0.0)

    def test_distribution_and_marginal(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).x(2)
        simulator = StatevectorSimulator.simulate(circuit)
        joint = simulator.measurement_distribution()
        assert joint[0b001] == pytest.approx(0.5)
        assert joint[0b111] == pytest.approx(0.5)
        marginal = simulator.measurement_distribution([2])
        assert marginal == {1: pytest.approx(1.0)}

    def test_distribution_ordering_convention(self):
        # Qubit listed first is the most significant outcome bit.
        circuit = QuantumCircuit(2).x(1)
        simulator = StatevectorSimulator.simulate(circuit)
        assert simulator.measurement_distribution([1, 0]) == {0b10: pytest.approx(1.0)}

    def test_conflicting_repeated_qubit_has_probability_zero(self):
        simulator = StatevectorSimulator.simulate(QuantumCircuit(2).h(0))
        assert simulator.probability_of_outcome([0, 0], [0, 1]) == 0.0
        assert simulator.probability_of_outcome([0, 1, 0], [1, 0, 0]) == 0.0

    def test_distribution_over_repeated_qubit(self):
        simulator = StatevectorSimulator.simulate(QuantumCircuit(3).x(0))
        assert simulator.measurement_distribution([2, 0, 2]) == {0b010: 1.0}
        assert simulator.measurement_distribution([0, 0]) == {0b11: 1.0}

    def test_equal_repeated_qubit_counts_once(self):
        simulator = StatevectorSimulator.simulate(QuantumCircuit(2).h(0))
        assert simulator.probability_of_outcome([0, 0], [1, 1]) == \
            simulator.probability_of_outcome([0], [1])
        assert simulator.probability_of_outcome([1, 0, 1], [0, 0, 0]) == \
            simulator.probability_of_outcome([0, 1], [0, 0])


class TestProbabilityMemo:
    """``|state|**2`` is squared once per state and dropped by every
    mutation; nothing a caller holds can corrupt it."""

    def test_gate_drops_memo(self):
        simulator = StatevectorSimulator(2)
        assert simulator.probability_of_qubit(0, 0) == 1.0
        simulator.apply_gate(Gate(GateKind.H, (0,)))
        assert simulator._probabilities is None
        assert simulator.probability_of_qubit(0, 0) == pytest.approx(0.5)
        assert simulator.probability_of_outcome([0, 1], [1, 0]) == pytest.approx(0.5)
        simulator.apply_gate(Gate(GateKind.CX, (1,), (0,)))
        assert simulator.probability_of_outcome([0, 1], [1, 0]) == 0.0
        assert simulator.measurement_distribution() == {
            0b00: pytest.approx(0.5), 0b11: pytest.approx(0.5)}

    def test_swap_drops_memo(self):
        simulator = StatevectorSimulator(3, initial_state=0b110)
        assert simulator.probability_of_outcome([0, 2], [1, 0]) == 1.0
        simulator.apply_gate(Gate(GateKind.SWAP, (0, 2)))
        assert simulator.probability_of_outcome([0, 2], [0, 1]) == 1.0
        simulator.apply_gate(Gate(GateKind.CSWAP, (0, 2), (1,)))
        assert simulator.probability_of_outcome([0, 2], [1, 0]) == 1.0

    def test_query_equals_fresh_square_after_each_gate(self):
        circuit = build_circuit_from_ops(5, random_ops(5, 30, 7))
        simulator = StatevectorSimulator(5)
        for gate in circuit.gates:
            simulator.probability_of_qubit(0, 0)
            simulator.apply_gate(gate)
            fresh = np.abs(simulator.state.reshape((2,) * 5)) ** 2
            assert simulator.probability_of_outcome([2, 4], [1, 0]) == \
                float(fresh[:, :, 1, :, 0].sum())

    def test_forced_collapse_drops_memo(self):
        simulator = StatevectorSimulator.simulate(QuantumCircuit(2).h(0).cx(0, 1))
        assert simulator.probability_of_outcome([1], [0]) == pytest.approx(0.5)
        simulator.measure_qubit(0, forced_outcome=1)
        assert simulator._probabilities is None
        assert simulator.probability_of_outcome([1], [0]) == 0.0
        assert simulator.probability_of_outcome([0, 1], [1, 1]) == pytest.approx(1.0)

    def test_caller_arrays_cannot_corrupt_memo(self):
        simulator = StatevectorSimulator.simulate(QuantumCircuit(2).h(0))
        assert simulator.probability_of_qubit(0, 1) == pytest.approx(0.5)
        simulator.state[:] = 0.0
        simulator.probabilities()[:] = 7.0
        assert simulator.probability_of_qubit(0, 1) == pytest.approx(0.5)
        assert simulator.measurement_distribution() == {
            0b00: pytest.approx(0.5), 0b10: pytest.approx(0.5)}


class TestFixedSeedCounts:
    """Dense counts pinned at values recorded before the memo and the
    direct kernel: same probabilities, same RNG draws, same counts."""

    def test_universal_mix_5(self):
        result = repro.run(universal_mix(5, 1), engine="statevector", shots=1000, seed=7)
        assert result.counts == {
            2: 52, 3: 50, 6: 67, 7: 69, 10: 68, 11: 59, 14: 59, 15: 76,
            18: 67, 19: 68, 22: 60, 23: 55, 26: 60, 27: 63, 30: 67, 31: 60}

    def test_universal_mix_7(self):
        result = repro.run(universal_mix(7, 4), engine="statevector", shots=1000, seed=11)
        assert result.counts == {
            8: 61, 9: 74, 10: 53, 11: 70, 40: 61, 41: 60, 42: 62, 43: 72,
            76: 83, 77: 49, 78: 57, 79: 64, 108: 59, 109: 62, 110: 54, 111: 59}

    def test_random_circuit_8_digest(self):
        result = repro.run(generate_random_circuit(8, seed=3), engine="statevector",
                           shots=1000, seed=0)
        assert sum(result.counts.values()) == 1000
        digest = hashlib.sha256(repr(sorted(result.counts.items())).encode()).hexdigest()
        assert digest == (
            "dbde7da9172b08296f9c2a1a7ceeb512e47558b0ac655a73b7fe16ce5a75cc82")


def _service_mix_kind_circuits():
    """RevLib originals and H-variants of at most 16 qubits, plus random
    10-12 qubit circuits: the circuits ``engine="auto"`` sends to the dense
    engine in a service mix."""
    circuits = [circuit for _, original, modified, _ in revlib_suite()
                if original.num_qubits <= 16 for circuit in (original, modified)]
    circuits += [generate_random_circuit(10 + index % 3, seed=70000 + index)
                 for index in range(10)]
    return circuits


class TestExactOracle:
    """The dense engine against the exact bit-sliced engine, so the dense
    path is never checked only against itself."""

    @pytest.mark.parametrize("circuit", _service_mix_kind_circuits(),
                             ids=lambda circuit: f"{circuit.name}_{circuit.num_qubits}q")
    def test_final_probabilities_match_bitslice(self, circuit):
        dense = StatevectorSimulator.simulate(circuit)
        exact = BitSliceSimulator.simulate(circuit)
        assert np.max(np.abs(dense.probabilities() - np.abs(exact.to_numpy()) ** 2)) < 1e-9
        n = circuit.num_qubits
        bits = [(index * 7 + n) % 2 for index in range(n)]
        for width in (1, n // 2, n):
            assert dense.probability_of_outcome(range(width), bits[:width]) == pytest.approx(
                exact.probability_of_outcome(range(width), bits[:width]), abs=1e-9)


def _qubit_lists(num_qubits):
    """The full register, reversed, every other qubit, and ``[2, 0, 2]``."""
    full = list(range(num_qubits))
    return {"full": full, "reversed": full[::-1], "partial": full[::2],
            "repeated": [2, 0, 2]}


class TestMarginalTree:
    """The dense engine's prefix oracle reads one marginal tree per state
    and draws the counts the generic per-prefix query draws."""

    @pytest.mark.parametrize("circuit", _service_mix_kind_circuits(),
                             ids=lambda circuit: f"{circuit.name}_{circuit.num_qubits}q")
    def test_counts_equal_the_default_hook(self, circuit):
        engine = create_engine("statevector")
        engine.run(circuit)
        for qubits in _qubit_lists(circuit.num_qubits).values():
            for seed in (0, 7, 11):
                default = sample_by_descent(Engine.branch_probability(engine, qubits),
                                            len(qubits), 256, np.random.default_rng(seed))
                assert engine.sample(256, qubits, np.random.default_rng(seed)) == default

    @pytest.mark.parametrize("name", ["full", "reversed", "partial", "repeated"])
    def test_prefix_lookups_equal_outcome_queries(self, name):
        simulator = StatevectorSimulator.simulate(
            build_circuit_from_ops(5, random_ops(5, 40, 3)))
        qubits = _qubit_lists(5)[name]
        lookup = simulator.branch_probability(qubits)
        for length in range(1, len(qubits) + 1):
            for index in range(1 << length):
                prefix = tuple((index >> (length - 1 - j)) & 1 for j in range(length))
                assert lookup(prefix) == pytest.approx(
                    simulator.probability_of_outcome(qubits[:length], prefix), abs=1e-15)

    def test_levels_sum_bit_pairs_in_the_callers_order(self):
        simulator = StatevectorSimulator.simulate(
            build_circuit_from_ops(4, random_ops(4, 30, 5)))
        levels = simulator.prefix_marginals([3, 1, 3])
        assert [level.size for level in levels] == [2, 4]
        brute = simulator.probabilities().reshape((2,) * 4).sum(axis=(0, 2)).T.reshape(-1)
        np.testing.assert_allclose(levels[1], brute, rtol=0, atol=1e-15)
        np.testing.assert_allclose(levels[0], brute.reshape(-1, 2).sum(axis=1), rtol=0, atol=1e-15)
        assert simulator.prefix_marginals([]) == []

    def test_full_register_in_order_is_a_view(self):
        simulator = StatevectorSimulator.simulate(QuantumCircuit(3).h(0).cx(0, 2))
        levels = simulator.prefix_marginals([0, 1, 2])
        assert np.shares_memory(levels[-1], simulator._probabilities)
        assert not np.shares_memory(simulator.prefix_marginals([2, 1, 0])[-1],
                                    simulator._probabilities)

    def test_one_tree_memoised_per_state(self):
        simulator = StatevectorSimulator.simulate(QuantumCircuit(3).h(0))
        levels = simulator.prefix_marginals([0, 2])
        assert simulator.prefix_marginals((0, 2)) is levels
        assert simulator.prefix_marginals([0, 2, 0]) is levels
        assert simulator.prefix_marginals([2, 0]) is not levels

    def test_gate_drops_tree(self):
        simulator = StatevectorSimulator(2)
        assert simulator.prefix_marginals([0, 1])[0].tolist() == [1.0, 0.0]
        simulator.apply_gate(Gate(GateKind.X, (0,)))
        assert simulator._marginals is None
        assert simulator.prefix_marginals([0, 1])[0].tolist() == [0.0, 1.0]

    def test_swap_drops_tree(self):
        simulator = StatevectorSimulator(2, initial_state=0b10)
        assert simulator.prefix_marginals([0])[0].tolist() == [0.0, 1.0]
        simulator.apply_gate(Gate(GateKind.SWAP, (0, 1)))
        assert simulator._marginals is None
        assert simulator.prefix_marginals([0])[0].tolist() == [1.0, 0.0]

    def test_forced_collapse_drops_tree(self):
        simulator = StatevectorSimulator.simulate(QuantumCircuit(2).h(0).cx(0, 1))
        assert simulator.prefix_marginals([1])[0] == pytest.approx([0.5, 0.5])
        simulator.measure_qubit(0, forced_outcome=1)
        assert simulator._marginals is None
        assert simulator.prefix_marginals([1])[0] == pytest.approx([0.0, 1.0])

    def test_full_register_sample_adds_at_most_one_vector(self):
        n = 16
        circuit = QuantumCircuit(n)
        for qubit in range(n):
            circuit.h(qubit)
        simulator = StatevectorSimulator.simulate(circuit)
        tracemalloc.start()
        try:
            counts = simulator.sample(256, rng=np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(counts.values()) == 256
        # |state|**2 itself plus at most one more 2**n float64 array.
        vector_bytes = 8 << n
        assert peak < 2 * vector_bytes + vector_bytes // 4


class TestNativeSampling:
    """``StatevectorSimulator.sample`` runs the shared descent, so equal
    generators give the front door's counts."""

    @pytest.mark.parametrize("circuit", [
        universal_mix(5, 1, measure=False), generate_random_circuit(8, seed=3),
        QuantumCircuit(3, name="ghz3").h(0).cx(0, 1).cx(1, 2)], ids=lambda c: c.name)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_native_counts_equal_front_door_counts(self, circuit, seed):
        native = StatevectorSimulator.simulate(circuit).sample(
            1000, rng=np.random.default_rng(seed))
        result = repro.run(circuit, engine="statevector", shots=1000, seed=seed)
        assert native == result.counts

    def test_qubit_subset(self):
        simulator = StatevectorSimulator.simulate(QuantumCircuit(3).x(2).h(0))
        counts = simulator.sample(100, qubits=[2, 1], rng=np.random.default_rng(1))
        assert counts == {0b10: 100}


class TestMeasurement:
    def test_forced_collapse(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        simulator = StatevectorSimulator.simulate(circuit)
        outcome = simulator.measure_qubit(0, forced_outcome=1)
        assert outcome == 1
        assert simulator.probability_of_qubit(1, 1) == pytest.approx(1.0)
        assert simulator.norm() == pytest.approx(1.0)

    def test_zero_probability_collapse_rejected(self):
        simulator = StatevectorSimulator(1)
        with pytest.raises(ValueError):
            simulator.measure_qubit(0, forced_outcome=1)

    def test_random_measurement_statistics(self, rng):
        ones = 0
        for _ in range(200):
            simulator = StatevectorSimulator.simulate(QuantumCircuit(1).h(0))
            ones += simulator.measure_qubit(0, rng=rng)
        assert 60 <= ones <= 140

    def test_sampling(self, rng):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        simulator = StatevectorSimulator.simulate(circuit)
        counts = simulator.sample(500, rng=rng)
        assert set(counts) <= {0b00, 0b11}
        assert sum(counts.values()) == 500
