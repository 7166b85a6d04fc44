"""Unit tests for the QuantumCircuit container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import Gate, GateKind


class TestConstruction:
    def test_requires_positive_qubits(self):
        with pytest.raises(ValueError):
            QuantumCircuit(0)

    @pytest.mark.parametrize("width", [2.5, 2.0, True, False, "2", None])
    def test_non_integral_width_rejected(self, width):
        with pytest.raises(ValueError, match="not an integer"):
            QuantumCircuit(width)

    @pytest.mark.parametrize("qubit, clbit", [(1.0, None), (True, None),
                                              (0, 1.0), (0, False), (0, "1")])
    def test_non_integral_measurement_rejected(self, qubit, clbit):
        circuit = QuantumCircuit(2).h(0)
        with pytest.raises(ValueError, match="not an integer"):
            circuit.measure(qubit, clbit)
        assert circuit.measured_qubits == [] and circuit.num_clbits == 0

    def test_numpy_width_and_measurement_stored_as_int(self):
        circuit = QuantumCircuit(np.int64(3)).h(0)
        circuit.measure(np.int32(2), np.uint8(1)).measure(np.int64(0))
        assert circuit.num_qubits == 3 and circuit.num_qubits.__class__ is int
        assert circuit.measured_qubits == [2, 0]
        assert circuit.measured_clbits == [1, 0]
        assert all(index.__class__ is int
                   for index in circuit.measured_qubits + circuit.measured_clbits)
        assert circuit == QuantumCircuit(3).h(0).measure(2, 1).measure(0)

    def test_default_name(self):
        assert QuantumCircuit(3).name == "circuit_3q"
        assert QuantumCircuit(3, name="bell").name == "bell"

    def test_builder_methods_chain(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).t(2).toffoli(0, 1, 2)
        assert circuit.num_gates == 4
        kinds = [gate.kind for gate in circuit]
        assert kinds == [GateKind.H, GateKind.CX, GateKind.T, GateKind.CCX]

    def test_every_builder_produces_expected_kind(self):
        circuit = QuantumCircuit(4)
        circuit.x(0).y(1).z(2).h(3).s(0).sdg(1).t(2).tdg(3)
        circuit.rx_pi_2(0).ry_pi_2(1)
        circuit.cx(0, 1).cz(1, 2).swap(2, 3)
        circuit.ccx([0, 1], 2).cswap([0], 1, 2).fredkin(3, 0, 1)
        expected = ["x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx_pi_2",
                    "ry_pi_2", "cx", "cz", "swap", "ccx", "cswap", "cswap"]
        assert [gate.kind.value for gate in circuit] == expected

    def test_out_of_range_qubits_rejected(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError):
            circuit.h(2)
        with pytest.raises(ValueError):
            circuit.cx(0, 5)
        with pytest.raises(ValueError):
            circuit.append(Gate(GateKind.X, (7,)))

    def test_measure_tracking(self):
        circuit = QuantumCircuit(3).h(0)
        circuit.measure(1).measure(1).measure(0)
        assert circuit.measured_qubits == [1, 0]
        circuit.measure_all()
        assert sorted(circuit.measured_qubits) == [0, 1, 2]


class TestInspection:
    def test_gate_counts(self):
        circuit = QuantumCircuit(2).h(0).h(1).cx(0, 1).t(0)
        assert circuit.gate_counts() == {"h": 2, "cx": 1, "t": 1}
        assert circuit.num_gates == 4
        assert len(circuit) == 4

    def test_two_qubit_gate_count(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).ccx([0, 1], 2).z(2)
        assert circuit.num_two_qubit_gates() == 2

    def test_depth(self):
        circuit = QuantumCircuit(3)
        assert circuit.depth() == 0
        circuit.h(0).h(1).h(2)          # depth 1: all parallel
        assert circuit.depth() == 1
        circuit.cx(0, 1)                # depth 2
        circuit.cx(1, 2)                # depth 3
        circuit.x(0)                    # still depth 3 (parallel with cx(1,2))
        assert circuit.depth() == 3

    def test_is_clifford(self):
        assert QuantumCircuit(2).h(0).cx(0, 1).s(1).is_clifford()
        assert not QuantumCircuit(2).h(0).t(1).is_clifford()
        assert not QuantumCircuit(3).ccx([0, 1], 2).is_clifford()

    def test_uses_only_paper_gates(self):
        assert QuantumCircuit(2).h(0).t(0).cx(0, 1).uses_only_paper_gates()
        assert not QuantumCircuit(2).sdg(0).uses_only_paper_gates()
        assert not QuantumCircuit(2).swap(0, 1).uses_only_paper_gates()

    def test_is_reversible_classical(self):
        assert QuantumCircuit(3).x(0).cx(0, 1).ccx([0, 1], 2).is_reversible_classical()
        assert not QuantumCircuit(2).h(0).is_reversible_classical()

    def test_qubits_touched(self):
        circuit = QuantumCircuit(5).h(1).cx(1, 3)
        assert circuit.qubits_touched() == [1, 3]

    def test_indexing_and_iteration(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        assert circuit[0].kind is GateKind.H
        assert circuit[-1].kind is GateKind.CX
        assert [gate.kind for gate in circuit] == [GateKind.H, GateKind.CX]

    def test_summary_contains_counts(self):
        summary = QuantumCircuit(2, name="bell").h(0).cx(0, 1).summary()
        assert "bell" in summary
        assert "2 qubits" in summary
        assert "h:1" in summary and "cx:1" in summary

    def test_repr(self):
        assert "num_qubits=2" in repr(QuantumCircuit(2).h(0))


class TestCombination:
    def test_compose(self):
        first = QuantumCircuit(3, name="a").h(0)
        second = QuantumCircuit(2, name="b").cx(0, 1)
        combined = first.compose(second)
        assert combined.num_qubits == 3
        assert [gate.kind for gate in combined] == [GateKind.H, GateKind.CX]

    def test_compose_larger_rejected(self):
        with pytest.raises(ValueError):
            QuantumCircuit(2).compose(QuantumCircuit(3))

    def test_inverse_reverses_and_inverts(self):
        circuit = QuantumCircuit(2).h(0).s(0).cx(0, 1).t(1)
        inverse = circuit.inverse()
        kinds = [gate.kind for gate in inverse]
        assert kinds == [GateKind.TDG, GateKind.CX, GateKind.SDG, GateKind.H]

    def test_inverse_round_trip_is_identity(self):
        from repro.baselines.statevector import StatevectorSimulator

        circuit = QuantumCircuit(3).h(0).s(1).cx(0, 1).t(2).ccx([0, 1], 2)
        round_trip = circuit.compose(circuit.inverse())
        state = StatevectorSimulator.simulate(round_trip).state
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        assert np.max(np.abs(state - expected)) < 1e-12

    def test_copy_is_independent(self):
        circuit = QuantumCircuit(2).h(0)
        duplicate = circuit.copy()
        duplicate.x(1)
        assert circuit.num_gates == 1
        assert duplicate.num_gates == 2
        assert circuit == circuit.copy()

    def test_equality(self):
        assert QuantumCircuit(2).h(0) == QuantumCircuit(2).h(0)
        assert QuantumCircuit(2).h(0) != QuantumCircuit(2).h(1)
        assert QuantumCircuit(2).h(0) != QuantumCircuit(3).h(0)
