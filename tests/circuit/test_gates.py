"""Unit tests for gate specifications, matrices and the Gate dataclass."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.gates import (
    GATE_SPECS,
    PAPER_GATE_KINDS,
    Gate,
    GateKind,
    full_unitary,
    gate_matrix,
    gate_matrix_exact,
    is_clifford_gate,
)

SINGLE_QUBIT_KINDS = [
    GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.S, GateKind.SDG,
    GateKind.T, GateKind.TDG, GateKind.RX_PI_2, GateKind.RY_PI_2,
]


class TestGateSpecs:
    def test_every_kind_has_a_spec(self):
        for kind in GateKind:
            assert kind in GATE_SPECS
            assert GATE_SPECS[kind].kind is kind

    @pytest.mark.parametrize("kind", SINGLE_QUBIT_KINDS)
    def test_base_matrices_are_unitary(self, kind):
        matrix = gate_matrix(kind)
        assert matrix.shape == (2, 2)
        assert np.allclose(matrix @ matrix.conj().T, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("kind", SINGLE_QUBIT_KINDS)
    def test_exact_and_float_matrices_agree(self, kind):
        exact = gate_matrix_exact(kind)
        matrix = gate_matrix(kind)
        for row in range(2):
            for column in range(2):
                assert abs(exact[row][column].to_complex() - matrix[row, column]) < 1e-12

    def test_known_matrices(self):
        assert np.allclose(gate_matrix(GateKind.X), [[0, 1], [1, 0]])
        assert np.allclose(gate_matrix(GateKind.Z), [[1, 0], [0, -1]])
        assert np.allclose(gate_matrix(GateKind.S), [[1, 0], [0, 1j]])
        assert np.allclose(gate_matrix(GateKind.H),
                           np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        assert np.allclose(gate_matrix(GateKind.T),
                           [[1, 0], [0, np.exp(1j * np.pi / 4)]])

    def test_k_increments(self):
        assert GATE_SPECS[GateKind.H].k_increment == 1
        assert GATE_SPECS[GateKind.RX_PI_2].k_increment == 1
        assert GATE_SPECS[GateKind.RY_PI_2].k_increment == 1
        assert GATE_SPECS[GateKind.T].k_increment == 0
        assert GATE_SPECS[GateKind.CX].k_increment == 0

    def test_imaginary_classification_matches_paper(self):
        # Paper: Y, S, T and Rx(pi/2) couple the bit-planes; X, Z, H, Ry,
        # CNOT, CZ, Toffoli and Fredkin do not.
        assert GATE_SPECS[GateKind.Y].has_imaginary
        assert GATE_SPECS[GateKind.S].has_imaginary
        assert GATE_SPECS[GateKind.T].has_imaginary
        assert GATE_SPECS[GateKind.RX_PI_2].has_imaginary
        for kind in (GateKind.X, GateKind.Z, GateKind.H, GateKind.RY_PI_2,
                     GateKind.CX, GateKind.CZ, GateKind.CCX, GateKind.CSWAP):
            assert not GATE_SPECS[kind].has_imaginary

    def test_paper_gate_set_contents(self):
        assert GateKind.SDG not in PAPER_GATE_KINDS
        assert GateKind.TDG not in PAPER_GATE_KINDS
        assert GateKind.SWAP not in PAPER_GATE_KINDS
        for kind in (GateKind.X, GateKind.H, GateKind.T, GateKind.CCX, GateKind.CSWAP):
            assert kind in PAPER_GATE_KINDS

    def test_matrix_requests_for_matrixless_kinds_fail(self):
        with pytest.raises(ValueError):
            gate_matrix(GateKind.SWAP)
        with pytest.raises(ValueError):
            gate_matrix_exact(GateKind.MEASURE)


class TestGateValidation:
    def test_valid_gates(self):
        Gate(GateKind.X, (0,))
        Gate(GateKind.CX, (1,), (0,))
        Gate(GateKind.CCX, (2,), (0, 1, 3))
        Gate(GateKind.CSWAP, (1, 2), (0,))
        Gate(GateKind.SWAP, (0, 3))

    def test_wrong_target_count(self):
        with pytest.raises(ValueError):
            Gate(GateKind.X, (0, 1))
        with pytest.raises(ValueError):
            Gate(GateKind.SWAP, (0,))

    def test_wrong_control_count(self):
        with pytest.raises(ValueError):
            Gate(GateKind.CX, (0,))
        with pytest.raises(ValueError):
            Gate(GateKind.CX, (0,), (1, 2))
        with pytest.raises(ValueError):
            Gate(GateKind.CCX, (0,))

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            Gate(GateKind.CX, (0,), (0,))
        with pytest.raises(ValueError):
            Gate(GateKind.SWAP, (1, 1))

    def test_negative_qubits_rejected(self):
        with pytest.raises(ValueError):
            Gate(GateKind.X, (-1,))

    @pytest.mark.parametrize("bad", [1.0, True, False, np.float64(1.0), np.True_, "1", None],
                             ids=repr)
    @pytest.mark.parametrize("field", ["target", "control", "clbit", "condition"])
    def test_bool_or_non_integral_index_rejected(self, field, bad):
        gate = {"target": lambda: Gate(GateKind.H, (bad,)),
                "control": lambda: Gate(GateKind.CX, (2,), (bad,)),
                "clbit": lambda: Gate(GateKind.MEASURE, (0,), clbits=(bad,)),
                "condition": lambda: Gate(GateKind.X, (0,), condition=bad)}[field]
        if field == "condition" and bad is None:
            assert gate().condition is None  # None means unconditional
            return
        with pytest.raises(ValueError, match="not an integer"):
            gate()

    def test_negative_clbit_and_condition_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Gate(GateKind.MEASURE, (0,), clbits=(-1,))
        with pytest.raises(ValueError, match="negative"):
            Gate(GateKind.X, (0,), condition=-2)

    def test_integral_indices_are_stored_as_int(self):
        gate = Gate(GateKind.CCX, (np.int64(3),), (np.int32(0), np.uint8(1)))
        measure = Gate(GateKind.MEASURE, (np.int16(2),), clbits=(np.int64(1),))
        conditioned = Gate(GateKind.X, (0,), condition=np.int64(5))
        for value in gate.targets + gate.controls + measure.targets + measure.clbits:
            assert value.__class__ is int
        assert conditioned.condition.__class__ is int
        assert gate == Gate(GateKind.CCX, (3,), (0, 1))
        assert hash(gate) == hash(Gate(GateKind.CCX, (3,), (0, 1)))

    def test_qubits_property(self):
        gate = Gate(GateKind.CCX, (3,), (0, 1))
        assert gate.qubits == (0, 1, 3)
        assert gate.is_two_qubit_or_more
        assert not Gate(GateKind.H, (0,)).is_two_qubit_or_more

    def test_str(self):
        assert "cx" in str(Gate(GateKind.CX, (1,), (0,)))


class TestGateInverse:
    @pytest.mark.parametrize("kind", [GateKind.X, GateKind.Y, GateKind.Z, GateKind.H,
                                      GateKind.SWAP])
    def test_self_inverse(self, kind):
        targets = (0, 1) if kind is GateKind.SWAP else (0,)
        gate = Gate(kind, targets)
        assert gate.inverse() == gate

    def test_s_t_inverses(self):
        assert Gate(GateKind.S, (0,)).inverse().kind is GateKind.SDG
        assert Gate(GateKind.SDG, (0,)).inverse().kind is GateKind.S
        assert Gate(GateKind.T, (0,)).inverse().kind is GateKind.TDG
        assert Gate(GateKind.TDG, (0,)).inverse().kind is GateKind.T

    def test_rx_has_no_inverse_in_set(self):
        with pytest.raises(ValueError):
            Gate(GateKind.RX_PI_2, (0,)).inverse()

    @pytest.mark.parametrize("kind", SINGLE_QUBIT_KINDS)
    def test_inverse_matrix_is_adjoint(self, kind):
        gate = Gate(kind, (0,))
        try:
            inverse = gate.inverse()
        except ValueError:
            pytest.skip("no inverse inside the supported set")
        product = gate_matrix(inverse.kind) @ gate_matrix(kind)
        assert np.allclose(product, np.eye(2), atol=1e-12)


class TestFullUnitary:
    def test_cnot_unitary(self):
        gate = Gate(GateKind.CX, (1,), (0,))
        expected = np.array([[1, 0, 0, 0],
                             [0, 1, 0, 0],
                             [0, 0, 0, 1],
                             [0, 0, 1, 0]], dtype=complex)
        assert np.allclose(full_unitary(gate, 2), expected)

    def test_cz_unitary(self):
        gate = Gate(GateKind.CZ, (1,), (0,))
        expected = np.diag([1, 1, 1, -1]).astype(complex)
        assert np.allclose(full_unitary(gate, 2), expected)

    def test_toffoli_unitary_matches_paper_table1(self):
        gate = Gate(GateKind.CCX, (2,), (0, 1))
        expected = np.eye(8, dtype=complex)
        expected[[6, 7]] = expected[[7, 6]]
        assert np.allclose(full_unitary(gate, 3), expected)

    def test_fredkin_unitary_matches_paper_table1(self):
        gate = Gate(GateKind.CSWAP, (1, 2), (0,))
        expected = np.eye(8, dtype=complex)
        expected[[5, 6]] = expected[[6, 5]]
        assert np.allclose(full_unitary(gate, 3), expected)

    @pytest.mark.parametrize("kind", SINGLE_QUBIT_KINDS)
    def test_single_qubit_embedding(self, kind):
        gate = Gate(kind, (1,))
        expected = np.kron(np.eye(2), gate_matrix(kind))
        assert np.allclose(full_unitary(gate, 2), expected)

    @pytest.mark.parametrize("num_qubits", [2, 3])
    def test_full_unitaries_are_unitary(self, num_qubits):
        gates = [Gate(GateKind.H, (0,)), Gate(GateKind.CX, (1,), (0,)),
                 Gate(GateKind.SWAP, (0, num_qubits - 1))]
        for gate in gates:
            unitary = full_unitary(gate, num_qubits)
            assert np.allclose(unitary @ unitary.conj().T,
                               np.eye(1 << num_qubits), atol=1e-12)


class TestCliffordClassification:
    def test_clifford_gates(self):
        assert is_clifford_gate(Gate(GateKind.H, (0,)))
        assert is_clifford_gate(Gate(GateKind.S, (0,)))
        assert is_clifford_gate(Gate(GateKind.CX, (1,), (0,)))
        assert is_clifford_gate(Gate(GateKind.CZ, (1,), (0,)))

    def test_non_clifford_gates(self):
        assert not is_clifford_gate(Gate(GateKind.T, (0,)))
        assert not is_clifford_gate(Gate(GateKind.CCX, (2,), (0, 1)))
        assert not is_clifford_gate(Gate(GateKind.CSWAP, (1, 2), (0,)))

    def test_degenerate_control_counts(self):
        # A single-control "Toffoli" is just a CNOT: Clifford.
        assert is_clifford_gate(Gate(GateKind.CCX, (1,), (0,)))
        # The uncontrolled swap is its own (Clifford) gate kind.
        assert is_clifford_gate(Gate(GateKind.SWAP, (0, 1)))
