"""Quantum circuit intermediate representation and file formats.

The IR is deliberately small: a :class:`~repro.circuit.circuit.QuantumCircuit`
is an ordered list of :class:`~repro.circuit.gates.Gate` applications over a
fixed number of qubits, restricted to the gate set the paper supports
(Table I) plus a few exactly-representable extensions (S†, T†, SWAP).

Three file formats are supported:

* :mod:`repro.circuit.qasm` — an OpenQASM 2.0 subset (read/write),
* :mod:`repro.circuit.real_format` — RevLib ``.real`` reversible circuits
  (read/write), used by the Table IV experiments,
* :mod:`repro.circuit.grcs` — the Google random circuit sampling (GRCS) text
  format used by the Table VI supremacy experiments.
"""

from repro._exports import lazy_exports
from repro.circuit.gates import Gate, GateKind, GATE_SPECS, gate_matrix, gate_matrix_exact
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.transforms import (
    cancel_adjacent_inverses,
    clifford_t_summary,
    count_t_gates,
    decompose_multi_control,
    expand_swaps,
)

# The file formats are imported on first access (PEP 562): a run that
# builds its circuit in code never loads a parser.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.circuit.qasm": ("circuit_to_qasm", "circuit_from_qasm"),
    "repro.circuit.real_format": ("circuit_to_real", "circuit_from_real"),
    "repro.circuit.grcs": ("circuit_to_grcs", "circuit_from_grcs"),
})

__all__ = [
    "Gate",
    "GateKind",
    "GATE_SPECS",
    "gate_matrix",
    "gate_matrix_exact",
    "QuantumCircuit",
    "circuit_to_qasm",
    "circuit_from_qasm",
    "circuit_to_real",
    "circuit_from_real",
    "circuit_to_grcs",
    "circuit_from_grcs",
    "cancel_adjacent_inverses",
    "clifford_t_summary",
    "count_t_gates",
    "decompose_multi_control",
    "expand_swaps",
]
