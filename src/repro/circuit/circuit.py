"""The :class:`QuantumCircuit` container.

A circuit is an ordered sequence of :class:`~repro.circuit.gates.Gate`
applications on ``num_qubits`` qubits, optionally followed (or interleaved)
with measurement markers.  The class offers a fluent builder API
(``circuit.h(0).cx(0, 1)``), structural statistics used by the benchmark
harness (gate counts, depth, two-qubit gate count), composition, inversion
and validation against the paper's gate set.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.circuit.gates import (
    GATE_SPECS,
    PAPER_GATE_KINDS,
    Gate,
    GateKind,
    _as_integer,
    is_clifford_gate,
)


class QuantumCircuit:
    """An ordered list of gates over a fixed register of qubits.

    Parameters
    ----------
    num_qubits:
        Size of the qubit register.  Qubit 0 is, by the paper's convention,
        the most significant bit of a basis-state index.
    name:
        Optional human-readable name used by the harness when reporting.
    """

    def __init__(self, num_qubits: int, name: str = ""):
        num_qubits = _as_integer(num_qubits, "qubit count")
        if num_qubits <= 0:
            raise ValueError("a circuit needs at least one qubit")
        self.num_qubits = num_qubits
        self.name = name or f"circuit_{num_qubits}q"
        self._gates: List[Gate] = []
        #: Qubits marked for final measurement, in measurement order.
        self.measured_qubits: List[int] = []
        #: Classical bit each final measurement writes to, parallel to
        #: :attr:`measured_qubits` (``measure q[i] -> c[j]``).
        self.measured_clbits: List[int] = []
        #: Width of the classical register (grows as clbits are referenced).
        self.num_clbits: int = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _check_qubits(self, qubits: Iterable[int]) -> None:
        for qubit in qubits:
            if not 0 <= qubit < self.num_qubits:
                raise ValueError(
                    f"qubit {qubit} out of range for {self.num_qubits}-qubit circuit")

    def _touch_clbit(self, clbit: int) -> None:
        if clbit < 0:
            raise ValueError("classical bit indices must be non-negative")
        self.num_clbits = max(self.num_clbits, clbit + 1)

    def append(self, gate: Gate) -> "QuantumCircuit":
        """Append a pre-built :class:`Gate`."""
        self._check_qubits(gate.qubits)
        for clbit in gate.clbits:
            self._touch_clbit(clbit)
        self._gates.append(gate)
        return self

    def add(self, kind: GateKind, targets: Sequence[int],
            controls: Sequence[int] = (),
            condition: Optional[int] = None) -> "QuantumCircuit":
        """Append a gate by kind, targets and controls.

        ``condition`` makes the gate classically controlled: it only executes
        when the classical register equals ``condition`` (OpenQASM
        ``if(c==v)`` semantics; clbit 0 is the least-significant bit).
        """
        return self.append(Gate(kind, tuple(targets), tuple(controls),
                                condition=condition))

    # -- single-qubit builders ------------------------------------------ #
    def x(self, qubit: int) -> "QuantumCircuit":
        """Pauli-X on ``qubit``."""
        return self.add(GateKind.X, [qubit])

    def y(self, qubit: int) -> "QuantumCircuit":
        """Pauli-Y on ``qubit``."""
        return self.add(GateKind.Y, [qubit])

    def z(self, qubit: int) -> "QuantumCircuit":
        """Pauli-Z on ``qubit``."""
        return self.add(GateKind.Z, [qubit])

    def h(self, qubit: int) -> "QuantumCircuit":
        """Hadamard on ``qubit``."""
        return self.add(GateKind.H, [qubit])

    def s(self, qubit: int) -> "QuantumCircuit":
        """Phase gate S on ``qubit``."""
        return self.add(GateKind.S, [qubit])

    def sdg(self, qubit: int) -> "QuantumCircuit":
        """Inverse phase gate S-dagger on ``qubit``."""
        return self.add(GateKind.SDG, [qubit])

    def t(self, qubit: int) -> "QuantumCircuit":
        """T gate on ``qubit``."""
        return self.add(GateKind.T, [qubit])

    def tdg(self, qubit: int) -> "QuantumCircuit":
        """T-dagger gate on ``qubit``."""
        return self.add(GateKind.TDG, [qubit])

    def rx_pi_2(self, qubit: int) -> "QuantumCircuit":
        """Rx(pi/2) on ``qubit``."""
        return self.add(GateKind.RX_PI_2, [qubit])

    def ry_pi_2(self, qubit: int) -> "QuantumCircuit":
        """Ry(pi/2) on ``qubit``."""
        return self.add(GateKind.RY_PI_2, [qubit])

    # -- multi-qubit builders ------------------------------------------- #
    def cx(self, control: int, target: int) -> "QuantumCircuit":
        """CNOT with ``control`` and ``target``."""
        return self.add(GateKind.CX, [target], [control])

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-Z."""
        return self.add(GateKind.CZ, [target], [control])

    def ccx(self, controls: Sequence[int], target: int) -> "QuantumCircuit":
        """Toffoli with an arbitrary number of controls."""
        return self.add(GateKind.CCX, [target], controls)

    def toffoli(self, control_a: int, control_b: int, target: int) -> "QuantumCircuit":
        """Standard two-control Toffoli."""
        return self.ccx([control_a, control_b], target)

    def swap(self, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        """SWAP two qubits."""
        return self.add(GateKind.SWAP, [qubit_a, qubit_b])

    def cswap(self, controls: Sequence[int], qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        """Fredkin (controlled SWAP) with an arbitrary number of controls."""
        return self.add(GateKind.CSWAP, [qubit_a, qubit_b], controls)

    def fredkin(self, control: int, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        """Standard single-control Fredkin."""
        return self.cswap([control], qubit_a, qubit_b)

    def measure(self, qubit: int, clbit: Optional[int] = None) -> "QuantumCircuit":
        """Mark ``qubit`` for final measurement, recording into ``clbit``.

        This is the *terminal* measurement marker (``measure q[i] -> c[j];``
        at the end of an OpenQASM program): the state is not collapsed during
        execution, and shot sampling draws the marked qubits jointly from the
        final state.  For a collapsing measurement in the middle of a circuit
        use :meth:`measure_mid` instead.  ``clbit`` defaults to the qubit
        index.  Repeating an existing ``(qubit, clbit)`` pair is a no-op;
        measuring an already marked qubit into a *different* clbit adds a
        second mapping (both clbits receive the qubit's outcome, as in
        OpenQASM).
        """
        qubit = _as_integer(qubit, "qubit index")
        self._check_qubits([qubit])
        clbit = qubit if clbit is None else _as_integer(clbit, "classical bit index")
        if (qubit, clbit) not in zip(self.measured_qubits, self.measured_clbits):
            self._touch_clbit(clbit)
            self.measured_qubits.append(qubit)
            self.measured_clbits.append(clbit)
        return self

    def measure_all(self) -> "QuantumCircuit":
        """Mark every qubit for final measurement."""
        for qubit in range(self.num_qubits):
            self.measure(qubit)
        return self

    def measure_mid(self, qubit: int, clbit: Optional[int] = None) -> "QuantumCircuit":
        """Measure ``qubit`` *now*, collapsing the state, into ``clbit``.

        Appends a real :attr:`GateKind.MEASURE` instruction to the gate
        stream: when the circuit is executed the state collapses to the
        sampled outcome, the outcome lands in the classical register, and
        later gates may be conditioned on it (``condition=`` / ``if(c==v)``).
        ``clbit`` defaults to the qubit index.
        """
        clbit = qubit if clbit is None else clbit
        return self.append(Gate(GateKind.MEASURE, (qubit,), clbits=(clbit,)))

    def reset(self, qubit: int) -> "QuantumCircuit":
        """Reset ``qubit`` to ``|0>`` mid-circuit (measure, then flip on 1)."""
        return self.append(Gate(GateKind.RESET, (qubit,)))

    # ------------------------------------------------------------------ #
    # combination
    # ------------------------------------------------------------------ #
    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Return a new circuit running ``self`` then ``other``.

        ``other`` may not use more qubits than ``self``.
        """
        if other.num_qubits > self.num_qubits:
            raise ValueError("cannot compose a larger circuit onto a smaller one")
        combined = QuantumCircuit(self.num_qubits, name=f"{self.name}+{other.name}")
        for gate in self._gates:
            combined.append(gate)
        for gate in other.gates:
            combined.append(gate)
        for qubit, clbit in (list(zip(self.measured_qubits, self.measured_clbits))
                             + list(zip(other.measured_qubits, other.measured_clbits))):
            combined.measure(qubit, clbit)
        combined.num_clbits = max(combined.num_clbits, self.num_clbits,
                                  other.num_clbits)
        return combined

    def inverse(self) -> "QuantumCircuit":
        """Return the exact inverse circuit (gates reversed and inverted)."""
        inv = QuantumCircuit(self.num_qubits, name=f"{self.name}_inv")
        for gate in reversed(self._gates):
            inv.append(gate.inverse())
        return inv

    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        """A shallow copy (gates are immutable, so sharing them is safe)."""
        duplicate = QuantumCircuit(self.num_qubits, name=name or self.name)
        duplicate._gates = list(self._gates)
        duplicate.measured_qubits = list(self.measured_qubits)
        duplicate.measured_clbits = list(self.measured_clbits)
        duplicate.num_clbits = self.num_clbits
        return duplicate

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def gates(self) -> Tuple[Gate, ...]:
        """The gate sequence as an immutable tuple."""
        return tuple(self._gates)

    @property
    def num_gates(self) -> int:
        """Total number of gates."""
        return len(self._gates)

    def gate_counts(self) -> Dict[str, int]:
        """Histogram of gate kinds (by name)."""
        return dict(Counter(gate.kind.value for gate in self._gates))

    def num_two_qubit_gates(self) -> int:
        """Number of gates touching two or more qubits."""
        return sum(1 for gate in self._gates if gate.is_two_qubit_or_more)

    def depth(self) -> int:
        """Circuit depth: length of the longest qubit-dependency chain."""
        frontier = [0] * self.num_qubits
        for gate in self._gates:
            level = max(frontier[q] for q in gate.qubits) + 1
            for qubit in gate.qubits:
                frontier[qubit] = level
        return max(frontier) if frontier else 0

    def is_clifford(self) -> bool:
        """True if every gate is a Clifford gate (stabilizer-simulable)."""
        return all(is_clifford_gate(gate) for gate in self._gates)

    def has_dynamic_ops(self) -> bool:
        """True when the circuit contains mid-circuit measurement, reset or
        classically-conditioned gates (i.e. executing it involves classical
        state and randomness, not just unitaries)."""
        return any(gate.kind in (GateKind.MEASURE, GateKind.RESET)
                   or gate.condition is not None
                   for gate in self._gates)

    def final_measurement_map(self) -> List[Tuple[int, int]]:
        """The terminal ``(qubit, clbit)`` measurement pairs, in marker order
        (empty when the circuit marks no final measurements)."""
        return list(zip(self.measured_qubits, self.measured_clbits))

    def uses_only_paper_gates(self) -> bool:
        """True if every gate kind appears in the paper's Table I."""
        return all(gate.kind in PAPER_GATE_KINDS for gate in self._gates)

    def is_reversible_classical(self) -> bool:
        """True if the circuit uses only classical reversible gates
        (X / CNOT / Toffoli / Fredkin / SWAP), i.e. a RevLib-style circuit."""
        classical = {GateKind.X, GateKind.CX, GateKind.CCX,
                     GateKind.CSWAP, GateKind.SWAP}
        return all(gate.kind in classical for gate in self._gates)

    def qubits_touched(self) -> List[int]:
        """Sorted list of qubits referenced by at least one gate."""
        touched = set()
        for gate in self._gates:
            touched.update(gate.qubits)
        return sorted(touched)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def __getitem__(self, index):
        return self._gates[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return (self.num_qubits == other.num_qubits
                and self._gates == other._gates
                and self.measured_qubits == other.measured_qubits
                and self.measured_clbits == other.measured_clbits)

    def __repr__(self) -> str:
        return (f"QuantumCircuit(name={self.name!r}, num_qubits={self.num_qubits}, "
                f"num_gates={self.num_gates})")

    def summary(self) -> str:
        """A short multi-line human-readable summary."""
        counts = ", ".join(f"{name}:{count}" for name, count in sorted(self.gate_counts().items()))
        return (f"{self.name}: {self.num_qubits} qubits, {self.num_gates} gates, "
                f"depth {self.depth()}\n  [{counts}]")
