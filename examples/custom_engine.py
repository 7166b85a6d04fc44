"""Registering a third-party engine behind the unified engine API.

Run with::

    python examples/custom_engine.py

The example implements a deliberately tiny "sparse dictionary" simulator —
amplitudes kept in a ``{basis_index: complex}`` mapping, good exactly when
few basis states are occupied — and plugs it into the registry with
:func:`repro.register_engine`.  Once registered it is a first-class citizen:

* ``repro.run(circuit, engine="sparse-dict")`` executes it under the same
  TO/MO limit wrapper and outcome classification as the built-ins,
* its declared :class:`~repro.Capabilities` make it eligible for
  ``engine="auto"`` selection,
* it can ride in ``repro.run_sweep`` grids next to the built-in engines.

The point is the integration surface, not the simulator: ``prepare`` /
``apply`` / ``probability`` / ``memory_nodes`` (plus a ``Capabilities``
declaration) are all a backend needs.
"""

from __future__ import annotations

import cmath
from typing import Dict, Optional, Sequence

import repro
from repro import Capabilities, Engine, QuantumCircuit, ResourceLimits, register_engine
from repro.circuit.gates import Gate, GateKind, gate_matrix
from repro.engines.base import check_outcome_query


@register_engine("sparse-dict", aliases=("sparse",))
class SparseDictEngine(Engine):
    """Amplitudes in a dictionary keyed by basis index.

    Memory scales with the number of occupied basis states, so the engine
    shines on low-entanglement circuits and degrades exponentially on dense
    superpositions — an honest ``selection_priority`` places it after the
    built-ins so ``"auto"`` never prefers it, while explicit callers can
    still pick it by name.
    """

    capabilities = Capabilities(
        name="sparse-dict",
        label="Sparse dictionary",
        supported_gates=frozenset(GateKind) - {GateKind.MEASURE, GateKind.RESET},
        exact=False,
        selection_priority=90,
        description="Toy sparse-amplitude simulator (example engine).",
        # No collapse implementation: mid-circuit measurement and reset are
        # honestly declared unsupported.  Shot *sampling* still works — the
        # Engine base class samples any engine with a correct probability()
        # through the shared conditional-probability descent.
        supports_measurement=False,
    )

    def __init__(self) -> None:
        super().__init__()
        self._amplitudes: Dict[int, complex] = {}
        self._n = 0

    # -- lifecycle ------------------------------------------------------- #
    def prepare(self, circuit: QuantumCircuit,
                limits: Optional[ResourceLimits] = None) -> None:
        super().prepare(circuit, limits)
        self._n = circuit.num_qubits
        self._amplitudes = {0: 1.0 + 0j}

    def apply(self, gate: Gate) -> None:
        if gate.kind is GateKind.MEASURE:
            return
        self.ensure_supported(gate)
        if gate.kind in (GateKind.SWAP, GateKind.CSWAP):
            self._apply_swap(gate)
        else:
            self._apply_single(gate)
        self._count_gate(gate)

    # -- gate mechanics (qubit 0 = most significant bit, repo convention) - #
    def _bit(self, index: int, qubit: int) -> int:
        return (index >> (self._n - 1 - qubit)) & 1

    def _flip(self, index: int, qubit: int) -> int:
        return index ^ (1 << (self._n - 1 - qubit))

    def _apply_single(self, gate: Gate) -> None:
        matrix = gate_matrix(gate.kind)
        target = gate.targets[0]
        updated: Dict[int, complex] = {}
        for index, amplitude in self._amplitudes.items():
            if gate.controls and not all(self._bit(index, c) for c in gate.controls):
                updated[index] = updated.get(index, 0j) + amplitude
                continue
            bit = self._bit(index, target)
            partner = self._flip(index, target)
            row0 = index if bit == 0 else partner
            row1 = partner if bit == 0 else index
            updated[row0] = updated.get(row0, 0j) + matrix[0, bit] * amplitude
            updated[row1] = updated.get(row1, 0j) + matrix[1, bit] * amplitude
        self._amplitudes = {index: amplitude for index, amplitude in updated.items()
                            if abs(amplitude) > 1e-14}

    def _apply_swap(self, gate: Gate) -> None:
        qubit_a, qubit_b = gate.targets
        updated: Dict[int, complex] = {}
        for index, amplitude in self._amplitudes.items():
            destination = index
            if (all(self._bit(index, c) for c in gate.controls)
                    and self._bit(index, qubit_a) != self._bit(index, qubit_b)):
                destination = self._flip(self._flip(index, qubit_a), qubit_b)
            updated[destination] = updated.get(destination, 0j) + amplitude
        self._amplitudes = updated

    # -- queries --------------------------------------------------------- #
    def probability(self, qubits: Sequence[int], bits: Sequence[int]) -> float:
        check_outcome_query(self.num_qubits, qubits, bits)
        total = 0.0
        for index, amplitude in self._amplitudes.items():
            if all(self._bit(index, q) == int(b) for q, b in zip(qubits, bits)):
                total += abs(amplitude) ** 2
        return total

    def memory_nodes(self) -> int:
        return max(1, len(self._amplitudes))

    @property
    def num_qubits(self) -> int:
        return self._n


def main() -> None:
    print("Registered engines:", ", ".join(repro.available_engines()))
    print()

    ghz = QuantumCircuit(10, name="ghz10").h(0)
    for qubit in range(9):
        ghz.cx(qubit, qubit + 1)

    # The custom engine through the same front door as the built-ins.
    result = repro.run(ghz, engine="sparse-dict",
                       limits=ResourceLimits(max_seconds=30.0))
    print(f"sparse-dict on {ghz.name}: status={result.status}, "
          f"P[all zeros]={result.final_probability:.3f}, "
          f"occupied states={result.peak_memory_nodes}")

    # Shot sampling comes for free: the Engine base class drives the shared
    # conditional-probability descent over this engine's probability().
    sampled = repro.run(ghz, engine="sparse-dict", shots=1024, seed=0,
                        limits=ResourceLimits(max_seconds=30.0))
    print(f"sparse-dict sampling {ghz.name}: counts={sampled.counts_bitstrings()}")

    # Same circuit swept across three engines through the same grid executor
    # (jobs=1 here: an engine registered inside a script is only guaranteed
    # to exist in forked workers, so examples stay serial for portability).
    results = repro.run_sweep([ghz], engines=("sparse-dict", "bitslice", "stabilizer"),
                              limits=ResourceLimits(max_seconds=30.0), jobs=1)
    for row in results:
        print(f"  {row.engine:<12} {row.status:<4} "
              f"P={row.final_probability:.3f} mem={row.peak_memory_nodes}")
    print()

    # The limit wrapper treats custom engines exactly like built-ins: a dense
    # superposition blows the sparse dictionary up, and a node budget turns
    # that into the paper's MO outcome instead of an interpreter stall.
    dense = QuantumCircuit(18, name="dense18")
    for qubit in range(18):
        dense.h(qubit)
    result = repro.run(dense, engine="sparse-dict",
                       limits=ResourceLimits(max_seconds=30.0, max_nodes=10_000))
    print(f"sparse-dict on {dense.name} with a 10k-state budget: "
          f"status={result.status}")

    # Honest capabilities keep "auto" away from the toy engine.
    print("auto still selects:", repro.select_engine(dense).upper(),
          "for the dense circuit")

    amp = cmath.sqrt(0.5)
    print(f"(GHZ amplitudes are ±{amp.real:.3f}, as the sparse table stores them)")


if __name__ == "__main__":
    main()
