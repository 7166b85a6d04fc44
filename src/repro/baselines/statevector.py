"""Dense numpy state-vector simulator.

This is the "array-based" simulator class discussed in the paper's
introduction (Quipper / LIQUi|> / QX / ProjectQ style): the full
``2**n``-entry complex vector is held in memory.  A gate is one ``np.dot`` of
its 2x2 matrix with the control-1 subspace laid out target-first as a
``(2, N)`` operand (the operand and call ``np.tensordot`` makes, so amplitudes
are bit-identical to that form), and outcome queries read one ``|state|**2``
per state.  In the reproduction it serves two roles:

* the floating-point oracle for the test-suite (every other engine is
  validated against it on small circuits), and
* the baseline showing the memory wall the paper motivates (it cannot go far
  beyond ~20 qubits on a laptop, which is exactly the point of the DD-based
  approaches).

Qubit 0 is the most significant bit of the basis index, matching the paper's
worked example and every other engine in the repository.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import Gate, GateKind, gate_matrix

#: The marginal over no qubits: the empty prefix is certain.
_CERTAIN = (1.0,)


class StatevectorSimulator:
    """Dense state-vector simulation of the supported gate set.

    Parameters
    ----------
    num_qubits:
        Register size.  Memory use is ``16 * 2**num_qubits`` bytes; the
        constructor refuses more than ``max_qubits`` to fail fast instead of
        swapping the machine to death.
    initial_state:
        Basis-state index to start from (default all zeros).
    max_qubits:
        Safety limit for the dense allocation (default 26 ~= 1 GiB).
    """

    def __init__(self, num_qubits: int, initial_state: int = 0, max_qubits: int = 26):
        if num_qubits > max_qubits:
            raise MemoryError(
                f"dense statevector with {num_qubits} qubits exceeds the "
                f"configured limit of {max_qubits} qubits")
        self.num_qubits = num_qubits
        self._state = np.zeros(1 << num_qubits, dtype=complex)
        self._state[initial_state] = 1.0
        self._probabilities: Optional[np.ndarray] = None  # see _probability_tensor
        self._marginals: Optional[Tuple[Tuple[int, ...], List[np.ndarray]]] = None

    # ------------------------------------------------------------------ #
    # state access
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> np.ndarray:
        """The current state vector (a copy)."""
        return self._state.copy()

    def amplitude(self, basis_index: int) -> complex:
        """Amplitude of ``|basis_index>``."""
        return complex(self._state[basis_index])

    def probabilities(self) -> np.ndarray:
        """``|amplitude|**2`` for every basis state (a fresh array)."""
        return np.abs(self._state) ** 2

    def _probability_tensor(self) -> np.ndarray:
        """``|state|**2`` shaped ``(2,) * n``, squared once per state: every
        mutation drops it, and it never leaves this class."""
        if self._probabilities is None:
            self._probabilities = np.abs(self._state.reshape((2,) * self.num_qubits)) ** 2
        return self._probabilities

    def _drop_memos(self) -> None:
        """Forget ``|state|**2`` and the prefix marginals (every mutation)."""
        self._probabilities = None
        self._marginals = None

    def norm(self) -> float:
        """The 2-norm of the state (should stay 1 up to rounding)."""
        return float(np.linalg.norm(self._state))

    # ------------------------------------------------------------------ #
    # gate application
    # ------------------------------------------------------------------ #
    def apply_gate(self, gate: Gate) -> None:
        """Apply one :class:`Gate` in place."""
        if gate.kind is GateKind.MEASURE:
            return
        if gate.kind in (GateKind.SWAP, GateKind.CSWAP):
            self._apply_swap(gate)
            return
        self._apply_controlled_single(gate_matrix(gate.kind), gate.controls, gate.targets[0])

    def _control_subspace(self, controls: Tuple[int, ...]) -> np.ndarray:
        """Writable view of the state where every control is 1 (axes: the
        other qubits, ascending)."""
        selector: List[object] = [slice(None)] * self.num_qubits
        for control in controls:
            selector[control] = 1
        return self._state.reshape((2,) * self.num_qubits)[tuple(selector)]

    def _apply_controlled_single(self, matrix: np.ndarray,
                                 controls: Tuple[int, ...], target: int) -> None:
        """One ``np.dot`` of ``matrix`` with the control-1 subspace viewed as
        ``(lead, 2, rest)`` and transposed target-first to ``(2, N)``."""
        sub = self._control_subspace(controls)
        lead = 1 << (target - sum(control < target for control in controls))
        operand = sub.reshape(lead, 2, -1).transpose(1, 0, 2).reshape(2, -1)
        updated = np.dot(matrix, operand)
        sub[...] = updated.reshape(2, lead, -1).transpose(1, 0, 2).reshape(sub.shape)
        self._drop_memos()

    def _apply_swap(self, gate: Gate) -> None:
        sub = self._control_subspace(gate.controls)
        axis_a, axis_b = (qubit - sum(control < qubit for control in gate.controls)
                          for qubit in gate.targets)
        sub[...] = np.swapaxes(sub, axis_a, axis_b)
        self._drop_memos()

    def run(self, circuit: QuantumCircuit) -> "StatevectorSimulator":
        """Apply every gate of ``circuit`` in order.  Returns ``self``."""
        if circuit.num_qubits != self.num_qubits:
            raise ValueError("circuit and simulator qubit counts differ")
        for gate in circuit.gates:
            self.apply_gate(gate)
        return self

    @classmethod
    def simulate(cls, circuit: QuantumCircuit, initial_state: int = 0,
                 max_qubits: int = 26) -> "StatevectorSimulator":
        """Construct a simulator for ``circuit`` and run it."""
        simulator = cls(circuit.num_qubits, initial_state=initial_state,
                        max_qubits=max_qubits)
        return simulator.run(circuit)

    # ------------------------------------------------------------------ #
    # measurement
    # ------------------------------------------------------------------ #
    def probability_of_qubit(self, qubit: int, value: int = 0) -> float:
        """``Pr[qubit == value]`` without collapsing the state."""
        tensor = self._probability_tensor()
        marginal = tensor.sum(axis=tuple(a for a in range(self.num_qubits) if a != qubit))
        return float(marginal[value])

    def probability_of_outcome(self, qubits: Sequence[int], outcome: Sequence[int]) -> float:
        """Probability of observing ``outcome`` when measuring ``qubits`` jointly
        (0 if a qubit is listed twice with different values); sums a slice of
        the memoised ``|state|**2``."""
        selector: List[object] = [slice(None)] * self.num_qubits
        for qubit, value in zip(qubits, outcome):
            selector[qubit] = int(value)
        if len(set(qubits)) < len(qubits) and any(
                selector[qubit] != int(value) for qubit, value in zip(qubits, outcome)):
            return 0.0
        return float(self._probability_tensor()[tuple(selector)].sum())

    def measurement_distribution(self, qubits: Optional[Sequence[int]] = None) -> Dict[int, float]:
        """Joint outcome distribution over ``qubits`` (default: all qubits).

        Keys are outcome integers with the first listed qubit as the most
        significant bit; entries below 1e-15 are omitted.
        """
        qubits = list(range(self.num_qubits)) if qubits is None else list(qubits)
        distribution: Dict[int, float] = {}
        probabilities = self._probability_tensor()
        other_axes = tuple(q for q in range(self.num_qubits) if q not in qubits)
        marginal = probabilities.sum(axis=other_axes) if other_axes else probabilities
        # ``marginal`` axes follow ascending qubit index, so qubit ``q`` is bit
        # ``shift[q]`` of a flat index; outcomes read bits in the caller's order.
        ascending = sorted(set(qubits))
        shift = {q: len(ascending) - 1 - pos for pos, q in enumerate(ascending)}
        for flat_index, probability in enumerate(marginal.reshape(-1)):
            if probability < 1e-15:
                continue
            outcome = 0
            for qubit in qubits:
                outcome = (outcome << 1) | ((flat_index >> shift[qubit]) & 1)
            distribution[outcome] = distribution.get(outcome, 0.0) + float(probability)
        return distribution

    def measure_qubit(self, qubit: int, rng: Optional[np.random.Generator] = None,
                      forced_outcome: Optional[int] = None) -> int:
        """Measure ``qubit``, collapse and renormalise the state, return 0/1."""
        probability_zero = self.probability_of_qubit(qubit, 0)
        if forced_outcome is None:
            rng = rng or np.random.default_rng()
            outcome = 0 if rng.random() < probability_zero else 1
        else:
            outcome = int(forced_outcome)
        probability = probability_zero if outcome == 0 else 1.0 - probability_zero
        if probability <= 0.0:
            raise ValueError("attempted to collapse onto a zero-probability outcome")
        selector: List[object] = [slice(None)] * self.num_qubits
        selector[qubit] = 1 - outcome
        self._state.reshape((2,) * self.num_qubits)[tuple(selector)] = 0.0
        self._state = self._state / math.sqrt(probability)
        self._drop_memos()
        return outcome

    def sample(self, shots: int, qubits: Optional[Sequence[int]] = None,
               rng: Optional[np.random.Generator] = None) -> Dict[int, int]:
        """Sample measurement outcomes without collapsing the live state.

        Runs the shared binomial descent
        (:func:`repro.engines.sampling.sample_by_descent`) over
        :meth:`prefix_marginals`, so equal generators give the counts
        ``repro.run(engine="statevector", shots=...)`` gives."""
        from repro.engines.sampling import sample_by_descent

        qubits = list(range(self.num_qubits)) if qubits is None else list(qubits)
        rng = rng or np.random.default_rng()
        return sample_by_descent(self.branch_probability(qubits), len(qubits), shots, rng)

    def prefix_marginals(self, qubits: Sequence[int]) -> List[np.ndarray]:
        """The marginals ``m_1 ... m_k`` of ``|state|**2`` over the first
        ``j`` of the ``k`` distinct ``qubits`` (first occurrences, in the
        caller's order).

        ``m_j`` has ``2**j`` entries indexed by the bits of those qubits,
        the first listed qubit most significant.  ``m_k`` sums the other
        qubits out of ``|state|**2`` (a view of it when ``qubits`` lists
        every qubit in ascending order); each coarser level sums bit pairs
        of the one below, so the levels above ``m_k`` add fewer than
        ``2**k`` floats.  One list is memoised per state; every mutation
        drops it.
        """
        distinct = tuple(dict.fromkeys(qubits))
        if self._marginals is None or self._marginals[0] != distinct:
            tensor = self._probability_tensor()
            others = tuple(q for q in range(self.num_qubits) if q not in distinct)
            marginal = tensor.sum(axis=others) if others else tensor
            # ``marginal`` axes follow ascending qubit index; put them in the
            # caller's order (the identity needs no copy).
            ascending = sorted(distinct)
            finest = marginal.transpose([ascending.index(q) for q in distinct])
            levels = [finest.reshape(1 << len(distinct))]
            while levels[-1].size > 2:
                levels.append(levels[-1].reshape(-1, 2).sum(axis=1))
            levels.reverse()
            self._marginals = (distinct, levels if distinct else [])
        return self._marginals[1]

    def branch_probability(self, qubits: Sequence[int]) -> Callable[[tuple], float]:
        """The descent's prefix oracle over ``qubits``, read from
        :meth:`prefix_marginals`: ``Pr[qubits[:len(prefix)] == prefix]``,
        1.0 for the empty prefix, 0 when a repeated qubit's bits conflict."""
        qubits = list(qubits)
        # Level j answers the prefixes of length j.
        levels = [_CERTAIN, *self.prefix_marginals(qubits)]
        if len(set(qubits)) == len(qubits):
            def lookup(prefix):
                index = 0
                for bit in prefix:
                    index = (index << 1) | bit
                return float(levels[len(prefix)][index])
            return lookup

        def lookup_repeated(prefix):
            seen: Dict[int, int] = {}
            index = 0
            for qubit, bit in zip(qubits, prefix):
                if qubit not in seen:
                    seen[qubit] = bit
                    index = (index << 1) | bit
                elif seen[qubit] != bit:
                    return 0.0
            return float(levels[len(seen)][index])
        return lookup_repeated
