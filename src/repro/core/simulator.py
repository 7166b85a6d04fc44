"""The user-facing bit-sliced BDD simulator.

:class:`BitSliceSimulator` wires together the state representation
(:class:`~repro.core.bitslice.BitSlicedState`), the Table II gate rules
(:class:`~repro.core.gate_rules.GateRuleEngine`) and the measurement engine
(:class:`~repro.core.measurement.MeasurementEngine`), and adds the resource
accounting (wall-clock and node-count limits, per-gate statistics) the
benchmark harness relies on to reproduce the paper's TO / MO columns.

Typical use::

    from repro import BitSliceSimulator, QuantumCircuit

    circuit = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
    simulator = BitSliceSimulator.simulate(circuit)
    print(simulator.probability_of_outcome([0, 1, 2], [0, 0, 0]))   # 0.5
    print(simulator.amplitude(0))                                   # exact 1/sqrt(2)
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra import AlgebraicComplex
from repro.bdd import BddManager
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import Gate, GateKind
from repro.core.bitslice import BitSlicedState
from repro.core.gate_rules import GateRuleEngine
from repro.core.measurement import MeasurementEngine
from repro.exceptions import SimulationMemoryExceeded, SimulationTimeout


class BitSliceSimulator:
    """Exact quantum circuit simulation via bit-sliced BDDs.

    Parameters
    ----------
    num_qubits:
        Register size.
    initial_state:
        Basis state to start from.
    initial_bits:
        Initial integer width ``r`` (grows automatically on overflow).
    max_seconds:
        Optional wall-clock budget checked between gates; exceeding it raises
        :class:`~repro.exceptions.SimulationTimeout`.
    max_nodes:
        Optional budget on live BDD nodes of the state, checked between
        gates; exceeding it raises
        :class:`~repro.exceptions.SimulationMemoryExceeded`.
    auto_shrink:
        Drop redundant sign slices after every gate (keeps ``r`` minimal at a
        small constant cost; on by default).
    auto_reorder_threshold:
        Enable growth-triggered dynamic variable reordering: when the BDD
        substrate's live node count exceeds this threshold, an in-place
        sift runs at the next gate boundary (all slices stay valid; see
        :meth:`repro.bdd.manager.BddManager.maybe_reorder` for the back-off
        policy).  ``None`` (the default) leaves the manager's setting
        untouched — reordering is off on a private manager, matching the
        original tool where dynamic reordering is a tuning knob.  The
        threshold is *manager state*: passing a value together with a
        shared ``manager`` installs it on that manager for every one of
        its users (and the back-off keeps adjusting it there); pass
        ``None`` and configure the manager directly when several
        simulators share one and need different policies.
    """

    def __init__(self, num_qubits: int, initial_state: int = 0, initial_bits: int = 2,
                 max_seconds: Optional[float] = None, max_nodes: Optional[int] = None,
                 auto_shrink: bool = True, manager: Optional[BddManager] = None,
                 auto_reorder_threshold: Optional[int] = None):
        self.state = BitSlicedState(num_qubits, initial_state=initial_state,
                                    initial_bits=initial_bits, manager=manager)
        if auto_reorder_threshold is not None:
            self.state.manager.auto_reorder_threshold = auto_reorder_threshold
        self._rules = GateRuleEngine(self.state)
        self.max_seconds = max_seconds
        self.max_nodes = max_nodes
        self.auto_shrink = auto_shrink
        self._start_time = time.perf_counter()
        self.gates_applied = 0
        self.peak_nodes = self.state.num_nodes()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        """Register size."""
        return self.state.num_qubits

    @classmethod
    def simulate(cls, circuit: QuantumCircuit, initial_state: int = 0,
                 initial_bits: int = 2, max_seconds: Optional[float] = None,
                 max_nodes: Optional[int] = None) -> "BitSliceSimulator":
        """Create a simulator sized for ``circuit`` and run it to completion."""
        simulator = cls(circuit.num_qubits, initial_state=initial_state,
                        initial_bits=initial_bits, max_seconds=max_seconds,
                        max_nodes=max_nodes)
        simulator.run(circuit)
        return simulator

    def fork(self) -> "BitSliceSimulator":
        """An independent simulator continuing from this one's exact state.

        The fork shares the BDD manager (see
        :meth:`~repro.core.bitslice.BitSlicedState.fork`) and carries the
        cumulative ``gates_applied`` and ``peak_nodes`` accounting, so a run
        resumed from a retained prefix reports the same gate and peak-node
        statistics as the equivalent cold run.  Gates applied to the fork
        never disturb the original state — that is the contract prefix
        resume (:mod:`repro.cache.sessions`) relies on.  Callers resuming
        forks concurrently must serialise per shared manager (the session
        pool's chain lock does); the pure-Python node store is not safe
        under concurrent mutation.
        """
        forked = BitSliceSimulator.__new__(BitSliceSimulator)
        forked.state = self.state.fork()
        forked._rules = GateRuleEngine(forked.state)
        forked.max_seconds = self.max_seconds
        forked.max_nodes = self.max_nodes
        forked.auto_shrink = self.auto_shrink
        forked._start_time = time.perf_counter()
        forked.gates_applied = self.gates_applied
        forked.peak_nodes = self.peak_nodes
        return forked

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def reset_clock(self) -> None:
        """Restart the wall-clock budget (used when a harness reuses the
        simulator for several runs)."""
        self._start_time = time.perf_counter()

    def _check_limits(self) -> None:
        if self.max_seconds is not None:
            elapsed = time.perf_counter() - self._start_time
            if elapsed > self.max_seconds:
                raise SimulationTimeout(elapsed, self.max_seconds)
        if self.max_nodes is not None:
            nodes = self.state.num_nodes()
            if nodes > self.max_nodes:
                raise SimulationMemoryExceeded(nodes, self.max_nodes)

    def apply_gate(self, gate: Gate) -> None:
        """Apply one gate (measurement markers are ignored here)."""
        if gate.kind is GateKind.MEASURE:
            return
        self._rules.apply(gate)
        if self.auto_shrink:
            self.state.shrink()
        self.gates_applied += 1
        nodes = self.state.num_nodes()
        if nodes > self.peak_nodes:
            self.peak_nodes = nodes
        # Gate boundaries are the safe points for both store-maintenance
        # passes: every live node is anchored in a registered handle here.
        self.state.manager.maybe_collect()
        self.state.manager.maybe_reorder()
        self._check_limits()

    def run(self, circuit: QuantumCircuit) -> "BitSliceSimulator":
        """Apply every gate of ``circuit`` in order; returns ``self``."""
        if circuit.num_qubits != self.num_qubits:
            raise ValueError("circuit and simulator qubit counts differ")
        for gate in circuit.gates:
            self.apply_gate(gate)
        return self

    # ------------------------------------------------------------------ #
    # exact state queries
    # ------------------------------------------------------------------ #
    def amplitude(self, basis_index: int) -> AlgebraicComplex:
        """Exact amplitude of ``|basis_index>`` (excluding the measurement
        factor ``s``; see :attr:`normalisation`)."""
        return self.state.amplitude(basis_index)

    def amplitude_complex(self, basis_index: int) -> complex:
        """Floating-point amplitude of ``|basis_index>`` including ``s``."""
        return self.state.amplitude_complex(basis_index)

    @property
    def normalisation(self) -> float:
        """The floating-point measurement normalisation factor ``s``."""
        return self.state.s

    def to_numpy(self):
        """Dense complex state vector (small qubit counts only)."""
        return self.state.to_numpy()

    def to_algebraic_vector(self):
        """Dense exact state vector (small qubit counts only)."""
        return self.state.to_algebraic_vector()

    # ------------------------------------------------------------------ #
    # probabilities, measurement, sampling
    # ------------------------------------------------------------------ #
    def _measurement_engine(self) -> MeasurementEngine:
        return MeasurementEngine(self.state)

    def total_probability(self) -> float:
        """Sum of all outcome probabilities (sanity check; should be 1)."""
        return self._measurement_engine().total_probability()

    def probability_of_qubit(self, qubit: int, value: int = 0) -> float:
        """``Pr[qubit == value]`` without collapsing."""
        return self._measurement_engine().probability_of_qubit(qubit, value)

    def probability_of_outcome(self, qubits: Sequence[int], outcome: Sequence[int]) -> float:
        """Joint probability of ``outcome`` on ``qubits`` without collapsing."""
        return self._measurement_engine().probability_of_outcome(qubits, outcome)

    def measurement_distribution(self, qubits: Optional[Sequence[int]] = None) -> Dict[int, float]:
        """Joint outcome distribution over ``qubits`` (default all)."""
        return self._measurement_engine().measurement_distribution(qubits)

    def measure_qubit(self, qubit: int, rng=None, forced_outcome: Optional[int] = None) -> int:
        """Measure one qubit and collapse the state."""
        return self._measurement_engine().measure_qubit(qubit, rng=rng,
                                                        forced_outcome=forced_outcome)

    def measure_qubits(self, qubits: Sequence[int], rng=None,
                       forced_outcomes: Optional[Sequence[int]] = None) -> List[int]:
        """Measure several qubits sequentially, collapsing after each."""
        return self._measurement_engine().measure_qubits(qubits, rng=rng,
                                                         forced_outcomes=forced_outcomes)

    def sample(self, shots: int, qubits: Optional[Sequence[int]] = None, rng=None) -> Dict[int, int]:
        """Sample outcomes without collapsing the state."""
        return self._measurement_engine().sample(shots, qubits=qubits, rng=rng)

    def nonzero_amplitude_count(self) -> int:
        """Number of basis states with non-zero amplitude, counted
        symbolically (works for registers far too wide to enumerate)."""
        return self.state.nonzero_amplitude_count()

    # ------------------------------------------------------------------ #
    # dynamic variable reordering
    # ------------------------------------------------------------------ #
    def sift(self, max_vars: int = 0, max_growth: float = 1.2) -> Dict[str, int]:
        """Reorder the BDD variables in place to shrink the state now.

        Explicit counterpart of the ``auto_reorder_threshold`` knob; safe at
        any gate boundary (the state's slices stay valid).  Returns the
        sift's ``{"nodes_before", "nodes_after", "swaps"}``.
        """
        return self.state.sift(max_vars=max_vars, max_growth=max_growth)

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def statistics(self) -> Dict[str, float]:
        """Run statistics used by the benchmark harness.

        Includes the substrate's performance counters (per-op computed-table
        hit rates, unique-table traffic, GC pauses, peak live nodes) flattened
        under a ``substrate_`` prefix, so every harness report row carries
        them.
        """
        stats = self.state.statistics()
        stats.update({
            "gates_applied": self.gates_applied,
            "peak_bdd_nodes": self.peak_nodes,
            "elapsed_seconds": time.perf_counter() - self._start_time,
        })
        for key, value in self.state.manager.perf_stats().items():
            stats[f"substrate_{key}"] = value
        return stats

    def substrate_perf_by_gate(self) -> Dict[str, Dict[str, float]]:
        """Substrate counters attributed per gate kind (see
        :meth:`repro.core.gate_rules.GateRuleEngine.perf_summary`)."""
        return self._rules.perf_summary()

    def __repr__(self) -> str:
        return (f"BitSliceSimulator(num_qubits={self.num_qubits}, "
                f"gates_applied={self.gates_applied}, r={self.state.r}, "
                f"k={self.state.k})")
