"""Adapters exposing the four native simulators through the Engine protocol.

The rich native classes (:class:`~repro.core.simulator.BitSliceSimulator`,
:class:`~repro.baselines.qmdd.QmddSimulator`,
:class:`~repro.baselines.statevector.StatevectorSimulator`,
:class:`~repro.baselines.stabilizer.StabilizerSimulator`) stay public and
fully featured; each adapter here is a thin lifecycle shim that

* constructs the native simulator in :meth:`prepare` *without* any budget
  plumbing (TO/MO enforcement is the
  :class:`~repro.engines.limits.LimitEnforcer`'s job now); the baseline
  adapters also import their simulator (and so numpy) there, so
  registering them loads nothing a bit-sliced run does not use,
* normalises the statistics to the canonical schema — the historical
  per-engine peak-memory spellings (``peak_bdd_nodes`` / ``peak_dd_nodes`` /
  ``tableau_bytes``) are rewritten to ``peak_memory_nodes`` here and nowhere
  else, and
* answers the uniform joint-probability query (the stabilizer engine now
  answers the full multi-qubit query via the tableau rank method, like every
  other engine).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import Gate, GateKind
from repro.exceptions import UnsupportedGateError
from repro.core.simulator import BitSliceSimulator
from repro.engines.base import (
    ALL_GATE_KINDS,
    BYTES_PER_NODE,
    CLIFFORD_GATE_KINDS,
    Capabilities,
    Engine,
    check_outcome_query,
    dense_memory_nodes,
)
from repro.engines.limits import ResourceLimits
from repro.engines.registry import register_engine

if TYPE_CHECKING:
    from repro.baselines.qmdd import QmddSimulator
    from repro.baselines.stabilizer import StabilizerSimulator
    from repro.baselines.statevector import StatevectorSimulator


def _reject_stream_dynamic(gate: Gate) -> None:
    """``RESET`` (and friends) are dynamic instructions interpreted by
    :mod:`repro.engines.dynamic`; they must never reach ``Engine.apply``,
    which only understands unitaries (``MEASURE`` markers stay no-ops for
    backwards compatibility)."""
    if gate.kind is GateKind.RESET:
        raise UnsupportedGateError(
            "reset is a dynamic instruction; run the circuit through "
            "Engine.run or the LimitEnforcer instead of applying it directly")


class _SimulatorEngine(Engine):
    """An engine wrapping one native simulator (``self._simulator``), which
    answers its probability queries, collapses and register width."""

    def _query(self, qubits: Sequence[int], bits: Sequence[int]) -> float:
        return self._simulator.probability_of_outcome(qubits, bits)

    def collapse(self, qubit: int, outcome: int) -> None:
        self._simulator.measure_qubit(qubit, forced_outcome=outcome)

    @property
    def num_qubits(self) -> int:
        return self._simulator.num_qubits


@register_engine("bitslice", aliases=("bdd", "sliqsim"))
class BitSliceEngine(_SimulatorEngine):
    """The paper's exact bit-sliced BDD engine."""

    capabilities = Capabilities(
        name="bitslice",
        label="Ours (bit-sliced BDD)",
        supported_gates=ALL_GATE_KINDS,
        exact=True,
        selection_priority=20,
        supports_reordering=True,
        supports_prefix_resume=True,
        supports_snapshots=True,
        description="Exact algebraic amplitudes in bit-sliced BDDs "
                    "(SliQSim); unbounded qubit counts, memory scales with "
                    "state structure.",
    )

    def __init__(self) -> None:
        super().__init__()
        self._simulator: Optional[BitSliceSimulator] = None
        self._sampler_stats: dict = {}
        self._reorder_threshold: Optional[int] = None

    def configure_reordering(self, threshold: Optional[int]) -> bool:
        """Enable growth-triggered in-place BDD variable reordering: once
        the substrate's live node count passes ``threshold``, a sift runs
        at the next gate boundary (with geometric back-off; the
        ``substrate_reorder_*`` counters in :meth:`statistics` record the
        activity).  Takes effect at the next :meth:`prepare`."""
        self._reorder_threshold = threshold
        return True

    def prepare(self, circuit: QuantumCircuit,
                limits: Optional[ResourceLimits] = None) -> None:
        super().prepare(circuit, limits)
        self._simulator = BitSliceSimulator(
            circuit.num_qubits, auto_reorder_threshold=self._reorder_threshold)
        self._sampler_stats = {}

    def export_session(self):
        """The live :class:`BitSliceSimulator` as a resumable session.

        The payload is the simulator itself (its ``fork()`` is the cheap
        immutable-sharing copy the pool's contract requires); the
        generation probe is the owning manager's ``cache_generation``, so a
        GC / reorder / explicit clear performed outside the session chain
        invalidates retained entries rather than being resumed over.
        """
        simulator = self._simulator
        if simulator is None:
            return None
        manager = simulator.state.manager
        return simulator, (lambda: manager.cache_generation)

    def resume_session(self, payload, gates_already_applied: int = 0) -> None:
        """Adopt a forked :class:`BitSliceSimulator` in place of
        :meth:`prepare`: the engine continues from the fork's state, with
        the gate counter seeded so ``statistics()`` reports the same
        ``gates_applied`` (and, via the fork's carried ``peak_nodes``, the
        same peak memory) as the equivalent cold run."""
        self._prepared_at = time.perf_counter()
        self._gates_applied = gates_already_applied
        self._simulator = payload
        self._sampler_stats = {}

    def export_snapshot(self, path: str, extra=None) -> bool:
        """Serialise the live :class:`BitSliceSimulator` to ``path``
        atomically (see :func:`repro.snapshot.dump_simulator`); the
        restored manager storage is column-for-column identical, which is
        what makes a resumed run byte-identical to an uninterrupted one.
        Returns ``False`` when nothing is prepared yet."""
        if self._simulator is None:
            return False
        from repro.snapshot import dump_simulator

        dump_simulator(self._simulator, path, extra=extra)
        return True

    def restore_snapshot(self, path: str):
        """Adopt the simulator snapshot at ``path`` in place of
        :meth:`prepare` and return the caller's ``extra`` dict.  A damaged
        file raises :class:`repro.snapshot.SnapshotCorruptError` and
        leaves the engine untouched."""
        from repro.snapshot import load_simulator

        simulator, extra = load_simulator(path)
        self._prepared_at = time.perf_counter()
        self._gates_applied = simulator.gates_applied
        self._simulator = simulator
        self._sampler_stats = {}
        return extra

    def apply(self, gate: Gate) -> None:
        _reject_stream_dynamic(gate)
        self._simulator.apply_gate(gate)
        self._count_gate(gate)

    def probability(self, qubits: Sequence[int], bits: Sequence[int]) -> float:
        check_outcome_query(self.num_qubits, qubits, bits)
        return self._query(qubits, bits)

    def sample(self, shots: int, qubits: Optional[Sequence[int]] = None,
               rng=None):
        """Exact shot sampling on the slices (no hyper-function).

        Overrides the generic probability-query descent with
        :class:`repro.core.sampling.SliceSampler` — path-walk cofactors of
        the 4r slice BDDs per sampled bit, with exact masses from one
        memoised :class:`~repro.core.measurement.SliceMass` walk — while
        honouring the same descent/RNG protocol, so counts agree
        bit-for-bit with every other engine at equal seeds.
        """
        from repro.core.sampling import SliceSampler

        if qubits is None:
            qubits = list(range(self.num_qubits))
        if rng is None:
            import numpy as np

            rng = np.random.default_rng()
        sampler = SliceSampler(self._simulator.state, qubits)
        counts = sampler.sample(shots, rng)
        self._sampler_stats = sampler.statistics()
        return counts

    def memory_nodes(self) -> int:
        return self._simulator.state.num_nodes()

    def statistics(self):
        stats = self._simulator.statistics()
        stats["peak_memory_nodes"] = stats.pop("peak_bdd_nodes")
        stats["elapsed_seconds"] = self.elapsed_seconds()
        stats["gates_applied"] = self._gates_applied
        stats.update(self._sampler_stats)
        return stats


@register_engine("qmdd", aliases=("ddsim",))
class QmddEngine(_SimulatorEngine):
    """Float-weighted decision-diagram comparison engine (DDSIM stand-in)."""

    capabilities = Capabilities(
        name="qmdd",
        label="QMDD (DDSIM-style)",
        supported_gates=ALL_GATE_KINDS,
        exact=False,
        selection_priority=30,
        description="Edge-weighted decision diagrams with tolerance-interned "
                    "complex weights; fast on shallow circuits, loses "
                    "precision on deep superpositions.",
    )

    def __init__(self) -> None:
        super().__init__()
        self._simulator: Optional[QmddSimulator] = None

    def prepare(self, circuit: QuantumCircuit,
                limits: Optional[ResourceLimits] = None) -> None:
        from repro.baselines.qmdd import QmddSimulator

        super().prepare(circuit, limits)
        self._simulator = QmddSimulator(circuit.num_qubits)

    def apply(self, gate: Gate) -> None:
        _reject_stream_dynamic(gate)
        self._simulator.apply_gate(gate)
        self._count_gate(gate)

    def probability(self, qubits: Sequence[int], bits: Sequence[int]) -> float:
        check_outcome_query(self.num_qubits, qubits, bits)
        return self._query(qubits, bits)

    def memory_nodes(self) -> int:
        return self._simulator.num_nodes()

    def statistics(self):
        stats = self._simulator.statistics()
        stats["peak_memory_nodes"] = stats.pop("peak_dd_nodes")
        stats["elapsed_seconds"] = self.elapsed_seconds()
        stats["gates_applied"] = self._gates_applied
        return stats


@register_engine("statevector", aliases=("dense", "sv"))
class StatevectorEngine(_SimulatorEngine):
    """Dense numpy statevector comparison engine (the memory-wall baseline)."""

    capabilities = Capabilities(
        name="statevector",
        label="Dense statevector",
        supported_gates=ALL_GATE_KINDS,
        exact=False,
        dense=True,
        max_practical_qubits=26,
        selection_priority=10,
        description="Full 2**n complex vector; fastest per gate while the "
                    "vector fits in memory, impossible beyond ~26 qubits.",
    )

    def __init__(self) -> None:
        super().__init__()
        self._simulator: Optional[StatevectorSimulator] = None

    def prepare(self, circuit: QuantumCircuit,
                limits: Optional[ResourceLimits] = None) -> None:
        from repro.baselines.statevector import StatevectorSimulator

        super().prepare(circuit, limits)
        limits = limits or ResourceLimits()
        self._simulator = StatevectorSimulator(circuit.num_qubits,
                                               max_qubits=limits.max_dense_qubits)

    def apply(self, gate: Gate) -> None:
        _reject_stream_dynamic(gate)
        self._simulator.apply_gate(gate)
        self._count_gate(gate)

    def probability(self, qubits: Sequence[int], bits: Sequence[int]) -> float:
        check_outcome_query(self.num_qubits, qubits, bits)
        return self._query(qubits, bits)

    def branch_probability(self, qubits: Sequence[int]) -> Callable[[tuple], float]:
        """Prefix lookups into one marginal tree per state
        (:meth:`StatevectorSimulator.prefix_marginals`)."""
        check_outcome_query(self.num_qubits, qubits)
        return self._simulator.branch_probability(qubits)

    def memory_nodes(self) -> int:
        return dense_memory_nodes(self._simulator.num_qubits)

    def statistics(self):
        stats = super().statistics()
        stats["norm"] = self._simulator.norm()
        return stats


@register_engine("stabilizer", aliases=("chp", "tableau"))
class StabilizerEngine(_SimulatorEngine):
    """CHP stabilizer-tableau comparison engine (Clifford circuits only)."""

    capabilities = Capabilities(
        name="stabilizer",
        label="CHP stabilizer",
        supported_gates=CLIFFORD_GATE_KINDS,
        exact=True,
        clifford_only=True,
        selection_priority=0,
        description="Aaronson-Gottesman tableau; polynomial time and memory, "
                    "restricted to Clifford gates.",
    )

    def __init__(self) -> None:
        super().__init__()
        self._simulator: Optional[StabilizerSimulator] = None

    def prepare(self, circuit: QuantumCircuit,
                limits: Optional[ResourceLimits] = None) -> None:
        from repro.baselines.stabilizer import StabilizerSimulator

        super().prepare(circuit, limits)
        self._simulator = StabilizerSimulator(circuit.num_qubits)

    def apply(self, gate: Gate) -> None:
        # The native tableau rejects non-Clifford gates itself; pre-checking
        # through the declared capabilities keeps the error message uniform
        # for kinds the tableau has no branch for at all.
        _reject_stream_dynamic(gate)
        self.ensure_supported(gate)
        self._simulator.apply_gate(gate)
        self._count_gate(gate)

    def probability(self, qubits: Sequence[int], bits: Sequence[int]) -> float:
        check_outcome_query(self.num_qubits, qubits, bits)
        return self._query(qubits, bits)

    def memory_nodes(self) -> int:
        stats = self._simulator.statistics()
        return max(1, int(stats["tableau_bytes"]) // BYTES_PER_NODE)

    def statistics(self):
        stats = self._simulator.statistics()
        stats["peak_memory_nodes"] = max(
            1, int(stats.pop("tableau_bytes")) // BYTES_PER_NODE)
        stats["elapsed_seconds"] = self.elapsed_seconds()
        stats["gates_applied"] = self._gates_applied
        return stats
