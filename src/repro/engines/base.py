"""The :class:`Engine` protocol and the :class:`Capabilities` descriptor.

Every simulation backend in the repository — the paper's bit-sliced BDD
engine and the three comparison engines — is exposed through one uniform
lifecycle so the harness, the ``repro.run`` front door and third-party code
can drive any of them interchangeably:

``prepare(circuit, limits)``
    Allocate the native state for ``circuit`` (the only step that may look at
    :class:`~repro.engines.limits.ResourceLimits`, e.g. the dense engine's
    qubit cut-off).
``apply(gate)``
    Apply one gate.  A gate outside the engine's declared capability set must
    raise :class:`~repro.exceptions.UnsupportedGateError` (the contract tests
    enforce this "capability honesty").
``probability(qubits, bits)``
    Joint probability of observing ``bits`` on ``qubits`` without collapsing
    the state — the end-of-run query every harness run performs.
``statistics()``
    The canonical stats schema (see :data:`CANONICAL_STATS_KEYS`): every
    engine reports ``peak_memory_nodes`` / ``elapsed_seconds`` /
    ``gates_applied`` / ``num_qubits`` under the same names, plus any
    engine-specific extras (e.g. the BDD substrate's ``substrate_*``
    counters).  Legacy per-engine spellings (``peak_bdd_nodes``,
    ``peak_dd_nodes``, ``tableau_bytes``) are normalised here in the
    adapters, never downstream.

TO/MO budgets are *not* enforced by the engines themselves: the
:class:`~repro.engines.limits.LimitEnforcer` wrapper checks wall-clock and
memory between gates uniformly, which is what fixed the dense engine's
historically missing time-out enforcement.

A declarative :class:`Capabilities` record accompanies every engine class and
feeds alias resolution, the ``"auto"`` selector and the rendered table
labels.
"""

from __future__ import annotations

import abc
import numbers
import time
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, FrozenSet, List, Optional, Sequence

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import Gate, GateKind, is_clifford_gate
from repro.exceptions import UnsupportedGateError

#: Approximate bytes per decision-diagram node, used to convert canonical
#: node counts into the MB figures reported next to the paper's numbers.  A
#: CUDD / DDSIM node is ~32-48 bytes; the pure-Python stores cost more, but
#: every engine converts with the same constant so relative numbers hold.
BYTES_PER_NODE = 48

#: Keys every engine's ``statistics()`` must report (the canonical schema).
CANONICAL_STATS_KEYS = ("num_qubits", "gates_applied",
                        "peak_memory_nodes", "elapsed_seconds")

#: Legacy engine-specific stat spellings that must *not* leak out of the
#: adapters (the pre-redesign harness remapped these by hand per engine).
LEGACY_STATS_KEYS = ("peak_bdd_nodes", "peak_dd_nodes", "tableau_bytes")

#: Every gate kind an engine applies as a unitary.  MEASURE and RESET are
#: lifecycle instructions handled by the dynamic-circuit executor
#: (:mod:`repro.engines.dynamic`), never passed to ``Engine.apply``.
ALL_GATE_KINDS: FrozenSet[GateKind] = frozenset(GateKind) - {
    GateKind.MEASURE, GateKind.RESET}

#: Bytes per dense complex amplitude (numpy complex128).
BYTES_PER_AMPLITUDE = 16

#: Live-node threshold installed by ``reorder=True`` requests (engines that
#: support dynamic reordering trigger an in-place sift of their decision
#: diagrams once they grow past it; see ``repro.run``'s ``reorder`` flag).
DEFAULT_AUTO_REORDER_THRESHOLD = 25_000


def dense_memory_nodes(num_qubits: int) -> int:
    """A dense ``2**n`` statevector's footprint in canonical node units
    (used both by the dense adapter and by the ``"auto"`` selector's
    eligibility check against ``max_nodes``)."""
    return max(1, (BYTES_PER_AMPLITUDE << num_qubits) // BYTES_PER_NODE)


def check_outcome_query(num_qubits: int, qubits: Sequence[int],
                        bits: Optional[Sequence[int]] = None) -> None:
    """Reject a malformed probability query with ``ValueError``: every
    queried qubit must be an integer (not a ``bool``) indexing the
    ``num_qubits``-qubit register, and ``bits``, when given, must pair one
    value, 0 or 1, with each qubit.  Every built-in engine's
    :meth:`Engine.probability` and the default
    :meth:`Engine.branch_probability` run it, so no engine reads ``True``
    as qubit 1, wraps a negative index, ignores an out-of-range qubit,
    truncates a short outcome or answers for an outcome value of 2."""
    if bits is not None and len(bits) != len(qubits):
        raise ValueError("qubits and outcome must have the same length")
    for qubit in qubits:
        if qubit.__class__ is bool or not isinstance(qubit, numbers.Integral):
            raise ValueError(f"qubit {qubit!r} is not an integer index")
        if not 0 <= qubit < num_qubits:
            raise ValueError(f"qubit {qubit} out of range for "
                             f"{num_qubits} qubits")
    for bit in () if bits is None else bits:
        if bit not in (0, 1):
            raise ValueError(f"outcome value {bit!r} is not 0 or 1")


#: The Clifford subset an Aaronson-Gottesman tableau can apply exactly.
CLIFFORD_GATE_KINDS: FrozenSet[GateKind] = frozenset({
    GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.S, GateKind.SDG,
    GateKind.RX_PI_2, GateKind.RY_PI_2, GateKind.CX, GateKind.CZ,
    GateKind.SWAP, GateKind.CCX, GateKind.CSWAP,
})


@dataclass(frozen=True)
class Capabilities:
    """Declarative description of what an engine can do.

    The registry uses it for the ``"auto"`` selector (which engine fits a
    circuit's gate profile and size best) and the harness uses ``label`` for
    the rendered table headers.

    ``selection_priority`` orders engines for automatic selection: among all
    engines whose capabilities support a circuit, the lowest priority wins.
    The built-in ranking encodes asymptotic fitness — the polynomial-time
    tableau first (Clifford circuits only), the dense vector while it fits in
    memory, then the exact symbolic engines.
    """

    name: str
    label: str
    supported_gates: FrozenSet[GateKind]
    #: True when amplitudes are represented exactly (no float rounding until
    #: measurement), the paper's headline property of the bit-sliced engine.
    exact: bool
    #: True when only Clifford *instances* are supported: a gate kind in
    #: ``supported_gates`` may still be rejected for a non-Clifford control
    #: structure (e.g. a two-control Toffoli on the tableau).
    clifford_only: bool = False
    #: True when memory is a dense ``2**n`` array, making the engine subject
    #: to :attr:`~repro.engines.limits.ResourceLimits.max_dense_qubits`.
    dense: bool = False
    #: Hard practical qubit ceiling (``None`` = unbounded in principle).
    max_practical_qubits: Optional[int] = None
    selection_priority: int = 50
    description: str = ""
    #: True when the engine can collapse single qubits
    #: (:meth:`Engine.collapse`), which mid-circuit measurement and
    #: ``reset`` require.  Engines without collapse support still run static
    #: circuits and can still :meth:`Engine.sample` (the descent sampler
    #: only needs probability queries).
    supports_measurement: bool = True
    #: True when the engine answers :meth:`Engine.sample` shot requests.
    #: The default implementation works for any engine with a correct
    #: ``probability``, so this is only ever switched off deliberately.
    supports_sampling: bool = True
    #: True when the engine can dynamically reorder its internal
    #: representation mid-run (the bit-sliced engine's in-place BDD
    #: variable sifting).  ``reorder=`` requests on the front door are
    #: honoured by :meth:`Engine.configure_reordering` when this is set and
    #: silently ignored otherwise, so mixed-engine sweeps stay valid.
    supports_reordering: bool = False
    #: True when the engine can export its finished state as a resumable
    #: session (:meth:`Engine.export_session`) and later adopt a fork of
    #: one (:meth:`Engine.resume_session`), which is what lets the front
    #: door's ``sessions=`` pool resume an incoming circuit from a retained
    #: gate-sequence prefix instead of replaying it from ``|0>``.
    supports_prefix_resume: bool = False
    #: True when the engine can serialise its prepared state to a
    #: crash-safe snapshot file (:meth:`Engine.export_snapshot`) and adopt
    #: one back (:meth:`Engine.restore_snapshot`), which is what lets the
    #: front door's ``checkpoint_every=`` resume a killed run and the
    #: service rehydrate warm sessions after a restart
    #: (:mod:`repro.snapshot`).  Engines without the capability degrade
    #: gracefully: checkpoint requests are ignored rather than refused.
    supports_snapshots: bool = False

    def supports_gate(self, gate: Gate) -> bool:
        """True when the engine can apply this specific gate instance."""
        if gate.kind in (GateKind.MEASURE, GateKind.RESET):
            # An in-stream MEASURE (or RESET) collapses the state, so both
            # require collapse support.  Terminal measurement *markers*
            # never appear as gates, so they are unaffected.
            return self.supports_measurement
        if gate.kind not in self.supported_gates:
            return False
        if self.clifford_only and not is_clifford_gate(gate):
            return False
        return True

    def supports_circuit(self, circuit: QuantumCircuit) -> bool:
        """True when every gate of ``circuit`` is supported."""
        return all(self.supports_gate(gate) for gate in circuit.gates)


class Engine(abc.ABC):
    """Abstract base of every simulation backend (see the module docstring
    for the lifecycle contract)."""

    #: Declarative capability record; set by every concrete engine class.
    capabilities: ClassVar[Capabilities]

    def __init__(self) -> None:
        self._prepared_at: Optional[float] = None
        self._gates_applied = 0
        #: Classical register after the last :meth:`run` (clbit index order).
        self.classical_bits: List[int] = []

    # -- lifecycle ------------------------------------------------------- #
    def prepare(self, circuit: QuantumCircuit, limits=None) -> None:
        """Allocate the native state for ``circuit``.

        Subclasses must call ``super().prepare(circuit, limits)`` (it starts
        the elapsed-time clock and resets the gate counter) before building
        their native simulator.
        """
        self._prepared_at = time.perf_counter()
        self._gates_applied = 0

    @abc.abstractmethod
    def apply(self, gate: Gate) -> None:
        """Apply one gate (raise ``UnsupportedGateError`` outside the
        declared capability set; measurement markers are no-ops)."""

    @abc.abstractmethod
    def probability(self, qubits: Sequence[int], bits: Sequence[int]) -> float:
        """Joint probability of observing ``bits`` on ``qubits`` without
        collapsing the state."""

    @abc.abstractmethod
    def memory_nodes(self) -> int:
        """Current memory footprint in canonical node units (used by the
        limit-enforcement wrapper for the MO budget)."""

    # -- measurement and sampling ---------------------------------------- #
    def collapse(self, qubit: int, outcome: int) -> None:
        """Project the state onto ``qubit == outcome`` and renormalise.

        The forced-outcome half of a measurement: no randomness is involved
        here, :meth:`measure` draws the outcome.  Engines declaring
        ``capabilities.supports_measurement`` must override this; the
        default refuses.
        """
        raise UnsupportedGateError(
            f"engine {self.capabilities.name!r} does not support state "
            f"collapse (mid-circuit measurement / reset)")

    def measure(self, qubits: Sequence[int], rng=None) -> List[int]:
        """Measure ``qubits`` in order, collapsing after each; returns bits.

        This is the *uniform measurement protocol* every engine shares: per
        qubit, one probability query, one snapped threshold comparison
        against a single ``rng.random()`` draw (skipped when the outcome is
        deterministic), then a forced :meth:`collapse`.  Because the RNG
        consumption pattern and the snapped probabilities are
        engine-independent, two engines simulating the same circuit from
        equal RNG states collapse onto identical outcomes.
        """
        from repro.engines.sampling import snap_probability

        if rng is None:
            import numpy as np

            rng = np.random.default_rng()
        outcomes: List[int] = []
        for qubit in qubits:
            probability_zero = snap_probability(self.probability([qubit], [0]))
            if probability_zero >= 1.0:
                outcome = 0
            elif probability_zero <= 0.0:
                outcome = 1
            else:
                outcome = 0 if rng.random() < probability_zero else 1
            self.collapse(qubit, outcome)
            outcomes.append(outcome)
        return outcomes

    def sample(self, shots: int, qubits: Optional[Sequence[int]] = None,
               rng=None) -> Dict[int, int]:
        """Draw ``shots`` outcomes over ``qubits`` without collapsing.

        Returns outcome-integer -> count (first listed qubit = most
        significant bit).  The default implementation runs the shared
        binomial conditional-probability descent
        (:func:`repro.engines.sampling.sample_by_descent`) over
        :meth:`branch_probability`, which by default asks this engine's
        joint ``probability`` query, so it works for any engine —
        including third-party ones — whose probabilities are correct.
        Engines with a cheaper prefix oracle override
        :meth:`branch_probability` (the dense engine reads one marginal
        tree per state); engines with a cheaper native path (the bit-sliced
        engine restricts its slice BDDs instead of re-querying) override
        this but keep the same descent protocol, so counts stay
        engine-independent.

        Engines declaring ``supports_sampling=False`` (e.g. because their
        probabilities are approximate) refuse here, which the front door
        classifies as an unsupported outcome.
        """
        from repro.engines.sampling import sample_by_descent

        if not self.capabilities.supports_sampling:
            raise UnsupportedGateError(
                f"engine {self.capabilities.name!r} declares "
                f"supports_sampling=False; it cannot answer shot requests")
        if qubits is None:
            qubits = list(range(self.num_qubits))
        qubits = list(qubits)
        if rng is None:
            import numpy as np

            rng = np.random.default_rng()
        return sample_by_descent(self.branch_probability(qubits), len(qubits), shots, rng)

    def branch_probability(self, qubits: Sequence[int]) -> Callable[[tuple], float]:
        """The prefix oracle :meth:`sample` descends with over ``qubits``.

        The returned callable maps a bit-tuple ``prefix`` to the joint
        probability of observing it on ``qubits[:len(prefix)]``; the empty
        prefix is certain (1.0).  The default checks ``qubits`` once
        (:func:`check_outcome_query`) and then asks :meth:`_query` once per
        non-empty prefix; an engine with a cheaper way to answer every
        prefix of one state overrides this instead of re-implementing the
        descent.
        """
        qubits = list(qubits)
        check_outcome_query(self.num_qubits, qubits)
        query = self._query

        def branch_probability(prefix):
            return query(qubits[:len(prefix)], list(prefix)) if prefix else 1.0

        return branch_probability

    def _query(self, qubits: Sequence[int], bits: Sequence[int]) -> float:
        """:meth:`probability` for a query already checked by the caller.
        Engines whose ``probability`` checks its arguments override this
        with the bare query, so a descent checks its qubits once, not once
        per prefix."""
        return self.probability(qubits, bits)

    # -- tuning ---------------------------------------------------------- #
    def configure_reordering(self, threshold: Optional[int]) -> bool:
        """Request growth-triggered dynamic reordering for the next run.

        ``threshold`` is the live-node count past which the engine should
        reorder its internal representation (``None`` switches the request
        off).  Must be called before :meth:`prepare`.  The default ignores
        the request and returns ``False``; engines declaring
        ``capabilities.supports_reordering`` override it and return
        ``True``.  Keeping this a no-op by default lets the front door pass
        one ``reorder=`` flag to every engine of a sweep without changing
        the engines that have nothing to reorder.
        """
        return False

    # -- session export / resume (prefix caching) ------------------------- #
    def export_session(self):
        """Export the engine's finished state for prefix retention.

        Engines declaring ``capabilities.supports_prefix_resume`` return a
        ``(payload, generation_probe)`` pair: ``payload`` is an opaque
        session object exposing ``fork()`` (a cheap, immutable-sharing copy
        the pool hands to later resumes), and ``generation_probe`` is a
        zero-argument callable whose value changing signals that the
        payload's substrate was touched externally and the session must be
        invalidated (:mod:`repro.cache.sessions`).  The default returns
        ``None`` — nothing is retained for engines without the capability.
        """
        return None

    def resume_session(self, payload, gates_already_applied: int = 0) -> None:
        """Adopt a forked session ``payload`` as the prepared state.

        Replaces :meth:`prepare` on a prefix-resumed run: the engine must
        behave exactly as if it had just executed the payload's gate prefix
        itself (``gates_already_applied`` seeds the gate counter so
        statistics match the equivalent cold run).  Engines without
        ``capabilities.supports_prefix_resume`` refuse.
        """
        raise UnsupportedGateError(
            f"engine {self.capabilities.name!r} does not support prefix "
            f"resume (Capabilities.supports_prefix_resume is False)")

    # -- crash-safe snapshots (checkpoint / resume) ------------------------ #
    def export_snapshot(self, path: str, extra=None) -> bool:
        """Write the engine's current state to a snapshot file.

        Engines declaring ``capabilities.supports_snapshots`` serialise
        their prepared state to ``path`` atomically (see
        :mod:`repro.snapshot`) and return ``True``; ``extra`` is an
        arbitrary JSON-compatible dict stored verbatim for the calling
        layer.  Safe only at a gate boundary.  The default ignores the
        request and returns ``False`` — the same graceful-degradation
        contract as :meth:`configure_reordering`, so one
        ``checkpoint_every=`` flag is safe to pass to every engine of a
        mixed sweep.
        """
        return False

    def restore_snapshot(self, path: str):
        """Adopt the snapshot at ``path`` as the prepared state.

        Replaces :meth:`prepare` on a resumed run: the engine must behave
        exactly as if it had just executed the snapshotted gate prefix
        itself.  Returns the ``extra`` dict given to
        :meth:`export_snapshot`.  Raises
        :class:`repro.snapshot.SnapshotCorruptError` on a damaged file
        (never restores garbage) and
        :class:`~repro.exceptions.UnsupportedGateError` on engines
        without ``capabilities.supports_snapshots``.
        """
        raise UnsupportedGateError(
            f"engine {self.capabilities.name!r} does not support snapshots "
            f"(Capabilities.supports_snapshots is False)")

    # -- statistics ------------------------------------------------------ #
    def statistics(self) -> Dict[str, float]:
        """Canonical run statistics; subclasses extend with engine extras."""
        return {
            "num_qubits": self.num_qubits,
            "gates_applied": self._gates_applied,
            "peak_memory_nodes": self.memory_nodes(),
            "elapsed_seconds": self.elapsed_seconds(),
        }

    @property
    @abc.abstractmethod
    def num_qubits(self) -> int:
        """Register size of the prepared circuit."""

    def elapsed_seconds(self) -> float:
        """Wall-clock seconds since :meth:`prepare`."""
        if self._prepared_at is None:
            return 0.0
        return time.perf_counter() - self._prepared_at

    # -- helpers --------------------------------------------------------- #
    def ensure_supported(self, gate: Gate) -> None:
        """Raise :class:`UnsupportedGateError` unless ``gate`` is inside the
        declared capability set (convenience for engines whose native core
        does not police its own gate set)."""
        if not self.capabilities.supports_gate(gate):
            raise UnsupportedGateError(
                f"gate {gate.kind.value} (controls={len(gate.controls)}) is "
                f"outside the declared capabilities of engine "
                f"{self.capabilities.name!r}")

    def run(self, circuit: QuantumCircuit, limits=None, rng=None) -> "Engine":
        """Convenience: ``prepare`` then execute every instruction; returns
        ``self``.  Dynamic instructions (mid-circuit measurement, reset,
        ``if(c==v)`` conditions) are interpreted by the shared executor in
        :mod:`repro.engines.dynamic`, drawing from ``rng``; the final
        classical register is stored in :attr:`classical_bits`.
        Budget-enforced execution goes through
        :class:`~repro.engines.limits.LimitEnforcer` instead."""
        from repro.engines.dynamic import execute_program

        self.prepare(circuit, limits)
        self.classical_bits = execute_program(self, circuit, rng=rng)
        return self

    def _count_gate(self, gate: Gate) -> None:
        """Bump the applied-gate counter (measurement markers excluded)."""
        if gate.kind is not GateKind.MEASURE:
            self._gates_applied += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(engine={self.capabilities.name!r})"
