"""Engine contract tests: one parametrized suite run against every
registered engine.

Three properties every engine must hold:

* **lifecycle** — ``prepare`` / ``apply`` / ``probability`` / ``statistics``
  work in order and agree with the dense oracle on a small circuit;
* **capability honesty** — gates the engine declares unsupported actually
  raise :class:`UnsupportedGateError`, and declared-supported gate kinds
  apply without one;
* **stats-schema conformance** — ``statistics()`` reports the canonical
  keys and never leaks a legacy per-engine spelling.
"""

from __future__ import annotations

import pytest

from repro.baselines.statevector import StatevectorSimulator
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import Gate, GateKind
from repro.engines import (
    CANONICAL_STATS_KEYS,
    LimitEnforcer,
    ResourceLimits,
    available_engines,
    create_engine,
    engine_capabilities,
)
from repro.engines.base import LEGACY_STATS_KEYS
from repro.exceptions import UnsupportedGateError
from repro.workloads.algorithms import ghz_circuit

ENGINES = available_engines()

LIMITS = ResourceLimits(max_seconds=60.0, max_nodes=200_000)


def _gate_for_kind(kind: GateKind) -> Gate:
    """A minimal concrete gate instance of ``kind`` on a 4-qubit register."""
    if kind in (GateKind.SWAP,):
        return Gate(kind, (0, 1))
    if kind is GateKind.CSWAP:
        return Gate(kind, (1, 2), (0,))
    if kind in (GateKind.CX, GateKind.CZ, GateKind.CCX):
        return Gate(kind, (1,), (0,))
    return Gate(kind, (0,))



BELL = QuantumCircuit(2, name="bell").h(0).cx(0, 1)


@pytest.mark.parametrize("engine", ENGINES)
class TestMalformedQuery:
    @pytest.mark.parametrize("qubits,bits", [([5], [0]), ([2], [0]),
                                             ([-1], [0]), ([0, 1], [0]),
                                             ([0], [0, 1])])
    def test_probability_rejects_a_malformed_query(self, engine, qubits,
                                                   bits):
        """An out-of-range or negative qubit, or an outcome of the wrong
        length, is a ``ValueError`` on every engine — never a wrapped
        index, an ignored qubit or a truncated outcome."""
        instance = create_engine(engine)
        instance.run(BELL, LIMITS)
        with pytest.raises(ValueError):
            instance.probability(qubits, bits)
        assert instance.probability([0, 1], [1, 1]) == pytest.approx(
            0.5, abs=1e-9)

    @pytest.mark.parametrize("qubits,bits,message", [
        ([True], [1], "not an integer"), ([1.0], [1], "not an integer"),
        ([0], [2], "not 0 or 1"), ([0, 1], [1, -1], "not 0 or 1")],
        ids=["bool-qubit", "float-qubit", "outcome-2", "outcome-minus-1"])
    def test_probability_rejects_a_malformed_index_or_value(
            self, engine, qubits, bits, message):
        """``True`` is not qubit 1 and 2 is not an outcome: the one query
        check refuses both with the same ``ValueError`` on every engine,
        instead of an answer on some and a numpy or index error on
        others."""
        instance = create_engine(engine)
        instance.run(BELL, LIMITS)
        with pytest.raises(ValueError, match=message):
            instance.probability(qubits, bits)

    @pytest.mark.parametrize("qubits", [[0, 5], [-1, 0]])
    def test_branch_probability_rejects_a_bad_qubit(self, engine, qubits):
        instance = create_engine(engine)
        instance.run(BELL, LIMITS)
        with pytest.raises(ValueError):
            instance.branch_probability(qubits)

    def test_branch_probability_checks_once_per_call(self, engine,
                                                     monkeypatch):
        """The descent's prefix oracle checks its qubit list when it is
        built, not again for every prefix it answers."""
        import repro.engines.adapters as adapters
        import repro.engines.base as base

        calls = []
        original = base.check_outcome_query

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(base, "check_outcome_query", counting)
        monkeypatch.setattr(adapters, "check_outcome_query", counting)
        instance = create_engine(engine)
        instance.run(BELL, LIMITS)
        oracle = instance.branch_probability([0, 1])
        answers = [oracle(prefix) for prefix in
                   [(0,), (1,), (0, 0), (1, 1), (0, 1)]]
        assert answers == pytest.approx([0.5, 0.5, 0.5, 0.5, 0.0],
                                        abs=1e-9)
        assert len(calls) == 1

    @pytest.mark.parametrize("qubits", [[0, 1], [1, 0], [0, 0]])
    def test_branch_probability_of_the_empty_prefix_is_one(self, engine,
                                                           qubits):
        instance = create_engine(engine)
        instance.run(BELL, LIMITS)
        assert instance.branch_probability(qubits)(()) == 1.0


@pytest.mark.parametrize("engine", ENGINES)
class TestLifecycle:
    def test_prepare_apply_probability_statistics(self, engine):
        circuit = ghz_circuit(4)
        instance = create_engine(engine)
        instance.prepare(circuit, LIMITS)
        for gate in circuit.gates:
            instance.apply(gate)
        assert instance.num_qubits == 4
        probability = instance.probability([0, 1, 2, 3], [0, 0, 0, 0])
        assert probability == pytest.approx(0.5, abs=1e-9)
        assert instance.probability([0], [1]) == pytest.approx(0.5, abs=1e-9)
        assert instance.memory_nodes() > 0

    def test_repeated_qubit_in_query(self, engine):
        """A qubit listed twice with different values has probability 0;
        equal repeats count once."""
        instance = create_engine(engine)
        instance.run(QuantumCircuit(2, name="h0").h(0), LIMITS)
        assert instance.probability([0, 0], [0, 1]) == 0.0
        assert instance.probability([0, 1, 0], [1, 0, 0]) == 0.0
        assert instance.probability([0, 0], [1, 1]) == pytest.approx(0.5, abs=1e-9)

    def test_limit_enforcer_execution(self, engine):
        circuit = ghz_circuit(4)
        instance = LimitEnforcer(create_engine(engine), LIMITS).execute(circuit)
        assert instance.probability([0, 1], [1, 1]) == pytest.approx(0.5, abs=1e-9)

    def test_joint_probability_matches_dense_oracle(self, engine):
        circuit = (QuantumCircuit(3, name="cliff3")
                   .h(0).s(0).cx(0, 1).h(2).cz(1, 2).sdg(2).h(1))
        oracle = StatevectorSimulator.simulate(circuit)
        instance = create_engine(engine)
        instance.run(circuit, LIMITS)
        for outcome in ([0, 0, 0], [1, 0, 1], [1, 1, 1]):
            expected = oracle.probability_of_outcome([0, 1, 2], outcome)
            assert instance.probability([0, 1, 2], outcome) == pytest.approx(
                expected, abs=1e-9)


@pytest.mark.parametrize("engine", ENGINES)
class TestCapabilityHonesty:
    def test_declared_supported_kinds_apply(self, engine):
        capabilities = engine_capabilities(engine)
        circuit = QuantumCircuit(4)
        instance = create_engine(engine)
        instance.prepare(circuit, LIMITS)
        for kind in sorted(capabilities.supported_gates, key=lambda k: k.value):
            gate = _gate_for_kind(kind)
            if not capabilities.supports_gate(gate):
                continue  # e.g. clifford_only engines with degenerate forms
            instance.apply(gate)

    def test_declared_unsupported_kinds_raise(self, engine):
        capabilities = engine_capabilities(engine)
        unsupported = [kind for kind in GateKind
                       if kind is not GateKind.MEASURE
                       and kind not in capabilities.supported_gates]
        for kind in unsupported:
            instance = create_engine(engine)
            instance.prepare(QuantumCircuit(4), LIMITS)
            with pytest.raises(UnsupportedGateError):
                instance.apply(_gate_for_kind(kind))

    def test_unsupported_gate_instances_raise(self, engine):
        """Clifford-only engines must reject non-Clifford *instances* of
        supported kinds (e.g. a two-control Toffoli)."""
        capabilities = engine_capabilities(engine)
        toffoli = Gate(GateKind.CCX, (2,), (0, 1))
        if capabilities.supports_gate(toffoli):
            return
        instance = create_engine(engine)
        instance.prepare(QuantumCircuit(4), LIMITS)
        with pytest.raises(UnsupportedGateError):
            instance.apply(toffoli)


@pytest.mark.parametrize("engine", ENGINES)
class TestStatsSchema:
    def test_canonical_keys_present(self, engine):
        circuit = ghz_circuit(5)
        instance = create_engine(engine)
        instance.run(circuit, LIMITS)
        stats = instance.statistics()
        for key in CANONICAL_STATS_KEYS:
            assert key in stats, f"{engine} missing canonical stat {key!r}"
        assert stats["num_qubits"] == 5
        assert stats["gates_applied"] == 5
        assert stats["peak_memory_nodes"] > 0
        assert stats["elapsed_seconds"] >= 0.0

    def test_no_legacy_keys_leak(self, engine):
        instance = create_engine(engine)
        instance.run(ghz_circuit(3), LIMITS)
        stats = instance.statistics()
        for key in LEGACY_STATS_KEYS:
            assert key not in stats, (
                f"{engine} leaks legacy stat spelling {key!r}; adapters must "
                f"normalise to the canonical schema")

    def test_capability_descriptor_consistency(self, engine):
        capabilities = engine_capabilities(engine)
        assert capabilities.name == engine
        assert capabilities.label
        assert capabilities.supported_gates
