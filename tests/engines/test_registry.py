"""Tests for the capability-aware registry: aliases, registration rules and
the ``"auto"`` selector."""

from __future__ import annotations

import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.engines import (
    Capabilities,
    Engine,
    ResourceLimits,
    UnknownEngineError,
    available_engines,
    engine_aliases,
    engine_capabilities,
    engine_labels,
    register_engine,
    resolve_engine,
    resolve_engine_name,
    select_engine,
    unregister_engine,
)
from repro.engines.base import ALL_GATE_KINDS
from repro.workloads.algorithms import bernstein_vazirani_circuit, ghz_circuit
from repro.workloads.random_circuits import generate_random_circuit


def t_layer_circuit(num_qubits: int) -> QuantumCircuit:
    """A wide non-Clifford circuit (H prologue + T layer)."""
    circuit = QuantumCircuit(num_qubits, name=f"tlayer_{num_qubits}")
    for qubit in range(num_qubits):
        circuit.h(qubit)
    for qubit in range(num_qubits):
        circuit.t(qubit)
    return circuit


class TestRegistry:
    def test_builtin_engines_present(self):
        assert {"bitslice", "qmdd", "statevector", "stabilizer"} <= set(available_engines())

    @pytest.mark.parametrize("alias,canonical", [
        ("bdd", "bitslice"),
        ("sliqsim", "bitslice"),
        ("ddsim", "qmdd"),
        ("dense", "statevector"),
        ("sv", "statevector"),
        ("chp", "stabilizer"),
        ("tableau", "stabilizer"),
    ])
    def test_alias_resolution(self, alias, canonical):
        assert resolve_engine_name(alias) == canonical
        assert engine_aliases()[alias] == canonical

    def test_unknown_engine_raises(self):
        with pytest.raises(UnknownEngineError):
            resolve_engine_name("definitely-not-an-engine")

    def test_unknown_engine_is_a_keyerror(self):
        # Back-compat: pre-redesign callers caught KeyError.
        with pytest.raises(KeyError):
            resolve_engine_name("definitely-not-an-engine")

    def test_labels_from_capabilities(self):
        labels = engine_labels()
        assert labels["bitslice"] == "Ours (bit-sliced BDD)"
        assert labels["stabilizer"] == "CHP stabilizer"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            @register_engine("bitslice")
            class Clash(Engine):  # pragma: no cover - never instantiated
                capabilities = Capabilities(
                    name="bitslice", label="clash",
                    supported_gates=ALL_GATE_KINDS, exact=True)

    def test_auto_name_reserved(self):
        with pytest.raises(ValueError):
            register_engine("auto")

    def test_capabilities_required(self):
        with pytest.raises(TypeError):
            @register_engine("capless")
            class Capless(Engine):  # pragma: no cover - never instantiated
                pass

    def test_register_and_unregister_custom_engine(self):
        @register_engine("custom-test", aliases=("ct",))
        class CustomEngine(Engine):
            capabilities = Capabilities(
                name="custom-test", label="Custom",
                supported_gates=ALL_GATE_KINDS, exact=False,
                selection_priority=99)

            def prepare(self, circuit, limits=None):
                super().prepare(circuit, limits)
                self._n = circuit.num_qubits

            def apply(self, gate):
                self._count_gate(gate)

            def probability(self, qubits, bits):
                return 1.0

            def memory_nodes(self):
                return 1

            @property
            def num_qubits(self):
                return self._n

        try:
            assert "custom-test" in available_engines()
            assert resolve_engine_name("ct") == "custom-test"
            assert engine_capabilities("custom-test").selection_priority == 99
        finally:
            unregister_engine("custom-test")
        assert "custom-test" not in available_engines()
        with pytest.raises(UnknownEngineError):
            resolve_engine_name("ct")


class TestAutoSelection:
    def test_pure_clifford_picks_stabilizer(self):
        # The acceptance case: a pure-Clifford GHZ circuit lands on the
        # polynomial-time tableau regardless of size.
        assert select_engine(ghz_circuit(8)) == "stabilizer"
        assert select_engine(ghz_circuit(100)) == "stabilizer"

    def test_small_nonclifford_picks_statevector(self):
        circuit = t_layer_circuit(6)
        limits = ResourceLimits(max_dense_qubits=24)
        assert select_engine(circuit, limits) == "statevector"

    def test_wide_nonclifford_picks_bitslice(self):
        circuit = t_layer_circuit(40)
        limits = ResourceLimits(max_dense_qubits=24)
        assert select_engine(circuit, limits) == "bitslice"

    def test_dense_cutoff_respects_limits(self):
        circuit = t_layer_circuit(10)
        assert select_engine(circuit, ResourceLimits(max_dense_qubits=9)) == "bitslice"
        assert select_engine(circuit, ResourceLimits(max_dense_qubits=10)) == "statevector"

    def test_dense_engine_never_picked_into_a_guaranteed_memout(self):
        # Regression: a 22-qubit non-Clifford circuit is under the dense
        # qubit cutoff, but the fixed 2**22 footprint exceeds the default
        # 500k node budget — auto must not pick an engine that would MO on
        # its very first limit check.
        circuit = t_layer_circuit(22)
        limits = ResourceLimits(max_seconds=60.0, max_nodes=500_000,
                                max_dense_qubits=24)
        assert select_engine(circuit, limits) == "bitslice"
        # With the budget lifted the dense engine is eligible again.
        roomy = ResourceLimits(max_seconds=60.0, max_nodes=None,
                               max_dense_qubits=24)
        assert select_engine(circuit, roomy) == "statevector"

    def test_clifford_bv_picks_stabilizer(self):
        # Bernstein-Vazirani is H/X/CX only, hence Clifford.
        assert select_engine(bernstein_vazirani_circuit(12)) == "stabilizer"

    def test_auto_checks_candidates_against_one_gate_profile(
            self, monkeypatch):
        """``auto`` walks the gates once per resolve, not once per
        candidate engine (the per-candidate walk made 658 ``supports_gate``
        calls for these 214 gates)."""
        circuit = generate_random_circuit(14, 200, seed=3)
        calls = []
        supports_gate = Capabilities.supports_gate
        monkeypatch.setattr(Capabilities, "supports_gate",
                            lambda self, gate: calls.append(gate)
                            or supports_gate(self, gate))
        assert resolve_engine("auto", circuit) == "statevector"
        assert 0 < len(calls) <= circuit.num_gates

    def test_profile_picks_what_a_full_gate_walk_picks(self):
        """The profile decides eligibility exactly as ``supports_circuit``
        does, including Clifford-ness that depends on control counts and
        the collapse support that mid-circuit measurement needs."""
        degenerate = QuantumCircuit(3, name="degenerate").h(0)
        degenerate.ccx([0], 1).cx(1, 2)
        full = QuantumCircuit(3, name="full").h(0).toffoli(0, 1, 2)
        full.fredkin(0, 1, 2)
        dynamic = QuantumCircuit(2, name="dynamic").h(0).cx(0, 1)
        dynamic.measure_mid(0, 0).reset(1)
        circuits = [degenerate, full, dynamic, ghz_circuit(6),
                    t_layer_circuit(5), bernstein_vazirani_circuit(6),
                    generate_random_circuit(6, 40, seed=11)]
        roomy = ResourceLimits(max_nodes=None)
        for circuit in circuits:
            walked = min((engine_capabilities(name).selection_priority, name)
                         for name in available_engines()
                         if engine_capabilities(name).supports_circuit(
                             circuit))[1]
            assert select_engine(circuit, roomy) == walked, circuit.name

    def test_resolve_engine_passthrough_and_auto(self):
        circuit = ghz_circuit(5)
        assert resolve_engine("auto", circuit) == "stabilizer"
        assert resolve_engine("ddsim", circuit) == "qmdd"
