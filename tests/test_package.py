"""Package-level tests: public API surface and cross-engine integration."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

import repro
from repro import (
    AlgebraicComplex,
    BitSliceSimulator,
    QmddSimulator,
    QuantumCircuit,
    StabilizerSimulator,
    StatevectorSimulator,
)

from tests.conftest import assert_states_close, build_circuit_from_ops, random_ops


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "0.1.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("package", ["repro", "repro.resilience"])
    def test_lazy_exports_are_listed_and_unknown_names_raise(self, package):
        """The packages that resolve their names on first access still list
        every export in ``dir()`` and raise ``AttributeError`` for any other
        name."""
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name

    def test_readme_snippet(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        result = BitSliceSimulator.simulate(circuit)
        distribution = result.measurement_distribution()
        assert distribution[0b00] == pytest.approx(0.5)
        assert distribution[0b11] == pytest.approx(0.5)


class TestCrossEngineAgreement:
    """The four engines must agree wherever their domains overlap."""

    @pytest.mark.parametrize("seed", range(4))
    def test_universal_engines_agree(self, seed):
        circuit = build_circuit_from_ops(4, random_ops(4, 25, seed + 400))
        dense = StatevectorSimulator.simulate(circuit).state
        bitsliced = BitSliceSimulator.simulate(circuit).to_numpy()
        qmdd = QmddSimulator.simulate(circuit).to_numpy()
        assert_states_close(bitsliced, dense)
        assert_states_close(qmdd, dense, tol=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_clifford_engines_agree_on_marginals(self, seed):
        clifford_ops = ("x", "y", "z", "h", "s", "sdg", "cx", "cz", "swap")
        circuit = build_circuit_from_ops(4, random_ops(4, 25, seed + 500,
                                                       mnemonics=clifford_ops))
        dense = StatevectorSimulator.simulate(circuit)
        tableau = StabilizerSimulator.simulate(circuit)
        exact = BitSliceSimulator.simulate(circuit)
        for qubit in range(4):
            expected = dense.probability_of_qubit(qubit, 0)
            assert tableau.probability_of_qubit(qubit, 0) == pytest.approx(expected, abs=1e-9)
            assert exact.probability_of_qubit(qubit, 0) == pytest.approx(expected, abs=1e-9)

    def test_exact_amplitude_example_from_paper_representation(self):
        # H|0> has amplitude 1/sqrt(2) = (0, 0, 0, 1, k=1) exactly (Eq. 5).
        circuit = QuantumCircuit(1).h(0)
        amplitude = BitSliceSimulator.simulate(circuit).amplitude(0)
        assert amplitude == AlgebraicComplex(0, 0, 0, 1, 1)

    def test_collapse_consistency_between_engines(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
        exact = BitSliceSimulator.simulate(circuit)
        dense = StatevectorSimulator.simulate(circuit)
        exact.measure_qubit(1, forced_outcome=1)
        dense.measure_qubit(1, forced_outcome=1)
        assert_states_close(exact.to_numpy(), dense.state)


class TestFailureInjection:
    """Corrupted inputs and hostile parameters must fail loudly, not wrongly."""

    def test_gate_on_missing_qubit(self):
        with pytest.raises(ValueError):
            QuantumCircuit(2).h(5)

    def test_engines_reject_size_mismatch(self):
        circuit = QuantumCircuit(3).h(0)
        for engine_class in (BitSliceSimulator, QmddSimulator,
                             StatevectorSimulator, StabilizerSimulator):
            with pytest.raises(ValueError):
                engine_class(2).run(circuit)

    def test_probability_queries_validate_indices(self):
        simulator = BitSliceSimulator.simulate(QuantumCircuit(2).h(0))
        with pytest.raises(ValueError):
            simulator.probability_of_qubit(4, 0)
        with pytest.raises(ValueError):
            simulator.amplitude(9)
