"""Tests for the monolithic-BDD measurement engine (paper Section III-E)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.statevector import StatevectorSimulator
from repro.circuit.circuit import QuantumCircuit
from repro.core.measurement import ExactProbability, MeasurementEngine
from repro.core.simulator import BitSliceSimulator

from tests.conftest import build_circuit_from_ops, random_ops


def engines_for(circuit: QuantumCircuit):
    simulator = BitSliceSimulator.simulate(circuit)
    reference = StatevectorSimulator.simulate(circuit)
    return simulator, MeasurementEngine(simulator.state), reference


class TestExactProbability:
    def test_zero(self):
        probability = ExactProbability()
        assert probability.is_zero()
        assert probability.to_float() == 0.0

    def test_accumulation_and_scaling(self):
        probability = ExactProbability(k=2)
        probability.add_numerator(1, 1)
        probability.add_numerator(2, -1)
        assert not probability.is_zero()
        assert probability.to_float() == pytest.approx(3 / 4)
        assert probability.scaled(4).to_float() == pytest.approx(3.0)
        assert probability.to_float(extra_scale=2.0) == pytest.approx(3 / 2)

    def test_repr(self):
        assert "sqrt2" in repr(ExactProbability(1, 2, 3))

    def test_exponent_past_the_float_range(self):
        # 2.0 ** 1030 overflows; the value itself is a (subnormal) float.
        assert ExactProbability(1, 0, 1030).to_float() == 2.0 ** -1030
        assert ExactProbability(1 << 1100, 0, 1101).to_float(extra_scale=2.0) == 1.0


class TestHyperfunction:
    def test_total_probability_is_exactly_one(self):
        circuit = QuantumCircuit(3).h(0).t(0).cx(0, 1).h(2).s(2).cx(2, 1)
        simulator, engine, _ = engines_for(circuit)
        assert engine.total_probability() == pytest.approx(1.0, abs=1e-15)

    def test_hyperfunction_uses_fresh_variables_below_qubits(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        simulator, engine, _ = engines_for(circuit)
        hyper = engine.build_hyperfunction()
        manager = simulator.state.manager
        assert manager.num_vars > circuit.num_qubits
        # The hyper-function depends on at least one encoding variable.
        assert any(var >= circuit.num_qubits for var in hyper.support())

    def test_rebuilding_after_gates_reflects_new_state(self):
        simulator = BitSliceSimulator(1)
        engine = MeasurementEngine(simulator.state)
        assert engine.probability_of_qubit(0, 0) == pytest.approx(1.0)
        simulator.apply_gate(QuantumCircuit(1).x(0).gates[0])
        assert engine.probability_of_qubit(0, 0) == pytest.approx(0.0)


class TestProbabilityQueries:
    @pytest.mark.parametrize("seed", range(5))
    def test_qubit_probabilities_match_oracle(self, seed):
        ops = random_ops(3, 15, seed)
        circuit = build_circuit_from_ops(3, ops)
        simulator, engine, reference = engines_for(circuit)
        for qubit in range(3):
            for value in (0, 1):
                assert engine.probability_of_qubit(qubit, value) == pytest.approx(
                    reference.probability_of_qubit(qubit, value), abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_joint_outcome_probabilities_match_oracle(self, seed):
        ops = random_ops(4, 20, seed + 100)
        circuit = build_circuit_from_ops(4, ops)
        simulator, engine, reference = engines_for(circuit)
        for outcome in range(4):
            bits = [(outcome >> 1) & 1, outcome & 1]
            assert engine.probability_of_outcome([0, 3], bits) == pytest.approx(
                reference.probability_of_outcome([0, 3], bits), abs=1e-9)

    def test_outcome_length_mismatch(self):
        circuit = QuantumCircuit(2).h(0)
        _, engine, _ = engines_for(circuit)
        with pytest.raises(ValueError):
            engine.probability_of_outcome([0, 1], [0])

    @pytest.mark.parametrize("seed", range(3))
    def test_distribution_matches_oracle(self, seed):
        ops = random_ops(3, 12, seed + 50)
        circuit = build_circuit_from_ops(3, ops)
        simulator, engine, reference = engines_for(circuit)
        ours = engine.measurement_distribution()
        expected = reference.measurement_distribution()
        for outcome in range(8):
            assert ours.get(outcome, 0.0) == pytest.approx(expected.get(outcome, 0.0),
                                                           abs=1e-9)

    def test_distribution_over_subset(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
        _, engine, _ = engines_for(circuit)
        marginal = engine.measurement_distribution([1])
        assert marginal[0] == pytest.approx(0.5)
        assert marginal[1] == pytest.approx(0.5)


class TestCollapse:
    def test_forced_measurement_collapses_and_renormalises(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        simulator, engine, _ = engines_for(circuit)
        outcome = engine.measure_qubit(0, forced_outcome=1)
        assert outcome == 1
        # p = 1/2 is an exact power of two, so the 1/sqrt(p) renormalisation
        # folds into the global exponent k exactly; s stays at exactly 1.0
        # and the collapsed state remains exact (|11> with amplitude 1).
        assert simulator.state.s == 1.0
        assert simulator.state.k == 0
        assert simulator.amplitude(0b11).to_complex() == 1.0
        # After the collapse, qubit 1 must be 1 with certainty.
        assert engine.probability_of_qubit(1, 1) == pytest.approx(1.0)
        assert engine.total_probability() == pytest.approx(1.0)

    def test_sequential_measurement_of_all_qubits(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
        simulator, engine, _ = engines_for(circuit)
        outcomes = engine.measure_qubits([0, 1, 2], forced_outcomes=[0, 0, 0])
        assert outcomes == [0, 0, 0]
        assert engine.probability_of_outcome([0, 1, 2], [0, 0, 0]) == pytest.approx(1.0)

    def test_random_measurement_follows_distribution(self, rng):
        circuit = QuantumCircuit(1).h(0)
        ones = 0
        trials = 200
        for trial in range(trials):
            simulator = BitSliceSimulator.simulate(circuit)
            ones += simulator.measure_qubit(0, rng=rng)
        # A fair coin: 200 trials land in [60, 140] except with ~1e-9 chance.
        assert 60 <= ones <= 140

    def test_collapse_onto_impossible_outcome_rejected(self):
        circuit = QuantumCircuit(2).x(0)
        simulator, engine, _ = engines_for(circuit)
        with pytest.raises(ValueError):
            engine.measure_qubit(0, forced_outcome=0)


class TestSampling:
    def test_sampling_distribution_on_bell_state(self, rng):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        simulator, engine, _ = engines_for(circuit)
        counts = engine.sample(1000, rng=rng)
        assert set(counts) <= {0b00, 0b11}
        assert sum(counts.values()) == 1000
        assert 350 <= counts.get(0b00, 0) <= 650

    def test_sampling_does_not_collapse(self, rng):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        simulator, engine, _ = engines_for(circuit)
        engine.sample(50, rng=rng)
        assert simulator.state.s == 1.0
        assert engine.probability_of_qubit(0, 0) == pytest.approx(0.5)

    def test_sampling_subset_of_qubits(self, rng):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).x(2)
        simulator, engine, _ = engines_for(circuit)
        counts = engine.sample(200, qubits=[2], rng=rng)
        assert counts == {1: 200}

    def test_wide_register_descent(self, rng):
        """An 18-qubit GHZ state samples through the slice descent."""
        circuit = QuantumCircuit(18)
        circuit.h(0)
        for qubit in range(17):
            circuit.cx(qubit, qubit + 1)
        simulator, engine, _ = engines_for(circuit)
        counts = engine.sample(5, rng=rng)
        assert sum(counts.values()) == 5
        assert set(counts) <= {0, (1 << 18) - 1}

    @pytest.mark.parametrize("seed", [0, 3])
    def test_simulator_counts_equal_front_door(self, seed):
        """One sampler for the bit-sliced stack: equal seeds, equal counts."""
        import repro

        circuit = build_circuit_from_ops(5, random_ops(5, 20, seed + 40))
        simulator = BitSliceSimulator.simulate(circuit)
        counts = simulator.sample(300, rng=np.random.default_rng(seed))
        assert counts == repro.run(circuit, engine="bitslice", shots=300,
                                   seed=seed).counts
