"""The exact slice sampler: slice-mass kernel and path-walk cofactors.

Every probability the sampler reports is checked against the dense
statevector simulator, which shares no code with the slice path.
"""

import numpy as np
import pytest

from repro.baselines.statevector import StatevectorSimulator
from repro.circuit.circuit import QuantumCircuit
from repro.core.sampling import SliceSampler, sample_state
from repro.core.simulator import BitSliceSimulator


def prepared(circuit):
    return BitSliceSimulator.simulate(circuit)


def all_prefixes(n, depth):
    if depth == 0:
        return [()]
    shorter = all_prefixes(n, depth - 1)
    return [prefix + (bit,) for prefix in shorter for bit in (0, 1)]


class TestMassesAgainstStatevector:
    @pytest.mark.parametrize("builder", [
        lambda: QuantumCircuit(3, name="ghz").h(0).cx(0, 1).cx(1, 2),
        lambda: QuantumCircuit(3, name="t_layers").h(0).t(0).cx(0, 1).t(1)
                .h(2).s(2).cx(2, 0),
        lambda: QuantumCircuit(4, name="mixed").h(0).h(1).ccx([0, 1], 2)
                .t(2).cx(2, 3).h(3),
    ], ids=["ghz", "t_layers", "mixed"])
    def test_every_prefix_probability_matches(self, builder):
        circuit = builder()
        simulator = prepared(circuit)
        dense = StatevectorSimulator.simulate(circuit)
        n = circuit.num_qubits
        sampler = SliceSampler(simulator.state, list(range(n)))
        for depth in range(n + 1):
            for prefix in all_prefixes(n, depth):
                expected = dense.probability_of_outcome(
                    list(range(depth)), list(prefix))
                assert sampler.prefix_probability(prefix) == pytest.approx(
                    expected, abs=1e-12), prefix

    def test_root_mass_is_unity(self):
        simulator = prepared(QuantumCircuit(5, name="h5").h(0).h(1).h(2).h(3).h(4))
        sampler = SliceSampler(simulator.state, list(range(5)))
        assert sampler.prefix_probability(()) == pytest.approx(1.0, abs=1e-12)

    def test_mass_is_exact_integer_pair(self):
        simulator = prepared(QuantumCircuit(2, name="bell").h(0).cx(0, 1))
        sampler = SliceSampler(simulator.state, [0, 1])
        # k = 1, depth 1: Pr[q0=0] = 1/2 = x / 2**(k + depth) with x = 2.
        assert sampler.prefix_mass((0,)) == (2, 0)

    def test_qubit_order_respected(self):
        circuit = QuantumCircuit(2, name="x0").x(0)
        simulator = prepared(circuit)
        sampler = SliceSampler(simulator.state, [1, 0])
        assert sampler.prefix_probability((0,)) == pytest.approx(1.0)
        assert sampler.prefix_probability((0, 1)) == pytest.approx(1.0)


class TestSampleState:
    def test_counts_sum_and_support(self):
        circuit = QuantumCircuit(3, name="ghz").h(0).cx(0, 1).cx(1, 2)
        simulator = prepared(circuit)
        counts = sample_state(simulator.state, 999,
                              rng=np.random.default_rng(4))
        assert sum(counts.values()) == 999
        assert set(counts) <= {0b000, 0b111}

    def test_sampling_does_not_collapse(self):
        circuit = QuantumCircuit(2, name="bell").h(0).cx(0, 1)
        simulator = prepared(circuit)
        sample_state(simulator.state, 100, rng=np.random.default_rng(0))
        assert simulator.probability_of_qubit(0, 0) == pytest.approx(0.5)
        assert simulator.state.s == 1.0

    def test_wide_register_sampling_is_cheap(self):
        """A 40-qubit GHZ state samples fine: cost scales with distinct
        outcomes, not 2**n."""
        n = 40
        circuit = QuantumCircuit(n, name="ghz40").h(0)
        for qubit in range(n - 1):
            circuit.cx(qubit, qubit + 1)
        simulator = prepared(circuit)
        counts = sample_state(simulator.state, 1000,
                              rng=np.random.default_rng(1))
        assert set(counts) <= {0, (1 << n) - 1}
        assert sum(counts.values()) == 1000

    def test_work_counters(self):
        circuit = QuantumCircuit(3, name="ghz").h(0).cx(0, 1).cx(1, 2)
        simulator = prepared(circuit)
        sampler = SliceSampler(simulator.state, [0, 1, 2])
        from repro.engines.sampling import sample_by_descent

        sample_by_descent(sampler.branch_probability, 3, 256,
                          np.random.default_rng(2))
        stats = sampler.statistics()
        assert stats["sampler_restrict_batches"] > 0
        assert stats["sampler_mass_evaluations"] > 0
        assert stats["sampler_distinct_prefixes"] == stats["sampler_restrict_batches"]
        # Level order: every cofactor is a path step, no restrict_many.
        assert sampler.fallback_restricts == 0

    def test_fallback_restricts_only_out_of_level_order(self):
        circuit = QuantumCircuit(3, name="ghz").h(0).cx(0, 1).cx(1, 2)
        simulator = prepared(circuit)
        sampler = SliceSampler(simulator.state, [2, 0, 1])
        from repro.engines.sampling import sample_by_descent

        sample_by_descent(sampler.branch_probability, 3, 256,
                          np.random.default_rng(2))
        assert sampler.fallback_restricts > 0
