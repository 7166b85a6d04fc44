"""The exact slice-mass kernel behind sampling and outcome queries.

:class:`~repro.core.measurement.SliceMass` sums ``|amplitude|**2`` in one
memoised walk over the tuple of ``4r`` slice nodes, and
:class:`~repro.core.sampling.SliceSampler` feeds it path-walk cofactors.
The reference below is the sampler's earlier Gram-matrix mass — model counts
of pairwise slice conjunctions over ``restrict_many`` cofactors — and every
property demands *identical* integer pairs, not merely equal floats.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import QuantumCircuit
from repro.bdd import Bdd
from repro.core.bitslice import VECTOR_NAMES
from repro.core.measurement import MeasurementEngine
from repro.core.sampling import SliceSampler, sample_state
from repro.engines import FINAL_QUERY_QUBIT_CAP
from repro.core.simulator import BitSliceSimulator

from tests.conftest import OP_ARITY, build_circuit_from_ops

NUM_QUBITS = 4


class GramReference:
    """Prefix masses from ``sum_{j,l} w_j w_l |sat(u_j & v_l)|`` over
    restricted slice families (anchored, so GC between steps is safe)."""

    def __init__(self, state, qubits):
        self.state = state
        self.manager = state.manager
        self.qubits = list(qubits)
        self.families = {(): [Bdd(self.manager, bit.node) for bit in state.all_slices()]}

    def family(self, prefix):
        if prefix not in self.families:
            parent = self.family(prefix[:-1])
            var = self.state.qubit_var(self.qubits[len(prefix) - 1])
            nodes = self.manager.restrict_many([h.node for h in parent], var,
                                               bool(prefix[-1]))
            self.families[prefix] = [Bdd(self.manager, node) for node in nodes]
        return self.families[prefix]

    def prefix_mass(self, prefix):
        family = self.family(prefix)
        r = self.state.r
        weights = [1 << j for j in range(r - 1)] + [-(1 << (r - 1))]
        blocks = {name: [h.node for h in family[i * r:(i + 1) * r]]
                  for i, name in enumerate(VECTOR_NAMES)}

        def gram(left, right):
            total = 0
            for j, u in enumerate(blocks[left]):
                for l, v in enumerate(blocks[right]):
                    if u and v:
                        both = self.manager.and_many([(u, v)])[0]
                        count = self.manager.satcount(both, self.state.num_qubits)
                        total += weights[j] * weights[l] * count
            return total

        x = sum(gram(v, v) for v in VECTOR_NAMES)
        y = gram("a", "b") + gram("b", "c") + gram("c", "d") - gram("a", "d")
        return x, y


def all_prefixes(depth):
    prefixes = [()]
    for length in range(depth):
        prefixes += [p + (bit,) for p in prefixes if len(p) == length for bit in (0, 1)]
    return prefixes


@st.composite
def op_lists(draw, max_size=20):
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_size))):
        mnemonic = draw(st.sampled_from(tuple(OP_ARITY)))
        qubits = draw(st.permutations(list(range(NUM_QUBITS))))
        ops.append((mnemonic, tuple(qubits[:OP_ARITY[mnemonic]])))
    return ops


#: A qubit list in any order, of any length from one to all qubits.
qubit_lists = st.permutations(list(range(NUM_QUBITS))).flatmap(
    lambda order: st.integers(1, NUM_QUBITS).map(lambda size: order[:size]))


def simulate(ops):
    return BitSliceSimulator.simulate(build_circuit_from_ops(NUM_QUBITS, ops))


def assert_masses_match(state, qubits, between_steps=None):
    sampler = SliceSampler(state, qubits)
    reference = GramReference(state, qubits)
    for prefix in all_prefixes(len(qubits)):
        assert sampler.prefix_mass(prefix) == reference.prefix_mass(prefix), prefix
        if between_steps is not None:
            between_steps()


@settings(max_examples=50, deadline=None)
@given(op_lists(), qubit_lists)
def test_masses_match_gram_reference(ops, qubits):
    assert_masses_match(simulate(ops).state, qubits)


@settings(max_examples=30, deadline=None)
@given(op_lists(), qubit_lists)
def test_masses_match_after_sift(ops, qubits):
    simulator = simulate(ops)
    simulator.sift()
    assert_masses_match(simulator.state, qubits)


@settings(max_examples=30, deadline=None)
@given(op_lists(), qubit_lists)
def test_masses_match_with_gc_and_sift_between_steps(ops, qubits):
    simulator = simulate(ops)
    manager = simulator.state.manager

    def churn():
        manager.garbage_collect()
        simulator.sift()

    assert_masses_match(simulator.state, qubits, between_steps=churn)


@settings(max_examples=30, deadline=None)
@given(op_lists(), qubit_lists, st.integers(0, NUM_QUBITS - 1))
def test_masses_match_after_inexact_collapse(ops, qubits, measured):
    # H then T on the measured qubit makes Pr[1] irrational for some states;
    # the collapse then leaves s != 1.
    simulator = simulate(ops + [("h", (measured,)), ("t", (measured,)),
                                ("h", (measured,))])
    engine = MeasurementEngine(simulator.state)
    if engine.probability_of_qubit(measured, 1) > 1e-9:
        engine.measure_qubit(measured, forced_outcome=1)
    assert_masses_match(simulator.state, qubits)
    sampler = SliceSampler(simulator.state, qubits)
    assert sampler.prefix_probability(()) == pytest.approx(1.0, abs=1e-9)


def test_collapse_leaves_inexact_factor():
    """The collapse property above really reaches ``s != 1``."""
    simulator = BitSliceSimulator.simulate(QuantumCircuit(1).h(0).t(0).h(0))
    simulator.measure_qubit(0, forced_outcome=1)
    assert simulator.state.s != 1.0
    sampler = SliceSampler(simulator.state, [0])
    assert sampler.prefix_probability((1,)) == pytest.approx(1.0, abs=1e-12)
    assert sampler.prefix_mass((1,)) == GramReference(
        simulator.state, [0]).prefix_mass((1,))


class TestRepeatedQubits:
    def test_conflicting_values_have_zero_mass(self):
        simulator = BitSliceSimulator.simulate(QuantumCircuit(2).h(0).cx(0, 1))
        sampler = SliceSampler(simulator.state, [0, 0])
        assert sampler.prefix_mass((0, 1)) == (0, 0)
        assert sampler.prefix_probability((0, 0)) == pytest.approx(0.5)

    def test_counts_on_a_repeated_qubit_agree_with_its_value(self):
        simulator = BitSliceSimulator.simulate(QuantumCircuit(2).h(0).cx(0, 1))
        counts = sample_state(simulator.state, 200, qubits=[0, 1, 0],
                              rng=np.random.default_rng(5))
        assert set(counts) <= {0b000, 0b111}
        assert sum(counts.values()) == 200


class TestDeepRegisters:
    WIDTH = 640  # above the manager's recursive-path limit of 600 variables

    def test_sampling_and_queries_under_low_recursion_limit(self):
        circuit = QuantumCircuit(self.WIDTH).h(0).t(0).h(0).cx(0, self.WIDTH - 1)
        simulator = BitSliceSimulator.simulate(circuit)
        engine = MeasurementEngine(simulator.state)
        old_limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(220)
            counts = simulator.sample(64, rng=np.random.default_rng(0))
            zeros = engine.probability_of_outcome(list(range(64)), [0] * 64)
            last_one = engine.probability_of_qubit(self.WIDTH - 1, 1)
        finally:
            sys.setrecursionlimit(old_limit)
        assert sum(counts.values()) == 64
        assert set(counts) == {0, (1 << (self.WIDTH - 1)) | 1}
        assert zeros == pytest.approx((2 + 2 ** 0.5) / 4)
        assert last_one == pytest.approx((2 - 2 ** 0.5) / 4)


class TestWideFrontDoor:
    """Registers above 1 023 qubits: no recursion, no float overflow."""

    def test_final_query(self):
        result = repro.run(QuantumCircuit(1100).h(0), engine="bitslice")
        assert result.status == "ok"
        assert result.final_probability == 0.5

    def test_final_query_after_1030_hadamards(self):
        # The exact probability carries k = 1030, past 2.0 ** k's range.
        circuit = QuantumCircuit(1030)
        for qubit in range(1030):
            circuit.h(qubit)
        result = repro.run(circuit, engine="bitslice")
        assert result.status == "ok"
        assert result.final_probability == 2.0 ** -FINAL_QUERY_QUBIT_CAP

    def test_sampling_rekeys_the_two_qubit_counts(self):
        wide = repro.run(QuantumCircuit(1100).h(0), engine="bitslice",
                         shots=64, seed=0)
        narrow = repro.run(QuantumCircuit(2).h(0), engine="bitslice",
                           shots=64, seed=0)
        assert wide.status == "ok"
        assert narrow.counts == {0: 33, 2: 31}
        assert wide.counts == {0: 33, 1 << 1099: 31}
