"""Tests for the batched gate-rule plumbing added with the fused kernels.

The full gate semantics are already pinned against the dense oracle in
``test_gate_rules.py``; these tests cover the new machinery specifically:
the butterfly ripple of H, Rx(pi/2) and Ry(pi/2) (one ``butterfly_add_many``
batch per bit position, overflow by node id) vs the cofactor / flip operands
and the reference composition adder, the
closed-form conditional negation vs Table II's complement-plus-carry adder,
the one-pass literal kernels (variable flip, condition XOR) vs the
restrict/restrict/ITE and NOT + ITE forms they replace, the controlled
flip / swap kernel behind X, CX, CCX, SWAP and CSWAP vs Table II's
``not C F + C act(F)``, the memoised control cubes, and the one-pass widen /
shrink of the state.
"""

from __future__ import annotations

import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.bdd.manager as manager_module
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import Gate, GateKind
from repro.bdd.manager import FALSE
from repro.core.bitslice import VECTOR_NAMES, BitSlicedState
from repro.core.gate_rules import GateRuleEngine
from repro.core.simulator import BitSliceSimulator
from tests.conftest import build_circuit_from_ops, random_ops


def _prepared_engine(num_qubits=4, seed=11):
    rng = random.Random(seed)
    circuit = QuantumCircuit(num_qubits)
    for qubit in range(num_qubits):
        circuit.h(qubit)
    for qubit in range(num_qubits):
        getattr(circuit, rng.choice(("t", "s", "h")))(qubit)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    simulator = BitSliceSimulator(num_qubits)
    simulator.run(circuit)
    return GateRuleEngine(simulator.state)


class TestBatchedAdder:
    def test_conditional_negate_matches_reference(self):
        engine = _prepared_engine(seed=29)
        state = engine.state
        condition_handle = state.manager.var(1)
        update = engine._conditional_negate_all(condition_handle.node)
        for name in VECTOR_NAMES:
            reference, _ = engine._conditional_negate_add(
                list(state.slices[name]), condition_handle)
            assert update.slices[name] == reference


#: The superposing gates' matrices (qubit 0 of a one-qubit register).
SUPERPOSING_MATRICES = {
    GateKind.H: np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    GateKind.RY_PI_2: np.array([[1, -1], [1, 1]]) / np.sqrt(2),
    GateKind.RX_PI_2: np.array([[1, -1j], [-1j, 1]]) / np.sqrt(2),
}


class TestButterflyRipple:
    """H, Rx(pi/2) and Ry(pi/2): one butterfly adder batch per bit position
    against the cofactor / NOT / flip forms plus the reference adder."""

    @pytest.mark.parametrize("driver", ["recursive", "stack"])
    def test_superposing_gates_match_reference(self, monkeypatch, driver):
        engine = _prepared_engine()
        if driver == "stack":
            # Send the butterfly batches down the explicit-stack twin.
            monkeypatch.setattr(manager_module, "_MAX_RECURSIVE_VARS", 0)
            engine.state.manager.clear_cache()
        for qubit in range(engine.state.num_qubits):
            for kind in (GateKind.H, GateKind.RY_PI_2, GateKind.RX_PI_2):
                _assert_gate_matches_reference(engine, Gate(kind, (qubit,)))

    @pytest.mark.parametrize("kind, overflows", [(GateKind.H, True),
                                                 (GateKind.RY_PI_2, True),
                                                 (GateKind.RX_PI_2, False)])
    def test_overflow_is_carry_out_against_carry_into_sign(self, kind, overflows):
        # a = 1 everywhere at r = 2: H and Ry reach 1 + 1 = 2 on one side,
        # which does not fit; Rx adds 1 to c and d, which does.
        state = BitSlicedState(2)
        manager = state.manager
        zeros = [manager.false] * 2
        state.replace_slices({"a": [manager.true, manager.false], "b": zeros,
                              "c": zeros, "d": zeros})
        engine = GateRuleEngine(state)
        gate = Gate(kind, (0,))
        update = engine._handler_for(kind)(gate)
        _, reference_overflow = _reference_update(engine, gate)
        assert update.overflowed == reference_overflow == overflows
        before = state.to_numpy()
        engine.apply(gate)
        assert state.r == (3 if overflows else 2)
        # Qubit 0 is the most significant bit of a basis-state index.
        matrix = np.kron(SUPERPOSING_MATRICES[kind], np.eye(2))
        np.testing.assert_allclose(state.to_numpy(), matrix @ before, atol=1e-12)


def _random_function(manager, rng, num_vars):
    """A uniformly random Boolean function of the first ``num_vars``
    variables, built from its truth table."""
    function = manager.false
    for minterm in range(1 << num_vars):
        if rng.random() < 0.5:
            cube = manager.true
            for var in range(num_vars):
                cube = cube & manager.literal(var, bool(minterm >> var & 1))
            function = function | cube
    return function


def _random_condition(manager, rng, num_vars):
    """A negation condition: constant, literal, negated literal,
    conjunction of two literals, or an arbitrary function."""
    kind = rng.randrange(6)
    var_a, var_b = rng.sample(range(num_vars), 2)
    if kind == 0:
        return manager.true
    if kind == 1:
        return manager.false
    if kind == 2:
        return manager.var(var_a)
    if kind == 3:
        return ~manager.var(var_a)
    if kind == 4:
        return manager.var(var_a) & manager.var(var_b)
    return _random_function(manager, rng, num_vars)


class TestClosedFormNegation:
    NUM_VARS = 4

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           width=st.integers(min_value=1, max_value=6),
           count=st.integers(min_value=1, max_value=4))
    def test_matches_complement_plus_carry_adder(self, seed, width, count):
        rng = random.Random(seed)
        state = BitSlicedState(self.NUM_VARS)
        manager = state.manager
        vectors = [[_random_function(manager, rng, self.NUM_VARS)
                    for _ in range(width)] for _ in range(count)]
        if width > 1 and rng.random() < 0.5:  # sign-extended: cannot overflow
            vectors = [bits[:-1] + [bits[-2]] for bits in vectors]
        if rng.random() < 0.3:  # a vector holding the minimum value somewhere
            vectors[0] = [manager.false] * (width - 1) + [manager.true]
        # The reference forms run at the state's width: hold the vectors.
        state.replace_slices({name: vectors[index % count]
                              for index, name in enumerate(VECTOR_NAMES)})
        engine = GateRuleEngine(state)
        conditions = [_random_condition(manager, rng, self.NUM_VARS)
                      for _ in range(count)]
        negated, overflowed = engine._negate_where_many(
            [[bit.node for bit in bits] for bits in vectors],
            [condition.node for condition in conditions])
        any_reference_overflow = False
        for bits, condition, closed_form in zip(vectors, conditions, negated):
            reference, reference_overflow = engine._conditional_negate_add(
                bits, condition)
            assert closed_form == [bit.node for bit in reference]
            any_reference_overflow = any_reference_overflow or reference_overflow
        assert overflowed == any_reference_overflow

    def test_minimum_value_overflows_then_widens(self):
        # Vector a holds -4 = 100b where q0 = 1 (and 0 elsewhere) at r = 3:
        # negating it there overflows, so Z widens once and retries.
        state = BitSlicedState(2)
        manager = state.manager
        q0 = manager.var(state.qubit_var(0))
        false = manager.false
        state.replace_slices({"a": [false, false, q0], "b": [false] * 3,
                              "c": [false] * 3, "d": [false] * 3})
        engine = GateRuleEngine(state)
        vectors = [engine._node_bits(name) for name in VECTOR_NAMES]
        _, overflowed = engine._negate_where_many(vectors, [q0.node] * 4)
        assert overflowed
        _, reference_overflow = engine._conditional_negate_add(
            state.slices["a"], q0)
        assert reference_overflow

        engine.apply(Gate(GateKind.Z, (0,)))
        assert state.r == 4
        widened = BitSlicedState(2, manager=manager)
        widened.replace_slices({"a": [false, false, q0, q0],
                                "b": [false] * 4, "c": [false] * 4,
                                "d": [false] * 4})
        reference_engine = GateRuleEngine(widened)
        for name in VECTOR_NAMES:
            reference, over = reference_engine._conditional_negate_add(
                widened.slices[name], q0)
            assert not over
            assert state.slices[name] == reference
        # +4 = 0100b where q0 = 1.
        assert [bit.node for bit in state.slices["a"]] == [FALSE, FALSE, q0.node, FALSE]

    def test_mismatched_widths_rejected(self):
        engine = _prepared_engine()
        with pytest.raises(ValueError):
            engine._negate_where_many([[0, 0], [0]], [0, 0])


#: The gate kinds whose rules run the flip kernel, the condition XOR or the
#: closed-form negation.
LITERAL_KERNEL_GATES = (GateKind.X, GateKind.Y, GateKind.Z, GateKind.H,
                        GateKind.RX_PI_2, GateKind.RY_PI_2, GateKind.CX,
                        GateKind.CZ, GateKind.CCX, GateKind.S, GateKind.SDG,
                        GateKind.T, GateKind.TDG)

#: Table II's phase gates as a multiplication on q_t = 1: per destination
#: vector a, b, c, d, the source vector and whether it is negated.
PHASE_MULTIPLIERS = {
    GateKind.S: (("c", False), ("d", False), ("a", True), ("b", True)),
    GateKind.SDG: (("c", True), ("d", True), ("a", False), ("b", False)),
    GateKind.T: (("b", False), ("c", False), ("d", False), ("a", True)),
    GateKind.TDG: (("d", True), ("a", False), ("b", False), ("c", False)),
}


def _reference_update(engine, gate):
    """Table II through the handle-level reference forms: the X action as
    restrict/restrict/ITE (``_swap_on``), every conditional negation as
    NOT + ITE plus the carry-seeded ``_ripple_add``, and the phase gates'
    permutation as an ITE per slice.  Returns ``(slices, overflowed)`` at
    the state's width."""
    state = engine.state
    manager = state.manager
    target = gate.targets[0]
    var = state.qubit_var(target)
    qt = engine._qvar(target)
    bits = {name: engine._bits(name) for name in VECTOR_NAMES}
    zeros = engine._zeros()
    kind = gate.kind

    def swapped(name):
        return [engine._swap_on(bit, target) for bit in bits[name]]

    def negate_where(condition, functions):
        return [condition.ite(~f, f) for f in functions]

    if kind is GateKind.X:
        return {name: swapped(name) for name in VECTOR_NAMES}, False
    if kind in (GateKind.CX, GateKind.CCX):
        condition = manager.true
        for control in gate.controls:
            condition = condition & engine._qvar(control)
        return {name: [condition.ite(sw, bit)
                       for sw, bit in zip(swapped(name), bits[name])]
                for name in VECTOR_NAMES}, False
    adders = {}
    slices = {}
    if kind in PHASE_MULTIPLIERS:
        for name, (source, negated) in zip(VECTOR_NAMES, PHASE_MULTIPLIERS[kind]):
            selected = [qt.ite(src, own)
                        for src, own in zip(bits[source], bits[name])]
            if negated:
                adders[name] = (negate_where(qt, selected), zeros, qt)
            else:
                slices[name] = selected
    elif kind in (GateKind.Z, GateKind.CZ):
        condition = qt
        for control in gate.controls:
            condition = engine._qvar(control) & condition
        for name in VECTOR_NAMES:
            adders[name] = (negate_where(condition, bits[name]), zeros, condition)
    elif kind is GateKind.Y:
        for name, source, condition in (("a", "c", ~qt), ("b", "d", ~qt),
                                        ("c", "a", qt), ("d", "b", qt)):
            adders[name] = (negate_where(condition, swapped(source)), zeros,
                            condition)
    elif kind in (GateKind.H, GateKind.RY_PI_2):
        for name in VECTOR_NAMES:
            low = [bit.cofactor(var, False) for bit in bits[name]]
            high = [bit.cofactor(var, True) for bit in bits[name]]
            if kind is GateKind.H:
                second = [qt.ite(~bit, hi) for bit, hi in zip(bits[name], high)]
                adders[name] = (low, second, qt)
            else:
                second = [qt.ite(bit, ~hi) for bit, hi in zip(bits[name], high)]
                adders[name] = (low, second, ~qt)
    elif kind is GateKind.RX_PI_2:
        for name, other, carry in (("a", "c", manager.true), ("b", "d", manager.true),
                                   ("c", "a", manager.false), ("d", "b", manager.false)):
            second = swapped(other)
            if carry.is_true():
                second = [~bit for bit in second]
            adders[name] = (bits[name], second, carry)
    else:
        raise AssertionError(f"no reference for {kind}")
    overflowed = False
    for name, (addend_a, addend_b, carry) in adders.items():
        slices[name], over = engine._ripple_add(addend_a, addend_b, carry)
        overflowed = overflowed or over
    return slices, overflowed


def _assert_gate_matches_reference(engine, gate):
    """The production handler's update equals the reference update node for
    node (same manager), then the gate is applied to advance the state."""
    update = engine._handler_for(gate.kind)(gate)
    reference, overflowed = _reference_update(engine, gate)
    assert update.overflowed == overflowed
    for name in VECTOR_NAMES:
        assert update.slices[name] == reference[name], (gate, name)
    engine.apply(gate)


def _literal_gates(num_qubits, rng, count):
    gates = []
    for _ in range(count):
        kind = rng.choice(LITERAL_KERNEL_GATES)
        qubits = rng.sample(range(num_qubits), 3 if kind is GateKind.CCX else 2)
        if kind is GateKind.CCX:
            gates.append(Gate(kind, (qubits[2],), (qubits[0], qubits[1])))
        elif kind in (GateKind.CX, GateKind.CZ):
            gates.append(Gate(kind, (qubits[1],), (qubits[0],)))
        else:
            gates.append(Gate(kind, (qubits[0],)))
    return gates


class TestLiteralKernelGateRules:
    NUM_QUBITS = 5

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           regime=st.sampled_from(("default", "sift", "set_order", "gc")))
    def test_gates_match_reference_forms(self, seed, regime):
        rng = random.Random(seed)
        circuit = build_circuit_from_ops(
            self.NUM_QUBITS, random_ops(self.NUM_QUBITS, 10, seed))
        simulator = BitSliceSimulator(self.NUM_QUBITS)
        simulator.run(circuit)
        engine = GateRuleEngine(simulator.state)
        manager = engine.manager
        if regime == "sift":
            manager.sift()
        elif regime == "set_order":
            order = list(range(self.NUM_QUBITS))
            rng.shuffle(order)
            manager.set_order(order)
        elif regime == "gc":
            engine.apply(Gate(GateKind.H, (rng.randrange(self.NUM_QUBITS),)))
            engine.apply(Gate(GateKind.T, (rng.randrange(self.NUM_QUBITS),)))
            manager.garbage_collect()
            free_after_gc = len(manager._free)
        for gate in _literal_gates(self.NUM_QUBITS, rng, 8):
            _assert_gate_matches_reference(engine, gate)
        if regime == "gc" and free_after_gc:
            assert len(manager._free) < free_after_gc  # recycled ids in use

    def test_deep_state_under_low_recursion_limit(self):
        num_qubits = 640  # past the recursion-safe manager size
        rng = random.Random(43)
        simulator = BitSliceSimulator(num_qubits)
        prefix = QuantumCircuit(num_qubits)
        for qubit in range(0, num_qubits, 2):
            prefix.h(qubit)
        for qubit in range(0, num_qubits - 2, 2):
            prefix.cx(qubit, qubit + 1)
        prefix.t(0).h(1).t(num_qubits - 1).cz(3, num_qubits - 2)
        simulator.run(prefix)
        engine = GateRuleEngine(simulator.state)
        old_limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(220)
            far = (0, 1, 3, 320, num_qubits - 2, num_qubits - 1)
            for kind in LITERAL_KERNEL_GATES:
                qubits = rng.sample(far, 3)
                if kind is GateKind.CCX:
                    gate = Gate(kind, (qubits[2],), (qubits[0], qubits[1]))
                elif kind in (GateKind.CX, GateKind.CZ):
                    gate = Gate(kind, (qubits[1],), (qubits[0],))
                else:
                    gate = Gate(kind, (qubits[0],))
                _assert_gate_matches_reference(engine, gate)
        finally:
            sys.setrecursionlimit(old_limit)
        assert not engine.manager._recursion_safe()


#: The permutation gates run by the controlled flip / swap kernel.
CONTROLLED_GATES = (GateKind.X, GateKind.CX, GateKind.CCX, GateKind.SWAP,
                    GateKind.CSWAP)


def _table2_controlled_update(engine, gate):
    """Table II's controlled rows as written, on handles:
    ``F' = not C and F  or  C and act(F)`` with ``C`` the conjunction of the
    control literals (TRUE without controls) and ``act`` the X action
    ``q_t F|q_t=0 + not q_t F|q_t=1`` (:meth:`_swap_on`) or the SWAP
    formula (:meth:`_swap_two_vars`)."""
    cube = engine.manager.true
    for control in gate.controls:
        cube = cube & engine._qvar(control)
    if gate.kind in (GateKind.SWAP, GateKind.CSWAP):
        def act(bit):
            return engine._swap_two_vars(bit, *gate.targets)
    else:
        def act(bit):
            return engine._swap_on(bit, gate.targets[0])
    return {name: [(~cube & bit) | (cube & act(bit)) for bit in engine._bits(name)]
            for name in VECTOR_NAMES}


def _controlled_gates(num_qubits, rng, count):
    """Random X / CX / CCX / SWAP / CSWAP gates, up to three controls,
    each control anywhere in the order relative to the targets."""
    gates = []
    for _ in range(count):
        kind = rng.choice(CONTROLLED_GATES)
        num_targets = 2 if kind in (GateKind.SWAP, GateKind.CSWAP) else 1
        num_controls = {GateKind.X: 0, GateKind.SWAP: 0, GateKind.CX: 1,
                        GateKind.CCX: rng.randint(2, 3),
                        GateKind.CSWAP: rng.randint(1, 2)}[kind]
        qubits = rng.sample(range(num_qubits), num_targets + num_controls)
        gates.append(Gate(kind, tuple(qubits[:num_targets]),
                          tuple(qubits[num_targets:])))
    return gates


def _assert_controlled_gate_matches_table2(engine, gate):
    update = engine._handler_for(gate.kind)(gate)
    reference = _table2_controlled_update(engine, gate)
    assert not update.overflowed and update.delta_k == 0
    for name in VECTOR_NAMES:
        assert update.slices[name] == reference[name], (gate, name)
    engine.apply(gate)


class TestControlledGateRules:
    """X, CX, CCX (the flip kernel) and SWAP, CSWAP (the swap kernel)
    against Table II's ``not C F + C act(F)``, node for node."""

    NUM_QUBITS = 6

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           regime=st.sampled_from(("default", "sift", "set_order")))
    def test_gates_match_table2(self, seed, regime):
        rng = random.Random(seed)
        circuit = build_circuit_from_ops(
            self.NUM_QUBITS, random_ops(self.NUM_QUBITS, 12, seed))
        simulator = BitSliceSimulator(self.NUM_QUBITS)
        simulator.run(circuit)
        engine = GateRuleEngine(simulator.state)
        if regime == "sift":
            engine.manager.sift()
        elif regime == "set_order":
            order = list(range(self.NUM_QUBITS))
            rng.shuffle(order)
            engine.manager.set_order(order)
        for gate in _controlled_gates(self.NUM_QUBITS, rng, 8):
            _assert_controlled_gate_matches_table2(engine, gate)

    def test_deep_state_under_low_recursion_limit(self):
        num_qubits = 640  # past the recursion-safe manager size
        simulator = BitSliceSimulator(num_qubits)
        prefix = QuantumCircuit(num_qubits)
        for qubit in range(0, num_qubits, 2):
            prefix.h(qubit)
        for qubit in range(0, num_qubits - 2, 2):
            prefix.cx(qubit, qubit + 1)
        prefix.t(0).h(1).t(num_qubits - 1)
        simulator.run(prefix)
        engine = GateRuleEngine(simulator.state)
        last = num_qubits - 1
        gates = [Gate(GateKind.CSWAP, (1, last - 1), (320,)),
                 Gate(GateKind.CSWAP, (3, 320), (0, last)),
                 Gate(GateKind.CCX, (320,), (0, 3, last)),
                 Gate(GateKind.CX, (1,), (last - 1,)),
                 Gate(GateKind.SWAP, (0, last)),
                 Gate(GateKind.X, (320,))]
        old_limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(220)
            for gate in gates:
                _assert_controlled_gate_matches_table2(engine, gate)
        finally:
            sys.setrecursionlimit(old_limit)
        assert not engine.manager._recursion_safe()


class TestControlCubeMemo:
    def test_cube_is_reused_per_sorted_controls(self):
        engine = _prepared_engine()
        first = engine._control_conjunction((2, 0, 1))
        second = engine._control_conjunction((1, 2, 0))
        assert first is second  # memo hit, not merely an equal BDD
        assert engine._control_conjunction((0, 1)) is not first

    def test_repeated_toffolis_reuse_the_cube(self):
        engine = _prepared_engine()
        gate = Gate(GateKind.CCX, (3,), (0, 1))
        engine.apply(gate)
        cube = engine._control_cubes[(0, 1)]
        engine.apply(gate)
        assert engine._control_cubes[(0, 1)] is cube

    def test_x_cx_and_swap_anchor_no_cube(self):
        # A memoised cube is a handle, which a sift counts as a root: only
        # CCX and CSWAP may leave one behind.
        engine = _prepared_engine()
        for gate in (Gate(GateKind.X, (0,)), Gate(GateKind.CX, (1,), (0,)),
                     Gate(GateKind.SWAP, (0, 2))):
            engine.apply(gate)
        assert engine._control_cubes == {}
        engine.apply(Gate(GateKind.CSWAP, (0, 2), (1,)))
        assert list(engine._control_cubes) == [(1,)]

    def test_memo_dropped_on_generation_change(self):
        engine = _prepared_engine()
        engine._control_conjunction((0, 1))
        engine.manager.garbage_collect()  # bumps the cache generation
        engine._control_conjunction((0, 2))
        assert (0, 1) not in engine._control_cubes
        assert (0, 2) in engine._control_cubes


class TestBatchedWidenShrink:
    def test_widen_to_extends_in_one_pass(self):
        state = BitSlicedState(3, initial_bits=2)
        state.widen_to(6)
        assert state.r == 6
        for name in VECTOR_NAMES:
            bits = state.slices[name]
            assert len(bits) == 6
            assert all(bit == bits[1] for bit in bits[1:])  # shared sign
        state.widen_to(4)  # no-op when already wider
        assert state.r == 6

    def test_shrink_removes_full_redundant_run_at_once(self):
        state = BitSlicedState(3, initial_bits=2)
        state.widen(5)
        assert state.r == 7
        removed = state.shrink()
        assert removed == 5
        assert state.r == 2

    def test_shrink_respects_min_bits_and_distinct_signs(self):
        state = BitSlicedState(2, initial_bits=2)
        assert state.shrink() == 0
        state.widen(3)
        # Make the top slice of one vector distinct: nothing is redundant.
        state.slices["a"][-1] = state.manager.var(0)
        assert state.shrink() == 0
        assert state.r == 5

    def test_shrink_stops_at_first_distinct_slice(self):
        state = BitSlicedState(2, initial_bits=2)
        state.widen(4)  # r = 6, slices 1..5 all equal the sign of slice 1
        marker = state.manager.var(1)
        for name in VECTOR_NAMES:
            state.slices[name][3] = marker
        # Slices 4 and 5 equal each other but differ from slice 3's marker:
        # exactly one slice is removable (6 -> 5), then the run breaks.
        assert state.shrink() == 1
        assert state.r == 5


class TestEngineStillExact:
    def test_simulation_is_deterministic_across_runs(self):
        def run():
            circuit = QuantumCircuit(4)
            for qubit in range(4):
                circuit.h(qubit)
            circuit.t(0).cx(0, 1).h(1).t(1).cx(1, 2).h(2).ccx((3, 0), 1)
            circuit.swap(0, 3).s(2).h(3).tdg(2)
            simulator = BitSliceSimulator.simulate(circuit)
            return simulator.state.to_numpy(), simulator.state.r

        first_state, first_r = run()
        second_state, second_r = run()
        assert first_r == second_r
        assert (first_state == second_state).all()
