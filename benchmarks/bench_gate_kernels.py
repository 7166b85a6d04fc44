"""Micro-benchmarks of the fused gate-application kernels.

PR 3 collapsed the gate rules' dominant operation patterns into fused
multi-operand kernels: the full-adder sum and carry run as one
three-operand traversal (``full_add_many``) batched across the four
coefficient vectors, the SWAP and X actions run as the controlled
permutation kernel under a TRUE condition (``controlled_swap_many`` and
``controlled_flip_many``), and conditional negation in closed form (prefix
ORs, one AND and one XOR per bit instead of a complement-plus-carry
adder).  These
benchmarks measure exactly that fusion:
the *same* slice BDDs are pushed through the fused path and through the
pre-fusion 2-operand composition path (which the gate rules keep as the
reference implementation), each timed cache-cold so the algorithmic cost is
what's measured, not memoisation.  The recorded ``*_speedup`` extras are the
fused-over-composition ratio; the regression gate tracks the fused timings
and the deterministic node counts.
"""

from __future__ import annotations

import random
import time

from repro.bdd import BddManager
from repro.bdd.manager import BUTTERFLY_SUB_HIGH, FALSE, TRUE
from repro.circuit.circuit import QuantumCircuit
from repro.core.gate_rules import GateRuleEngine
from repro.core.simulator import BitSliceSimulator

from conftest import scale_choice

NUM_QUBITS = scale_choice(12, 16)
PREP_LAYERS = scale_choice(3, 4)


def _prepared_simulator(seed: int = 17) -> BitSliceSimulator:
    """An H/T-dense prefix producing slices with non-trivial coefficients
    (every adder below genuinely exercises carries, not constant planes)."""
    rng = random.Random(seed)
    circuit = QuantumCircuit(NUM_QUBITS, name="kernel_prep")
    for qubit in range(NUM_QUBITS):
        circuit.h(qubit)
    for _ in range(PREP_LAYERS):
        for qubit in range(NUM_QUBITS):
            mnemonic = rng.choice(("t", "h", "s", "tdg"))
            getattr(circuit, mnemonic)(qubit)
        for qubit in range(NUM_QUBITS - 1):
            if rng.random() < 0.5:
                circuit.cx(qubit, qubit + 1)
    simulator = BitSliceSimulator(NUM_QUBITS)
    simulator.run(circuit)
    return simulator


def _adder_operands(simulator: BitSliceSimulator, target: int = 0):
    """The H gate's four vector additions on ``target``, as equal-width
    ``(addend_a, addend_b, carry_in)`` node-id adders: addend_a is the
    ``q_t = 0`` cofactor plane, addend_b the ``q_t ^ F|q_t=1`` second
    operand (the condition-XOR form of ``ite(q_t, ~F, F|q_t=1)``), and the
    carry seed is ``q_t`` (Table II's H row)."""
    state = simulator.state
    manager = state.manager
    var = state.qubit_var(target)
    qt = manager.var_node(var)
    flat = [bit.node for name in ("a", "b", "c", "d") for bit in state.slices[name]]
    low = manager.restrict_many(flat, var, False)
    high = manager.restrict_many(flat, var, True)
    second = manager.xor_many([(qt, hi) for hi in high])
    r = state.r
    return [(low[index * r:(index + 1) * r],
             second[index * r:(index + 1) * r], qt)
            for index in range(4)]


def _fused_adder_chain(manager: BddManager, adders):
    """The hot path: one lockstep full-adder batch per bit position."""
    carries = [carry for _, _, carry in adders]
    per_adder = [[] for _ in adders]
    for position in range(len(adders[0][0])):
        triples = [(a_bits[position], b_bits[position], carries[index])
                   for index, (a_bits, b_bits, _) in enumerate(adders)]
        sum_bits, carries = zip(*manager.full_add_many(triples))
        for index, sum_bit in enumerate(sum_bits):
            per_adder[index].append(sum_bit)
    return [bit for bits in per_adder for bit in bits], list(carries)


def _ripple_adders(manager: BddManager, adders):
    """Lockstep adders with Table II's overflow check: one full-adder batch
    per bit position, then one XOR batch of each carry out with its carry
    into the sign bit.  Returns ``(sum_bit_lists, overflowed)``."""
    carries = [carry for _, _, carry in adders]
    carry_into_sign = carries
    sums = [[] for _ in adders]
    width = len(adders[0][0])
    for position in range(width):
        if position == width - 1:
            carry_into_sign = list(carries)
        triples = [(a_bits[position], b_bits[position], carries[index])
                   for index, (a_bits, b_bits, _) in enumerate(adders)]
        sum_bits, carries = zip(*manager.full_add_many(triples))
        for index, sum_bit in enumerate(sum_bits):
            sums[index].append(sum_bit)
    overflow = manager.xor_many(list(zip(carries, carry_into_sign)))
    return sums, any(node != FALSE for node in overflow)


def _composition_adder_chain(manager: BddManager, adders):
    """The pre-fusion path: six chained 2-operand applies per bit position."""
    apply_and = manager.apply_and
    apply_or = manager.apply_or
    apply_xor = manager.apply_xor
    sums = []
    final_carries = []
    for a_bits, b_bits, carry in adders:
        for bit_a, bit_b in zip(a_bits, b_bits):
            sums.append(apply_xor(apply_xor(bit_a, bit_b), carry))
            carry = apply_or(apply_and(bit_a, bit_b),
                             apply_and(apply_or(bit_a, bit_b), carry))
        final_carries.append(carry)
    return sums, final_carries


def _best_of(function, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - started)
    return best


def test_fused_adder_chain(benchmark):
    """Cache-cold fused H/adder path (one full-adder batch per bit position
    over 4 vectors)."""
    simulator = _prepared_simulator()
    manager = simulator.state.manager
    adders = _adder_operands(simulator)
    fused_sums, fused_carries = _fused_adder_chain(manager, adders)
    naive_sums, naive_carries = _composition_adder_chain(manager, adders)
    assert fused_sums == naive_sums and fused_carries == naive_carries

    def cold_fused():
        manager.clear_cache()
        return _fused_adder_chain(manager, adders)

    sums, _ = benchmark(cold_fused)
    benchmark.extra_info["bit_width"] = simulator.state.r
    benchmark.extra_info["result_nodes"] = manager.count_nodes(sums)
    speedup = _best_of(lambda: (manager.clear_cache(),
                                _composition_adder_chain(manager, adders)))
    speedup /= _best_of(lambda: (manager.clear_cache(),
                                 _fused_adder_chain(manager, adders)))
    benchmark.extra_info["fused_vs_composition_speedup"] = round(speedup, 3)
    # Locally measured at ~1.6-1.7x; the assertion floor is lower so a noisy
    # shared CI runner cannot flake the gate — the recorded extra carries
    # the actual ratio and the timing itself is regression-gated.
    assert speedup >= 1.25


def test_composition_adder_chain(benchmark):
    """Cache-cold pre-fusion adder path (the PR 2-era composition chain)."""
    simulator = _prepared_simulator()
    manager = simulator.state.manager
    adders = _adder_operands(simulator)

    def cold_composition():
        manager.clear_cache()
        return _composition_adder_chain(manager, adders)

    sums, _ = benchmark(cold_composition)
    benchmark.extra_info["result_nodes"] = manager.count_nodes(sums)


def test_fused_swap_kernel(benchmark):
    """Cache-cold SWAP action (the controlled swap under a TRUE condition)
    over all 4r slices, against the cofactor / connective composition."""
    simulator = _prepared_simulator()
    state = simulator.state
    manager = state.manager
    engine = GateRuleEngine(state)
    flat = [bit.node for name in ("a", "b", "c", "d") for bit in state.slices[name]]
    qubit_a, qubit_b = 1, NUM_QUBITS - 2
    var_a, var_b = state.qubit_var(qubit_a), state.qubit_var(qubit_b)
    fused = manager.controlled_swap_many(flat, TRUE, var_a, var_b)
    handles = [engine._swap_two_vars(bit, qubit_a, qubit_b)
               for name in ("a", "b", "c", "d") for bit in state.slices[name]]
    assert fused == [handle.node for handle in handles]

    def cold_fused_swap():
        manager.clear_cache()
        return manager.controlled_swap_many(flat, TRUE, var_a, var_b)

    result = benchmark(cold_fused_swap)
    benchmark.extra_info["result_nodes"] = manager.count_nodes(result)

    def cold_composition_swap():
        manager.clear_cache()
        return [engine._swap_two_vars(bit, qubit_a, qubit_b)
                for name in ("a", "b", "c", "d") for bit in state.slices[name]]

    # Locally measured at ~2.4-2.5x; floor kept low for noisy CI runners.
    speedup = _best_of(cold_composition_swap) / _best_of(cold_fused_swap)
    benchmark.extra_info["fused_vs_composition_speedup"] = round(speedup, 3)
    assert speedup >= 1.3


def test_fused_flip_kernel(benchmark):
    """Cache-cold X action (the controlled flip under a TRUE condition) over
    all 4r slices, against the restrict / restrict / ITE composition it
    replaces."""
    simulator = _prepared_simulator()
    state = simulator.state
    manager = state.manager
    flat = [bit.node for name in ("a", "b", "c", "d") for bit in state.slices[name]]
    var = state.qubit_var(NUM_QUBITS - 2)  # most of the DAG lies above it
    qt = manager.var_node(var)

    def composition_flip():
        low = manager.restrict_many(flat, var, False)
        high = manager.restrict_many(flat, var, True)
        return manager.ite_many([(qt, lo, hi) for lo, hi in zip(low, high)])

    def cold_fused_flip():
        manager.clear_cache()
        return manager.controlled_flip_many(flat, TRUE, var)

    def cold_composition_flip():
        manager.clear_cache()
        return composition_flip()

    assert cold_fused_flip() == cold_composition_flip()
    result = benchmark(cold_fused_flip)
    benchmark.extra_info["result_nodes"] = manager.count_nodes(result)
    speedup = _best_of(cold_composition_flip) / _best_of(cold_fused_flip)
    benchmark.extra_info["fused_vs_composition_speedup"] = round(speedup, 3)
    # Locally measured at ~3-4.6x; floor kept low for noisy CI runners.
    assert speedup >= 1.5


def test_fused_controlled_flip_kernel(benchmark):
    """Cache-cold controlled flip (the CX action: a mid-order control above
    a low target) over all 4r slices in one traversal, against the flip
    sweep followed by the ITE sweep it replaces.  The kernel's cold
    computed-table misses and unique-table probes are recorded and must be
    below the composition's; the speedup is recorded but not asserted, as a
    sub-millisecond ratio swings past any useful floor on a shared host."""
    simulator = _prepared_simulator()
    state = simulator.state
    manager = state.manager
    flat = [bit.node for name in ("a", "b", "c", "d") for bit in state.slices[name]]
    var = state.qubit_var(NUM_QUBITS - 2)
    control = manager.var_node(state.qubit_var(NUM_QUBITS // 2))

    def cold_fused():
        manager.clear_cache()
        return manager.controlled_flip_many(flat, control, var)

    def cold_composition():
        manager.clear_cache()
        flipped = manager.controlled_flip_many(flat, TRUE, var)
        return manager.ite_many([(control, fl, old) for fl, old in zip(flipped, flat)])

    assert cold_fused() == cold_composition()

    def cold_counters(function):
        """Cache misses and unique-table probes of one cache-cold call."""
        before = manager.raw_perf_counters()
        function()
        after = manager.raw_perf_counters()
        return after[1] - before[1], after[2] - before[2]

    misses, probes = cold_counters(cold_fused)
    composition_misses, composition_probes = cold_counters(cold_composition)
    assert misses < composition_misses and probes < composition_probes
    result = benchmark(cold_fused)
    benchmark.extra_info["result_nodes"] = manager.count_nodes(result)
    benchmark.extra_info["cache_misses"] = misses
    benchmark.extra_info["unique_probes"] = probes
    benchmark.extra_info["composition_cache_misses"] = composition_misses
    benchmark.extra_info["composition_unique_probes"] = composition_probes
    speedup = _best_of(cold_composition) / _best_of(cold_fused)
    benchmark.extra_info["fused_vs_composition_speedup"] = round(speedup, 3)


def test_fused_butterfly_kernel(benchmark):
    """Cache-cold H gate on a mid-order qubit: one butterfly adder batch per
    bit position over the four vectors, against the restrict, restrict and
    condition-XOR sweeps followed by the lockstep full-adder batches and
    the overflow XOR it replaces.  The kernel's cold computed-table misses
    and unique-table probes are recorded and must be below the sweeps'; the
    speedup is recorded but not asserted, as a millisecond-scale ratio
    swings past any useful floor on a shared host."""
    simulator = _prepared_simulator()
    state = simulator.state
    manager = state.manager
    var = state.qubit_var(NUM_QUBITS // 2)
    qt = manager.var_node(var)
    vectors = [[bit.node for bit in state.slices[name]] for name in ("a", "b", "c", "d")]

    def cold_fused():
        manager.clear_cache()
        carries = [qt] * len(vectors)
        sums = [[] for _ in vectors]
        for position in range(state.r):
            carry_into_sign = carries
            steps = manager.butterfly_add_many(
                [(bits[position], bits[position], carry, BUTTERFLY_SUB_HIGH)
                 for bits, carry in zip(vectors, carries)], var)
            carries = [carry for _, carry in steps]
            for bits, (sum_bit, _) in zip(sums, steps):
                bits.append(sum_bit)
        return sums, carries != carry_into_sign

    def cold_composition():
        manager.clear_cache()
        flat = [bit for bits in vectors for bit in bits]
        low = manager.restrict_many(flat, var, False)
        high = manager.restrict_many(flat, var, True)
        second = manager.xor_many([(qt, hi) for hi in high])
        r = state.r
        return _ripple_adders(manager, [(low[index * r:(index + 1) * r],
                                         second[index * r:(index + 1) * r], qt)
                                        for index in range(len(vectors))])

    assert cold_fused() == cold_composition()

    def cold_counters(function):
        """Cache misses and unique-table probes of one cache-cold call."""
        before = manager.raw_perf_counters()
        function()
        after = manager.raw_perf_counters()
        return after[1] - before[1], after[2] - before[2]

    misses, probes = cold_counters(cold_fused)
    composition_misses, composition_probes = cold_counters(cold_composition)
    assert misses < composition_misses and probes < composition_probes
    sums, _ = benchmark(cold_fused)
    benchmark.extra_info["result_nodes"] = manager.count_nodes(
        [bit for bits in sums for bit in bits])
    benchmark.extra_info["cache_misses"] = misses
    benchmark.extra_info["unique_probes"] = probes
    benchmark.extra_info["composition_cache_misses"] = composition_misses
    benchmark.extra_info["composition_unique_probes"] = composition_probes
    speedup = _best_of(cold_composition) / _best_of(cold_fused)
    benchmark.extra_info["fused_vs_composition_speedup"] = round(speedup, 3)


def test_closed_form_negation(benchmark):
    """Cache-cold closed-form negation of all four vectors where a mid-order
    qubit is set (the Z rule), against Table II's complement-plus-carry
    form: the condition XOR, then the lockstep adder with a zero addend and
    carry seed ``Ca0 = q_t``."""
    simulator = _prepared_simulator()
    state = simulator.state
    manager = state.manager
    engine = GateRuleEngine(state)
    condition = manager.var_node(state.qubit_var(NUM_QUBITS // 2))
    vectors = [[bit.node for bit in state.slices[name]] for name in ("a", "b", "c", "d")]
    conditions = [condition] * len(vectors)
    zeros = [FALSE] * state.r

    def cold_closed_form():
        manager.clear_cache()
        return engine._negate_where_many(vectors, conditions)

    def cold_adder_form():
        manager.clear_cache()
        complemented = [manager.xor_many([(condition, bit) for bit in bits])
                        for bits in vectors]
        return _ripple_adders(manager, [(bits, zeros, condition) for bits in complemented])

    assert cold_closed_form() == cold_adder_form()

    def cold_counters(function):
        """Cache misses and unique-table probes of one cache-cold call."""
        before = manager.raw_perf_counters()
        function()
        after = manager.raw_perf_counters()
        return after[1] - before[1], after[2] - before[2]

    misses, probes = cold_counters(cold_closed_form)
    adder_misses, adder_probes = cold_counters(cold_adder_form)
    negated, _ = benchmark(cold_closed_form)
    benchmark.extra_info["result_nodes"] = manager.count_nodes(
        [bit for bits in negated for bit in bits])
    benchmark.extra_info["cache_misses"] = misses
    benchmark.extra_info["unique_probes"] = probes
    benchmark.extra_info["adder_cache_misses"] = adder_misses
    benchmark.extra_info["adder_unique_probes"] = adder_probes
    speedup = _best_of(cold_adder_form) / _best_of(cold_closed_form)
    benchmark.extra_info["closed_form_vs_adder_speedup"] = round(speedup, 3)
    # Locally measured at ~1.6-1.7x; floor kept low for noisy CI runners.
    assert speedup >= 1.25


def test_h_dense_circuit(benchmark):
    """End-to-end H/T-dense circuit through the batched gate rules."""
    def run():
        simulator = _prepared_simulator(seed=23)
        return simulator

    simulator = benchmark(run)
    benchmark.extra_info["num_gates"] = simulator.gates_applied
    benchmark.extra_info["final_nodes"] = simulator.state.num_nodes()
    benchmark.extra_info["bit_width"] = simulator.state.r
