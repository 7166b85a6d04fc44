"""``BddManager.count_nodes`` and its multi-root slot.

One slot remembers the last multi-root query, so the per-gate peak count,
the node-budget check and the final statistics of a state share one walk.
It is cleared with the computed tables (garbage collection, reorders,
adjacent swaps), holds one entry, and must never change a reported number:
peaks and MO detection are pinned here against a memo-free walk, and the
walk itself (marks set on push, counted at the end) against a set-based
count on random root lists, terminal, duplicate and empty ones included.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import ResourceLimits, run
from repro.bdd import BddManager
from repro.core.simulator import BitSliceSimulator
from repro.workloads.random_circuits import generate_random_circuit

#: Seeds of the 8-qubit random circuits whose per-gate counts are replayed.
SEEDS = [8001, 8002, 8003]


def walk_count(manager, roots) -> int:
    """Reachable nodes (terminals included) by a plain set-based walk."""
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node > 1:
            stack.append(manager.node_low(node))
            stack.append(manager.node_high(node))
    return len(seen)


def pair_functions(manager):
    """``x0 x1 + x2 x3`` and ``x0 ^ x3``: the first grows when levels 1
    and 2 swap (its pairs get interleaved)."""
    x = [manager.var(i) for i in range(4)]
    return [(x[0] & x[1]) | (x[2] & x[3]), x[0] ^ x[3]]


def random_roots(manager, rng, count):
    """``count`` roots: terminals, literals, repeats and random DNFs."""
    pool = [0, 1]
    roots = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.2:
            node = rng.choice((0, 1))
        elif roll < 0.35 and pool[2:]:
            node = rng.choice(pool[2:])
        elif roll < 0.5:
            node = manager.var_node(rng.randrange(manager.num_vars))
        else:
            function = manager.false
            for _ in range(rng.randrange(1, 6)):
                cube = manager.true
                for var in rng.sample(range(manager.num_vars), 3):
                    cube = cube & manager.literal(var, rng.random() < 0.5)
                function = function | cube
            node = function.node
        pool.append(node)
        roots.append(node)
    return roots


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       count=st.integers(min_value=0, max_value=6))
def test_count_matches_a_set_based_walk(seed, count):
    rng = random.Random(seed)
    manager = BddManager(7)
    roots = random_roots(manager, rng, count)
    expected = walk_count(manager, roots)
    assert manager.count_nodes(roots) == expected
    # The memo (single root or the multi-root slot) returns the same count.
    assert manager.count_nodes(list(roots)) == expected
    if len(roots) == 1:
        assert manager._size_cache[roots[0]] == expected
    elif roots:
        assert manager._last_multi_count == (tuple(roots), expected)


def test_terminal_duplicate_and_empty_root_lists():
    manager = BddManager(3)
    literal = manager.var(1).node
    assert manager.count_nodes([]) == 0
    assert manager.count_nodes([0]) == 1
    assert manager.count_nodes([1, 1]) == 1
    assert manager.count_nodes([0, 1, 0]) == 2
    assert manager.count_nodes([literal]) == 3
    assert manager.count_nodes([literal, literal, 0]) == 3


def test_swap_between_counts_returns_the_post_swap_count():
    manager = BddManager(4)
    functions = pair_functions(manager)
    roots = [f.node for f in functions]
    before = manager.count_nodes(roots)
    assert before == walk_count(manager, roots)
    manager.swap_adjacent_levels(1)
    after = manager.count_nodes(roots)
    assert after == walk_count(manager, roots)
    assert after != before


def test_sift_between_counts_returns_the_post_sift_count():
    manager = BddManager(4)
    manager.set_order([0, 2, 1, 3])
    functions = pair_functions(manager)
    roots = [f.node for f in functions]
    before = manager.count_nodes(roots)
    manager.sift()
    after = manager.count_nodes(roots)
    assert after == walk_count(manager, roots)
    assert after < before


def test_gc_between_counts_recounts():
    manager = BddManager(4)
    functions = pair_functions(manager)
    roots = [f.node for f in functions]
    garbage = [manager.var(0) & manager.var(2) & manager.var(3)]
    count = manager.count_nodes(roots)
    del garbage
    generation = manager.cache_generation
    manager.garbage_collect()
    assert manager.cache_generation == generation + 1
    assert manager._last_multi_count is None
    assert manager.count_nodes(roots) == count == walk_count(manager, roots)


def test_slot_holds_one_entry():
    manager = BddManager(4)
    functions = pair_functions(manager)
    first = [f.node for f in functions]
    second = [functions[1].node, functions[0].node, manager.var(1).node]
    manager.count_nodes(first)
    manager.count_nodes(second)
    assert manager._last_multi_count == (tuple(second),
                                         walk_count(manager, second))
    assert manager.count_nodes(first) == walk_count(manager, first)
    assert manager._last_multi_count[0] == tuple(first)


def reference_trace(circuit):
    """Per-gate node counts of the state by a memo-free walk."""
    simulator = BitSliceSimulator(circuit.num_qubits)
    manager = simulator.state.manager

    def count():
        return walk_count(manager, [bit.node for bit in simulator.state.all_slices()])

    counts = [count()]
    for gate in circuit.gates:
        simulator.apply_gate(gate)
        counts.append(count())
    return counts


@pytest.mark.parametrize("seed", SEEDS)
def test_peak_matches_a_memo_free_walk(seed):
    circuit = generate_random_circuit(8, seed=seed)
    result = run(circuit, engine="bitslice",
                 limits=ResourceLimits(max_seconds=60.0, max_nodes=None))
    assert result.succeeded
    assert result.peak_memory_nodes == max(reference_trace(circuit))


@pytest.mark.parametrize("seed", SEEDS)
def test_memory_out_trips_at_the_same_gate_and_count(seed):
    circuit = generate_random_circuit(8, seed=seed)
    counts = reference_trace(circuit)
    budget = (max(counts) + counts[0]) // 2
    gate = next(index for index, nodes in enumerate(counts) if nodes > budget)
    result = run(circuit, engine="bitslice",
                 limits=ResourceLimits(max_seconds=60.0, max_nodes=budget))
    assert result.status == "MO"
    assert f"{counts[gate]} nodes > {budget} nodes" in result.detail
    assert result.extra["gates_applied"] == gate
    assert result.peak_memory_nodes == max(counts[:gate + 1])
