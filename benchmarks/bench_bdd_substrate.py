"""Micro-benchmarks of the BDD substrate (the CUDD substitute).

The gate rules spend essentially all their time in the manager's ITE / apply
operations and in cofactoring, so the substrate's throughput determines the
headline numbers of every other benchmark.  These micro-benchmarks track the
cost of the dominant operation patterns on structured functions of the size
the simulator actually produces, and each records the substrate's computed
table hit rates in ``extra_info`` so the benchmark report shows *why* a
timing moved, not only that it moved.
"""

from __future__ import annotations

import random

import pytest

from repro.bdd import BddManager

from conftest import scale_choice

NUM_VARS = scale_choice(24, 48)
NUM_TERMS = scale_choice(40, 120)
DEEP_VARS = scale_choice(900, 2500)
#: Just past the manager's 600-variable recursive-path limit.
DEEP_KERNEL_VARS = 640


def _random_dnf(manager: BddManager, rng: random.Random, num_terms: int):
    """A random DNF over the manager's variables (a structured mid-size BDD)."""
    function = manager.false
    for _ in range(num_terms):
        cube = manager.true
        for var in rng.sample(range(manager.num_vars), 4):
            cube = cube & manager.literal(var, rng.random() < 0.5)
        function = function | cube
    return function


def _record_substrate(benchmark, manager: BddManager) -> None:
    """Attach the headline substrate counters to the benchmark row."""
    stats = manager.perf_stats()
    for key in ("cache_hit_rate", "cache_and_hit_rate", "cache_or_hit_rate",
                "cache_xor_hit_rate", "cache_ite_hit_rate",
                "cache_restrict_hit_rate", "unique_probes", "peak_live_nodes",
                # Miss counts accumulate only on first-time subproblems, so
                # they are independent of how many rounds the timer ran:
                # the regression gate matches them exactly.
                "cache_misses"):
        benchmark.extra_info[f"substrate_{key}"] = round(stats[key], 6)


def test_bdd_conjunction(benchmark):
    """AND of two random DNFs."""
    rng = random.Random(3)
    manager = BddManager(NUM_VARS)
    f = _random_dnf(manager, rng, NUM_TERMS)
    g = _random_dnf(manager, rng, NUM_TERMS)

    result = benchmark(lambda: (f & g).count_nodes())
    benchmark.extra_info["num_vars"] = NUM_VARS
    benchmark.extra_info["result_nodes"] = result
    _record_substrate(benchmark, manager)
    assert result >= 1


def test_bdd_xor_adder_step(benchmark):
    """One symbolic full-adder step (the inner loop of every Table II rule)."""
    rng = random.Random(5)
    manager = BddManager(NUM_VARS)
    a = _random_dnf(manager, rng, NUM_TERMS)
    b = _random_dnf(manager, rng, NUM_TERMS)
    carry = _random_dnf(manager, rng, NUM_TERMS // 2)

    def adder_step():
        total = a ^ b ^ carry
        carry_out = (a & b) | ((a | b) & carry)
        return total.count_nodes() + carry_out.count_nodes()

    result = benchmark(adder_step)
    benchmark.extra_info["result_nodes"] = result
    _record_substrate(benchmark, manager)
    assert result >= 2


def test_bdd_cofactor(benchmark):
    """Cofactor of a random DNF with respect to one variable."""
    rng = random.Random(7)
    manager = BddManager(NUM_VARS)
    f = _random_dnf(manager, rng, NUM_TERMS)

    result = benchmark(lambda: f.cofactor(NUM_VARS // 2, True).count_nodes())
    benchmark.extra_info["result_nodes"] = result
    _record_substrate(benchmark, manager)
    assert result >= 1


def test_bdd_ite_mux(benchmark):
    """An ITE-heavy multiplexer tree (the shape every Table II handler emits).

    Exercises the standard-triple reduction: most inner ITE calls degenerate
    into shared AND / OR table lookups.
    """
    rng = random.Random(11)
    manager = BddManager(NUM_VARS)
    f = _random_dnf(manager, rng, NUM_TERMS // 2)
    g = _random_dnf(manager, rng, NUM_TERMS // 2)
    selectors = [manager.var(i) for i in range(0, NUM_VARS, 3)]

    def mux_tree():
        current = f
        other = g
        for selector in selectors:
            current, other = selector.ite(current, other), current
        return current.count_nodes()

    result = benchmark(mux_tree)
    benchmark.extra_info["result_nodes"] = result
    _record_substrate(benchmark, manager)
    assert result >= 1


def test_bdd_deep_chain(benchmark):
    """Conjunction / negation over a chain far deeper than the recursion
    limit — exercises the explicit-stack apply used for deep managers."""
    manager = BddManager(DEEP_VARS)
    even = manager.true
    odd = manager.true
    for index in range(DEEP_VARS):
        literal = manager.literal(index, index % 3 != 0)
        if index % 2 == 0:
            even = even & literal
        else:
            odd = odd & literal

    def deep_ops():
        both = even & odd
        flipped = ~both
        return (flipped ^ even).count_nodes()

    result = benchmark(deep_ops)
    benchmark.extra_info["num_vars"] = DEEP_VARS
    benchmark.extra_info["result_nodes"] = result
    _record_substrate(benchmark, manager)
    assert result >= 1


def test_deep_manager_kernels(benchmark):
    """One cache-cold round of every operation on a manager past the
    recursion-safe threshold, so every kernel runs on the explicit-stack
    driver instead of the recursive closures."""
    manager = BddManager(DEEP_KERNEL_VARS)
    assert not manager._recursion_safe()
    chain = manager.true
    parity = manager.false
    band = manager.false
    for index in range(DEEP_KERNEL_VARS):
        chain = chain & manager.literal(index, index % 3 != 0)
        if index % 2 == 0:
            parity = parity ^ manager.var(index)
        if index % 5 == 0 and index + 3 < DEEP_KERNEL_VARS:
            band = band | (manager.var(index) & manager.nvar(index + 2)
                           & manager.var(index + 3))
    f, g, h = chain.node, parity.node, band.node
    last = DEEP_KERNEL_VARS - 1
    ops = {
        "and": lambda: manager.apply_and(f, g),
        "or": lambda: manager.apply_or(g, h),
        "xor": lambda: manager.apply_xor(g, h),
        "not": lambda: manager.apply_not(h),
        "ite": lambda: manager.apply_ite(h, f, g),
        "restrict": lambda: manager.apply_restrict(g, last // 2, True),
        "exists": lambda: manager.apply_exists(h, range(0, DEEP_KERNEL_VARS, 7)),
        "compose": lambda: manager.apply_compose(g, 4, h),
        "flip": lambda: manager.apply_flip(g, last // 2),
        "maj3": lambda: manager.apply_maj3(f, g, h),
        "xor3": lambda: manager.apply_xor3(f, g, h),
        "swapvars": lambda: manager.apply_swap_vars(f, 5, last),
    }

    def deep_round():
        manager.clear_cache()
        return {name: op() for name, op in ops.items()}

    results = benchmark(deep_round)
    benchmark.extra_info["num_vars"] = DEEP_KERNEL_VARS
    for name, node in results.items():
        benchmark.extra_info[f"result_nodes_{name}"] = manager.count_nodes([node])
    assert min(manager.count_nodes([node]) for node in results.values()) > 2
