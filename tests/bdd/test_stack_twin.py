"""The explicit-stack driver is an exact twin of the recursive closures.

Managers deeper than ``_MAX_RECURSIVE_VARS`` run every operation through
:meth:`~repro.bdd.manager.BddManager._stack_apply` instead of the recursive
``_make_*_rec`` closures.  Forcing that threshold to 0 sends a small manager
down the stack path, so one seeded script of every operation and every
batch method (``and_many``, ..., ``butterfly_add_many``) can be replayed
on both paths.  They must agree on every returned node id and on every computed-
and unique-table counter: same subproblems, same memo hits, same nodes
interned in the same order, and (under a small ``cache_size_limit``) the
same table evictions at the same operation boundaries.
"""

from __future__ import annotations

import random

import pytest

import repro.bdd.manager as manager_module
from repro.bdd import BddManager

NUM_VARS = 10
STEPS = 300
BATCH = 4

#: perf_stats() keys that must match exactly between the twins.
COUNTER_PREFIXES = ("cache_", "unique_", "batch_")


def run_script(seed: int, cache_size_limit: int):
    """Replay one seeded script of every operation; returns the results,
    the counters and the node-store size."""
    rng = random.Random(seed)
    manager = BddManager(NUM_VARS, cache_size_limit=cache_size_limit)
    pool = [0, 1] + [manager.var_node(index) for index in range(NUM_VARS)]

    def node():
        return rng.choice(pool)

    def var():
        return rng.randrange(NUM_VARS)

    def pairs():
        return [(node(), node()) for _ in range(BATCH)]

    def triples():
        return [(node(), node(), node()) for _ in range(BATCH)]

    def nodes():
        return [node() for _ in range(BATCH)]

    steps = [
        lambda: manager.apply_and(node(), node()),
        lambda: manager.apply_or(node(), node()),
        lambda: manager.apply_xor(node(), node()),
        lambda: manager.apply_not(node()),
        lambda: manager.apply_ite(node(), node(), node()),
        lambda: manager.apply_restrict(node(), var(), rng.random() < 0.5),
        lambda: manager.apply_exists(node(), rng.sample(range(NUM_VARS), rng.randrange(1, 4))),
        lambda: manager.apply_compose(node(), var(), node()),
        lambda: manager.apply_full_add(node(), node(), node()),
        lambda: manager.apply_maj3(node(), node(), node()),
        lambda: manager.apply_xor3(node(), node(), node()),
        lambda: manager.apply_swap_vars(node(), var(), var()),
        lambda: manager.apply_flip(node(), var()),
        lambda: manager.apply_controlled_flip(node(), node(), var()),
        lambda: manager.apply_controlled_swap(node(), node(), var(), var()),
        lambda: manager.and_many(pairs()),
        lambda: manager.or_many(pairs()),
        lambda: manager.xor_many(pairs()),
        lambda: manager.not_many(nodes()),
        lambda: manager.ite_many(triples()),
        lambda: manager.full_add_many(triples()),
        lambda: manager.restrict_many(nodes(), var(), rng.random() < 0.5),
        lambda: manager.controlled_flip_many(nodes(), node(), var()),
        lambda: manager.controlled_swap_many(nodes(), node(), var(), var()),
        lambda: manager.butterfly_add_many(
            [(node(), node(), node(), rng.randrange(8)) for _ in range(BATCH)], var()),
    ]
    results = []
    for _ in range(STEPS):
        result = rng.choice(steps)()
        results.append(result)
        # Results are a node id, a (sum, carry) pair or a list of either.
        for item in result if isinstance(result, list) else [result]:
            pool.extend(item if isinstance(item, tuple) else [item])
    stats = manager.perf_stats()
    counters = {key: value for key, value in stats.items()
                if key.startswith(COUNTER_PREFIXES) and not key.endswith("rate")}
    return results, counters, len(manager._var), manager._recursion_safe()


@pytest.mark.parametrize("cache_size_limit", [2_000_000, 16])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stack_driver_matches_recursive_closures(monkeypatch, seed, cache_size_limit):
    results, counters, store_size, recursive = run_script(seed, cache_size_limit)
    assert recursive
    monkeypatch.setattr(manager_module, "_MAX_RECURSIVE_VARS", 0)
    stack_results, stack_counters, stack_store_size, stack_recursive = run_script(
        seed, cache_size_limit)
    assert not stack_recursive
    assert stack_results == results
    assert stack_counters == counters
    assert stack_store_size == store_size
    assert counters["cache_misses"] > 0
    if cache_size_limit == 16:
        assert counters["cache_evictions"] > 0
