"""Property tests for the fused multi-operand kernels.

Each fused kernel must be **node-for-node** equivalent to the naive
2-operand composition it replaces — ROBDD canonicity makes node-id equality
the strongest possible check.  Coverage:

* ``apply_maj3`` vs ``(f & g) | (f & h) | (g & h)`` on randomised DNFs,
* ``apply_xor3`` vs ``f ^ g ^ h``,
* the full adder (``apply_full_add`` / ``full_add_many``) vs both of them
  and both compositions, including terminal and repeated operands, and its
  computed-table traffic: one ``maj3`` lookup per visited triple, no
  ``xor3`` traffic,
* ``apply_swap_vars`` vs the cofactor / connective SWAP formula, including
  adjacent, distant, absent-variable and involution cases,
* every batch method of the manager (``and_many``, ..., ``butterfly_add_many``)
  vs the equivalent sequence of single-shot operations,
* the literal kernels: the flip (``controlled_flip_many`` / ``apply_flip``
  under a TRUE condition) vs ``ite(x_v, f|v=0, f|v=1)`` and the condition
  XOR vs ``ite(c, not f, f)``
  (including the H and Ry(pi/2) second addends), on hypothesis-drawn BDDs
  in the default order, after ``sift`` / ``set_order`` and after a garbage
  collection that recycles node ids,
* the controlled kernels (``controlled_flip_many`` / ``apply_controlled_flip``
  and ``controlled_swap_many`` / ``apply_controlled_swap``) vs the flip or
  swap followed by an ITE, with conditions above, between and below the
  targets, multi-control cubes and arbitrary functions, on a recursive and
  on an explicit-stack manager, and their table traffic (``ite``),
* the plain X and SWAP actions as the controlled kernels under a TRUE
  condition vs the restrict / restrict / ITE flip and the gate rules'
  reference SWAP formula, on both drivers, and their traffic (``ite``,
  with no ``compose`` or ``swapvars`` lookups),
* the butterfly adder step (``butterfly_add_many``) vs the cofactor or
  flip sweeps, the conditional complement (XOR or NOT) and the full adder,
  in every mode, with the target above, between, below or inside the
  operands' supports and constant, literal or arbitrary carries, on a
  recursive and on an explicit-stack manager, and its table traffic
  (``maj3``),
* all of the above on a manager past the recursion-safe threshold under an
  artificially tiny recursion limit (the explicit-stack twins).
"""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import Bdd, BddManager
from repro.bdd.manager import (
    BUTTERFLY_CROSS,
    BUTTERFLY_SUB_HIGH,
    BUTTERFLY_SUB_LOW,
    FALSE,
    OP_MAJ3,
    OP_NAMES,
    TRUE,
)
from repro.core.bitslice import BitSlicedState
from repro.core.gate_rules import GateRuleEngine


def random_function(manager: BddManager, rng: random.Random,
                    max_terms: int = 18, literals: int = 3) -> Bdd:
    """A random DNF over the manager's variables (structured mid-size BDD)."""
    roll = rng.random()
    if roll < 0.05:
        return manager.false
    if roll < 0.1:
        return manager.true
    function = manager.false
    for _ in range(rng.randrange(1, max_terms)):
        cube = manager.true
        for var in rng.sample(range(manager.num_vars), literals):
            cube = cube & manager.literal(var, rng.random() < 0.5)
        function = function | cube
    return function


def naive_maj3(f: Bdd, g: Bdd, h: Bdd) -> Bdd:
    return (f & g) | (f & h) | (g & h)


def naive_xor3(f: Bdd, g: Bdd, h: Bdd) -> Bdd:
    return f ^ g ^ h


def naive_swap_vars(f: Bdd, var_a: int, var_b: int) -> Bdd:
    manager = f.manager
    qa, qb = manager.var(var_a), manager.var(var_b)
    f_01 = f.cofactor(var_a, False).cofactor(var_b, True)
    f_10 = f.cofactor(var_a, True).cofactor(var_b, False)
    return (qa.equiv(qb) & f) | (qa & ~qb & f_01) | (~qa & qb & f_10)


class TestFusedTernaryKernels:
    @pytest.mark.parametrize("seed", [1, 7, 23, 91])
    def test_maj3_matches_composition(self, seed):
        rng = random.Random(seed)
        manager = BddManager(12)
        for _ in range(40):
            f, g, h = (random_function(manager, rng) for _ in range(3))
            fused = manager.apply_maj3(f.node, g.node, h.node)
            assert fused == naive_maj3(f, g, h).node

    @pytest.mark.parametrize("seed", [2, 11, 29, 83])
    def test_xor3_matches_composition(self, seed):
        rng = random.Random(seed)
        manager = BddManager(12)
        for _ in range(40):
            f, g, h = (random_function(manager, rng) for _ in range(3))
            fused = manager.apply_xor3(f.node, g.node, h.node)
            assert fused == naive_xor3(f, g, h).node

    def test_degenerate_operands(self):
        manager = BddManager(6)
        rng = random.Random(5)
        f = random_function(manager, rng)
        g = random_function(manager, rng)
        false, true = manager.false, manager.true
        for x, y in ((f, g), (f, f), (f, true), (f, false), (false, true)):
            for triple in ((x, x, y), (x, y, x), (y, x, x),
                           (false, x, y), (x, true, y)):
                assert (triple[0].maj3(triple[1], triple[2])
                        == naive_maj3(*triple))
                assert (triple[0].xor3(triple[1], triple[2])
                        == naive_xor3(*triple))

    def test_handle_front_ends(self):
        manager = BddManager(8)
        rng = random.Random(13)
        f, g, h = (random_function(manager, rng) for _ in range(3))
        assert f.maj3(g, h) == naive_maj3(f, g, h)
        assert f.xor3(g, h) == naive_xor3(f, g, h)

    def test_full_adder_semantics(self):
        """One fused sum / carry pair equals integer addition on every
        assignment — the property the ripple chains rely on."""
        manager = BddManager(6)
        rng = random.Random(17)
        a = random_function(manager, rng)
        b = random_function(manager, rng)
        c = random_function(manager, rng)
        total = a.xor3(b, c)
        carry = a.maj3(b, c)
        import itertools
        for values in itertools.product([False, True], repeat=6):
            assignment = dict(enumerate(values))
            bits = sum((a.evaluate(assignment), b.evaluate(assignment),
                        c.evaluate(assignment)))
            assert total.evaluate(assignment) == bool(bits & 1)
            assert carry.evaluate(assignment) == (bits >= 2)


def reference_lookups(manager: BddManager, triples):
    """``(hits, misses)`` of a cache-cold full-adder batch over ``triples``:
    one lookup per non-degenerate sorted triple its recursion visits, a
    miss the first time and a hit after, with the memo shared across the
    batch."""
    seen = set()
    hits = 0

    def visit(a: int, b: int, c: int) -> None:
        nonlocal hits
        a, b, c = sorted((a, b, c))
        if a == b or b == c or a < 2:
            return
        if (a, b, c) in seen:
            hits += 1
            return
        seen.add((a, b, c))
        top = min(manager.level_of(manager.node_var(n)) for n in (a, b, c))
        cofactors = [(manager.node_low(n), manager.node_high(n))
                     if manager.level_of(manager.node_var(n)) == top else (n, n)
                     for n in (a, b, c)]
        visit(*(low for low, _ in cofactors))
        visit(*(high for _, high in cofactors))

    for triple in triples:
        visit(*triple)
    return hits, len(seen)


class TestFullAdder:
    """``apply_full_add`` / ``full_add_many``: Table II's sum and carry from
    one traversal, node for node equal to the split kernels and to the naive
    compositions."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           picks=st.lists(st.tuples(*[st.integers(min_value=0, max_value=5)] * 3),
                          min_size=1, max_size=6))
    def test_sum_and_carry_match_compositions(self, seed, picks):
        rng = random.Random(seed)
        manager = BddManager(8)
        # Indices 0 and 1 are the terminals; picks repeat operands freely.
        pool = [manager.false, manager.true] + [
            random_function(manager, rng, max_terms=10) for _ in range(4)]
        triples = [tuple(pool[index] for index in pick) for pick in picks]
        nodes = [tuple(f.node for f in triple) for triple in triples]
        manager.clear_cache()
        batched = manager.full_add_many(nodes)
        manager.clear_cache()
        single = [manager.apply_full_add(*triple) for triple in nodes]
        manager.clear_cache()
        split = [(manager.apply_xor3(*triple), manager.apply_maj3(*triple))
                 for triple in nodes]
        naive = [(naive_xor3(*triple).node, naive_maj3(*triple).node)
                 for triple in triples]
        assert batched == single == split == naive

    @pytest.mark.parametrize("seed", [3, 47])
    def test_one_maj3_lookup_per_visited_triple(self, seed):
        rng = random.Random(seed)
        manager = BddManager(10)
        functions = [random_function(manager, rng) for _ in range(6)]
        nodes = [f.node for f in functions if f.node > 1]
        triples = [triple for triple in zip(nodes, nodes[1:], nodes[2:])
                   if len(set(triple)) == 3]
        assert triples
        manager.clear_cache()
        before = manager.perf_stats()
        manager.full_add_many(triples)
        after = manager.perf_stats()
        hits, misses = reference_lookups(manager, triples)
        assert misses > len(triples)
        assert after["cache_maj3_hits"] - before["cache_maj3_hits"] == hits
        assert after["cache_maj3_misses"] - before["cache_maj3_misses"] == misses
        assert after["cache_xor3_hits"] == before["cache_xor3_hits"] == 0
        assert after["cache_xor3_misses"] == before["cache_xor3_misses"] == 0
        # A repeat is served whole: one hit per triple, nothing rebuilt.
        manager.full_add_many(triples)
        again = manager.perf_stats()
        assert again["cache_maj3_hits"] - after["cache_maj3_hits"] == len(triples)
        assert again["cache_misses"] == after["cache_misses"]
        assert again["unique_inserts"] == after["unique_inserts"]


class TestFusedSwapVars:
    @pytest.mark.parametrize("seed", [3, 19, 41])
    def test_swap_matches_composition(self, seed):
        rng = random.Random(seed)
        manager = BddManager(12)
        for _ in range(60):
            f = random_function(manager, rng)
            var_a, var_b = rng.sample(range(12), 2)
            fused = manager.apply_swap_vars(f.node, var_a, var_b)
            assert fused == naive_swap_vars(f, var_a, var_b).node

    def test_adjacent_and_extreme_pairs(self):
        manager = BddManager(10)
        rng = random.Random(31)
        f = random_function(manager, rng)
        for var_a, var_b in ((0, 1), (8, 9), (0, 9), (4, 5), (9, 0)):
            assert (f.swap_vars(var_a, var_b)
                    == naive_swap_vars(f, var_a, var_b))

    def test_swap_is_an_involution(self):
        manager = BddManager(10)
        rng = random.Random(37)
        for _ in range(25):
            f = random_function(manager, rng)
            var_a, var_b = rng.sample(range(10), 2)
            assert f.swap_vars(var_a, var_b).swap_vars(var_b, var_a) == f

    def test_swap_same_variable_is_identity(self):
        manager = BddManager(6)
        rng = random.Random(43)
        f = random_function(manager, rng)
        assert f.swap_vars(3, 3) == f

    def test_swap_of_absent_variables_is_identity(self):
        manager = BddManager(8)
        # f depends only on variables 2 and 3.
        f = manager.var(2) & ~manager.var(3)
        assert f.swap_vars(5, 6) == f
        # Swapping an absent variable with a present one renames it.
        renamed = f.swap_vars(2, 5)
        assert renamed == (manager.var(5) & ~manager.var(3))


class TestBatchMethods:
    """The manager's ``*_many`` methods: each is one batch transaction of
    the matching single-shot operation."""

    def _functions(self, manager, rng, count=9):
        return [random_function(manager, rng) for _ in range(count)]

    def _batches(self, manager, nodes):
        """Every batch method with its single-shot twin, on ``nodes``."""
        pairs = list(zip(nodes, nodes[1:]))
        triples = list(zip(nodes, nodes[1:], nodes[2:]))
        condition = manager.apply_and(manager.var_node(5), manager.var_node(0))
        butterflies = [(f, g, c, index % 8) for index, (f, g, c) in enumerate(triples)]
        return [
            (manager.and_many, (pairs,), manager.apply_and, pairs),
            (manager.or_many, (pairs,), manager.apply_or, pairs),
            (manager.xor_many, (pairs,), manager.apply_xor, pairs),
            (manager.not_many, (nodes,), manager.apply_not, [(n,) for n in nodes]),
            (manager.ite_many, (triples,), manager.apply_ite, triples),
            (manager.full_add_many, (triples,), manager.apply_full_add, triples),
            (manager.restrict_many, (nodes, 4, True), manager.apply_restrict,
             [(n, 4, True) for n in nodes]),
            (manager.controlled_flip_many, (nodes, condition, 3),
             manager.apply_controlled_flip, [(n, condition, 3) for n in nodes]),
            (manager.controlled_swap_many, (nodes, condition, 1, 7),
             manager.apply_controlled_swap, [(n, condition, 1, 7) for n in nodes]),
            (lambda items: manager.butterfly_add_many(items, 6), (butterflies,),
             lambda *item: reference_butterflies(manager, [item], 6)[0], butterflies),
        ]

    def test_batches_match_single_shot_operations(self):
        manager = BddManager(10)
        rng = random.Random(53)
        nodes = [f.node for f in self._functions(manager, rng)]
        batches = self._batches(manager, nodes)
        assert len(batches) == 10
        for many, args, single, operands in batches:
            assert many(*args) == [single(*operand) for operand in operands], many

    def test_empty_batches_are_not_counted(self):
        manager = BddManager(10)
        before = manager.perf_stats()
        for many, args, _, _ in self._batches(manager, []):
            assert many(*args) == [], many
        assert manager.controlled_swap_many([], TRUE, 2, 2) == []
        stats = manager.perf_stats()
        assert stats["batch_runs"] == before["batch_runs"]
        assert stats["batch_items"] == before["batch_items"]

    def test_batch_counters(self):
        manager = BddManager(10)
        rng = random.Random(59)
        nodes = [f.node for f in self._functions(manager, rng, 5)]
        for many, args, _, operands in self._batches(manager, nodes):
            before = manager.perf_stats()
            many(*args)
            stats = manager.perf_stats()
            assert stats["batch_runs"] == before["batch_runs"] + 1, many
            assert stats["batch_items"] == before["batch_items"] + len(operands), many
        # Swapping a variable with itself returns the nodes without a batch.
        before = manager.perf_stats()
        assert manager.controlled_swap_many(nodes, TRUE, 2, 2) == nodes
        assert manager.perf_stats()["batch_runs"] == before["batch_runs"]


def reference_flip(manager: BddManager, f: int, var: int) -> int:
    """The X action the long way: two cofactors recombined by an ITE."""
    return manager.apply_ite(manager.var_node(var),
                             manager.apply_restrict(f, var, False),
                             manager.apply_restrict(f, var, True))


def reference_negate_where(manager: BddManager, condition: int, f: int) -> int:
    """Conditional negation the long way: a NOT, then an ITE."""
    return manager.apply_ite(condition, manager.apply_not(f), f)


def check_literal_kernels(manager: BddManager, functions, variables,
                          rng: random.Random) -> None:
    """Every literal-kernel form returns the node ids its composition
    builds in the same manager.  Each kernel runs cache-cold first, so its
    results are computed, not served by the reference's table entries."""
    nodes = [f.node for f in functions]
    for var in variables:
        manager.clear_cache()
        flipped = manager.controlled_flip_many(nodes, TRUE, var)
        manager.clear_cache()
        single = [manager.apply_flip(f, var) for f in nodes]
        assert flipped == single == [reference_flip(manager, f, var) for f in nodes]
    literal_a, literal_b = (manager.var_node(var) for var in rng.sample(variables, 2))
    conditions = [literal_a, manager.apply_not(literal_a),
                  manager.apply_and(literal_a, literal_b), nodes[0]]
    for condition in conditions:
        manager.clear_cache()
        negated = manager.xor_many([(condition, f) for f in nodes])
        assert negated == [reference_negate_where(manager, condition, f)
                           for f in nodes]
    for var in rng.sample(variables, 2):
        literal = manager.var_node(var)
        not_literal = manager.apply_not(literal)
        high = manager.restrict_many(nodes, var, True)
        manager.clear_cache()
        # H's second addend: ite(q, not F, F|q=1) == q ^ F|q=1.
        h_second = manager.xor_many([(literal, hi) for hi in high])
        # Ry's second addend: ite(q, F, not F|q=1) == (not q) ^ F|q=1.
        ry_second = manager.xor_many([(not_literal, hi) for hi in high])
        assert h_second == [manager.apply_ite(literal, manager.apply_not(f), hi)
                            for f, hi in zip(nodes, high)]
        assert ry_second == [manager.apply_ite(literal, f, manager.apply_not(hi))
                             for f, hi in zip(nodes, high)]


class TestLiteralKernels:
    NUM_VARS = 9

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           regime=st.sampled_from(("default", "sift", "set_order", "gc")))
    def test_literal_kernels_match_compositions(self, seed, regime):
        rng = random.Random(seed)
        manager = BddManager(self.NUM_VARS)
        functions = [random_function(manager, rng, max_terms=12)
                     for _ in range(5)]
        if regime == "sift":
            manager.sift()
        elif regime == "set_order":
            order = list(range(self.NUM_VARS))
            rng.shuffle(order)
            manager.set_order(order)
            assert manager.current_order() == order
        elif regime == "gc":
            garbage = [random_function(manager, rng) for _ in range(4)]
            del garbage
            manager.garbage_collect()
            free_after_gc = len(manager._free)
            assert free_after_gc > 0
            functions += [random_function(manager, rng) for _ in range(3)]
            assert len(manager._free) < free_after_gc  # ids were recycled
        check_literal_kernels(manager, functions, list(range(self.NUM_VARS)), rng)

    def test_flip_is_a_size_preserving_involution(self):
        manager = BddManager(10)
        rng = random.Random(61)
        for _ in range(30):
            f = random_function(manager, rng).node
            var = rng.randrange(10)
            flipped = manager.apply_flip(f, var)
            assert manager.apply_flip(flipped, var) == f
            assert manager.count_nodes([flipped]) == manager.count_nodes([f])

    def test_flip_of_absent_variable_and_terminals(self):
        manager = BddManager(6)
        f = manager.var(1) & ~manager.var(2)
        assert manager.apply_flip(f.node, 4) == f.node
        assert manager.apply_flip(0, 3) == 0 and manager.apply_flip(1, 3) == 1
        assert manager.apply_flip(manager.var_node(5), 5) == manager.apply_not(
            manager.var_node(5))
        with pytest.raises(ValueError):
            manager.apply_flip(f.node, 6)
        assert manager.controlled_flip_many([], TRUE, 0) == []


def random_function_over(manager: BddManager, rng: random.Random, variables,
                         max_terms: int = 10) -> Bdd:
    """A random DNF over ``variables`` only (a few of a wide manager's)."""
    function = manager.false
    for _ in range(rng.randrange(1, max_terms)):
        cube = manager.true
        for var in rng.sample(variables, min(3, len(variables))):
            cube = cube & manager.literal(var, rng.random() < 0.5)
        function = function | cube
    return function


#: Where a controlled kernel's condition sits relative to its targets.
CONDITION_PLACES = ("true", "false", "above", "between", "below", "cube",
                    "arbitrary")


def placed_condition(manager: BddManager, rng: random.Random, variables,
                     targets, place: str) -> Bdd:
    """A condition over ``variables``: a constant, one control literal
    above, between or below the targets' levels (any non-target when that
    region is empty, as "between" is for a flip), a cube with one control
    from each region that has a variable, or an arbitrary function (which
    may test the targets themselves)."""
    if place == "true":
        return manager.true
    if place == "false":
        return manager.false
    if place == "arbitrary":
        return random_function_over(manager, rng, variables)
    levels = sorted(manager.level_of(var) for var in targets)
    first, last = levels[0], levels[-1]
    regions = {"above": [], "between": [], "below": []}
    for var in variables:
        level = manager.level_of(var)
        if level < first:
            regions["above"].append(var)
        elif level > last:
            regions["below"].append(var)
        elif var not in targets:
            regions["between"].append(var)
    if place == "cube":
        controls = [rng.choice(region) for region in regions.values() if region]
    else:
        controls = [rng.choice(regions[place] or [var for region in regions.values()
                                                 for var in region])]
    condition = manager.true
    for var in controls:
        condition = condition & manager.var(var)
    return condition


def check_controlled_kernels(manager: BddManager, rng: random.Random, variables,
                             functions, place: str) -> None:
    """Both controlled kernels, batched and single shot, return the node
    ids of the action followed by an ITE, each run cache-cold."""
    nodes = [f.node for f in functions]
    target = rng.choice(variables)
    var_a, var_b = rng.sample(variables, 2)
    kernels = [
        ((target,),
         lambda c: manager.controlled_flip_many(nodes, c, target),
         lambda f, c: manager.apply_controlled_flip(f, c, target),
         lambda f: reference_flip(manager, f, target)),
        ((var_a, var_b),
         lambda c: manager.controlled_swap_many(nodes, c, var_a, var_b),
         lambda f, c: manager.apply_controlled_swap(f, c, var_b, var_a),
         lambda f: naive_swap_vars(Bdd(manager, f), var_a, var_b).node),
    ]
    for targets, many, single, act in kernels:
        condition = placed_condition(manager, rng, variables, targets, place)
        c = condition.node
        manager.clear_cache()
        batched = many(c)
        manager.clear_cache()
        single_shot = [single(f, c) for f in nodes]
        reference = [manager.apply_ite(c, act(f), f) for f in nodes]
        assert batched == single_shot == reference, (targets, place)


class TestControlledKernels:
    """``ite(c, act(f), f)`` in one traversal of ``(f, c)``, for the flip
    (CX, CCX) and the swap (CSWAP), equals the action followed by an ITE."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           place=st.sampled_from(CONDITION_PLACES),
           shuffled=st.booleans())
    @pytest.mark.parametrize("num_vars", [6, 700], ids=["recursive", "stack"])
    def test_kernels_match_action_then_ite(self, num_vars, seed, place, shuffled):
        rng = random.Random(seed)
        manager = BddManager(num_vars)
        assert manager._recursion_safe() == (num_vars == 6)
        variables = (list(range(num_vars)) if num_vars == 6
                     else sorted(rng.sample(range(num_vars), 8)))
        if shuffled:
            # Deal the variables over their own levels in a random order.
            levels = [manager.level_of(var) for var in variables]
            order = manager.current_order()
            for level, var in zip(levels, rng.sample(variables, len(variables))):
                order[level] = var
            manager.set_order(order)
        functions = [random_function_over(manager, rng, variables)
                     for _ in range(5)] + [manager.false, manager.true]
        check_controlled_kernels(manager, rng, variables, functions, place)

    def test_condition_below_the_target_is_ite_traffic_only(self):
        manager = BddManager(8)
        rng = random.Random(79)
        nodes = [random_function(manager, rng).node for _ in range(4)]
        below = manager.var_node(7)
        before = manager.perf_stats()
        manager.controlled_flip_many(nodes, below, 2)
        after = manager.perf_stats()
        assert OP_NAMES == ("and", "or", "xor", "not", "ite", "restrict",
                            "exists", "compose", "maj3", "xor3", "swapvars")
        assert after["cache_ite_misses"] > before["cache_ite_misses"]
        assert after["cache_compose_misses"] == before["cache_compose_misses"]
        assert after["cache_compose_hits"] == before["cache_compose_hits"]

    def test_constant_conditions_and_absent_targets(self):
        manager = BddManager(6)
        f = (manager.var(1) & ~manager.var(2)) | manager.var(4)
        assert manager.apply_controlled_flip(f.node, FALSE, 2) == f.node
        # Targets below every variable of f leave it unchanged.
        assert manager.apply_controlled_flip(f.node, manager.var_node(0), 5) == f.node
        assert manager.apply_controlled_swap(f.node, manager.var_node(0), 5, 5) == f.node
        assert manager.apply_controlled_flip(TRUE, manager.var_node(0), 1) == TRUE
        with pytest.raises(ValueError):
            manager.apply_controlled_flip(f.node, TRUE, 6)
        with pytest.raises(ValueError):
            manager.controlled_swap_many([f.node], TRUE, 0, 6)


class TestTrueConditionActions:
    """Under a TRUE condition the controlled kernels are the plain X and
    SWAP actions: the flip equals the restrict / restrict / ITE
    composition and the swap the gate rules' reference SWAP formula, node
    for node and cache-cold, on both drivers; the traffic is ``ite``."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           shuffled=st.booleans())
    @pytest.mark.parametrize("num_vars", [6, 700], ids=["recursive", "stack"])
    def test_actions_match_compositions(self, num_vars, seed, shuffled):
        rng = random.Random(seed)
        manager = BddManager(num_vars)
        assert manager._recursion_safe() == (num_vars == 6)
        variables = (list(range(num_vars)) if num_vars == 6
                     else sorted(rng.sample(range(num_vars), 8)))
        if shuffled:
            levels = [manager.level_of(var) for var in variables]
            order = manager.current_order()
            for level, var in zip(levels, rng.sample(variables, len(variables))):
                order[level] = var
            manager.set_order(order)
        rules = GateRuleEngine(BitSlicedState(num_vars, manager=manager))
        functions = [random_function_over(manager, rng, variables)
                     for _ in range(4)] + [manager.false, manager.true]
        target = rng.choice(variables)
        var_a, var_b = rng.sample(variables, 2)
        for f in functions:
            manager.clear_cache()
            flipped = manager.apply_controlled_flip(f.node, TRUE, target)
            manager.clear_cache()
            swapped = manager.apply_controlled_swap(f.node, TRUE, var_a, var_b)
            assert flipped == reference_flip(manager, f.node, target)
            assert swapped == rules._swap_two_vars(f, var_a, var_b).node

    def test_actions_count_as_ite_only(self):
        manager = BddManager(8)
        rng = random.Random(67)
        functions = [random_function(manager, rng) for _ in range(4)]
        nodes = [f.node for f in functions]
        assert OP_NAMES == ("and", "or", "xor", "not", "ite", "restrict",
                            "exists", "compose", "maj3", "xor3", "swapvars")
        for action in (lambda: manager.controlled_flip_many(nodes, TRUE, 3),
                       lambda: manager.controlled_swap_many(nodes, TRUE, 1, 6),
                       lambda: [manager.apply_flip(f, 3) for f in nodes],
                       lambda: [manager.apply_swap_vars(f, 6, 1) for f in nodes]):
            manager.clear_cache()
            before = manager.perf_stats()
            action()
            after = manager.perf_stats()
            assert after["cache_ite_misses"] > before["cache_ite_misses"]
            for name in ("compose", "swapvars"):
                assert after[f"cache_{name}_misses"] == before[f"cache_{name}_misses"], name
                assert after[f"cache_{name}_hits"] == before[f"cache_{name}_hits"], name


def reference_butterflies(manager: BddManager, items, var: int):
    """Butterfly steps the long way: ``f|q=0`` / ``g|q=1`` restrict sweeps
    (or ``f`` and the ``g`` flip sweep across), the second operand
    complemented on the subtracted sides by an XOR with the side's literal
    (a NOT sweep on both), then the full adder sweep."""
    q = manager.var_node(var)
    complement_on = {0: FALSE, BUTTERFLY_SUB_LOW: manager.apply_not(q),
                     BUTTERFLY_SUB_HIGH: q, BUTTERFLY_SUB_LOW | BUTTERFLY_SUB_HIGH: TRUE}
    triples = []
    for f, g, c, mode in items:
        if mode & BUTTERFLY_CROSS:
            first, second = f, reference_flip(manager, g, var)
        else:
            first = manager.restrict_many([f], var, False)[0]
            second = manager.restrict_many([g], var, True)[0]
        condition = complement_on[mode & (BUTTERFLY_SUB_LOW | BUTTERFLY_SUB_HIGH)]
        if condition == TRUE:
            second = manager.not_many([second])[0]
        else:
            second = manager.xor_many([(condition, second)])[0]
        triples.append((first, second, c))
    return manager.full_add_many(triples)


#: The superposing gates' modes: H, Ry(pi/2), and Rx(pi/2)'s subtracting
#: (a, b) and adding (c, d) vectors.
GATE_MODES = (BUTTERFLY_SUB_HIGH, BUTTERFLY_SUB_LOW,
              BUTTERFLY_CROSS | BUTTERFLY_SUB_LOW | BUTTERFLY_SUB_HIGH, BUTTERFLY_CROSS)

#: Where a butterfly's target sits relative to its operands' support.
TARGET_PLACES = ("above", "between", "below", "inside")


def placed_target(manager: BddManager, rng: random.Random, variables, place: str):
    """``(target, operand variables)``: the target at the top, a middle or
    the bottom level of ``variables`` with the operands over the others, or
    anywhere with the operands over all of them (the target included)."""
    by_level = sorted(variables, key=manager.level_of)
    if place == "inside":
        return rng.choice(variables), list(variables)
    index = {"above": 0, "below": len(by_level) - 1,
             "between": rng.randrange(1, len(by_level) - 1)}[place]
    target = by_level[index]
    return target, [var for var in variables if var != target]


def placed_carry(manager: BddManager, rng: random.Random, variables, target: int,
                 kind: str) -> Bdd:
    if kind == "constant":
        return rng.choice((manager.false, manager.true))
    if kind == "literal":
        var = rng.choice((target, target, rng.choice(variables)))
        return manager.literal(var, rng.random() < 0.5)
    return random_function_over(manager, rng, variables)


class TestButterflyKernel:
    """One butterfly adder step per ``(f, g, c, mode)`` item equals the
    cofactor / flip, XOR / NOT and full-adder sweeps it replaces, node for
    node and cache-cold, in every mode."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           place=st.sampled_from(TARGET_PLACES),
           carry=st.sampled_from(("constant", "literal", "arbitrary")),
           shuffled=st.booleans())
    @pytest.mark.parametrize("num_vars", [6, 700], ids=["recursive", "stack"])
    def test_kernel_matches_sweeps_then_adder(self, num_vars, seed, place, carry, shuffled):
        rng = random.Random(seed)
        manager = BddManager(num_vars)
        assert manager._recursion_safe() == (num_vars == 6)
        variables = (list(range(num_vars)) if num_vars == 6
                     else sorted(rng.sample(range(num_vars), 8)))
        if shuffled:
            levels = [manager.level_of(var) for var in variables]
            order = manager.current_order()
            for level, var in zip(levels, rng.sample(variables, len(variables))):
                order[level] = var
            manager.set_order(order)
        target, support = placed_target(manager, rng, variables, place)
        functions = [random_function_over(manager, rng, support)
                     for _ in range(4)] + [manager.false, manager.true]
        carries = [placed_carry(manager, rng, variables, target, carry)
                   for _ in range(3)]
        items = [(rng.choice(functions).node, rng.choice(functions).node,
                  rng.choice(carries).node, mode)
                 for mode in range(8) for _ in range(2)]
        manager.clear_cache()
        fused = manager.butterfly_add_many(items, target)
        assert fused == reference_butterflies(manager, items, target)

    def test_gate_modes_pair_the_cofactors_of_table2(self):
        # Truth-table check of the four gate modes on one variable: a
        # 2-bit integer per vector, its value at q = 0 / 1 summed as the
        # H, Ry and Rx rows of Table II say.
        manager = BddManager(3)
        q = manager.var_node(0)
        f = manager.apply_xor(manager.var_node(1), q)
        g = manager.apply_and(manager.var_node(2), manager.apply_not(q))
        for mode in GATE_MODES:
            for c in (FALSE, TRUE, q, manager.apply_not(q)):
                (total, carry), = manager.butterfly_add_many([(f, g, c, mode)], 0)
                for bits in range(8):
                    assignment = {var: bool(bits >> var & 1) for var in range(3)}
                    side = assignment[0]
                    a_side = side if mode & BUTTERFLY_CROSS else False
                    b_side = (not side) if mode & BUTTERFLY_CROSS else True
                    a = manager.evaluate(f, {**assignment, 0: a_side})
                    b = manager.evaluate(g, {**assignment, 0: b_side})
                    if mode & (BUTTERFLY_SUB_HIGH if side else BUTTERFLY_SUB_LOW):
                        b = not b
                    cin = manager.evaluate(c, assignment)
                    assert manager.evaluate(total, assignment) == (a ^ b ^ cin)
                    assert manager.evaluate(carry, assignment) == (a + b + cin >= 2)

    def test_traffic_is_maj3_only_and_memoised(self):
        manager = BddManager(8)
        rng = random.Random(83)
        nodes = [random_function(manager, rng).node for _ in range(4)]
        q = manager.var_node(3)
        items = [(f, g, q, mode) for f, g in zip(nodes, nodes[1:] + nodes[:1])
                 for mode in GATE_MODES]
        manager.clear_cache()
        before = manager.perf_stats()
        first = manager.butterfly_add_many(items, 3)
        middle = manager.perf_stats()
        assert OP_NAMES == ("and", "or", "xor", "not", "ite", "restrict",
                            "exists", "compose", "maj3", "xor3", "swapvars")
        assert middle["cache_maj3_misses"] > before["cache_maj3_misses"]
        for name in ("restrict", "compose", "ite", "swapvars", "xor3"):
            assert middle[f"cache_{name}_misses"] == before[f"cache_{name}_misses"], name
            assert middle[f"cache_{name}_hits"] == before[f"cache_{name}_hits"], name
        # A repeat is one maj3 hit per item and builds nothing.
        second = manager.butterfly_add_many(items, 3)
        after = manager.perf_stats()
        assert second == first
        assert after["cache_maj3_hits"] == middle["cache_maj3_hits"] + len(items)
        assert after["cache_misses"] == middle["cache_misses"]
        assert after["unique_inserts"] == middle["unique_inserts"]

    def test_memo_drops_with_the_generation(self):
        manager = BddManager(6)
        rng = random.Random(89)
        f = random_function(manager, rng)
        carry = manager.var(2)
        items = [(f.node, f.node, carry.node, BUTTERFLY_SUB_HIGH)]
        events = (manager.garbage_collect, manager.sift,
                  lambda: manager.swap_adjacent_levels(0), manager.clear_cache)
        for event in events:
            manager.butterfly_add_many(items, 2)
            assert any(isinstance(key, tuple) for key in manager._tables[OP_MAJ3])
            generation = manager.cache_generation
            event()
            assert manager.cache_generation > generation
            assert not manager._tables[OP_MAJ3]

    def test_unknown_target_rejected(self):
        manager = BddManager(3)
        with pytest.raises(ValueError):
            manager.butterfly_add_many([(TRUE, FALSE, FALSE, 0)], 3)
        assert manager.butterfly_add_many([], 0) == []


class TestDeepManagerFusedKernels:
    """Managers past the recursion-safe threshold must run the fused kernels
    on the explicit stack, even under a tiny recursion limit."""

    NUM_VARS = 1500  # > _MAX_RECURSIVE_VARS

    def _chain(self, manager, step):
        f = manager.true
        for index in range(self.NUM_VARS):
            f = f & manager.literal(index, index % step != 0)
        return f

    def test_deep_fused_kernels_under_low_recursion_limit(self):
        manager = BddManager(self.NUM_VARS)
        old_limit = sys.getrecursionlimit()
        try:
            f = self._chain(manager, 3)
            g = self._chain(manager, 2)
            h = ~manager.var(10) | manager.var(1200)
            sys.setrecursionlimit(220)
            assert (f.maj3(g, h)) == naive_maj3(f, g, h)
            assert (f.xor3(g, h)) == naive_xor3(f, g, h)
            swapped = f.swap_vars(5, 1400)
            assert swapped == naive_swap_vars(f, 5, 1400)
            assert swapped.swap_vars(1400, 5) == f
            triples = [(f.node, g.node, h.node), (g.node, h.node, f.node)]
            assert manager.full_add_many(triples) == [
                (manager.apply_xor3(*t), manager.apply_maj3(*t)) for t in triples]
            assert (manager.controlled_swap_many([f.node, g.node], TRUE, 5, 1400)
                    == [naive_swap_vars(n, 5, 1400).node for n in (f, g)])
        finally:
            sys.setrecursionlimit(old_limit)

    def test_deep_controlled_kernels_under_low_recursion_limit(self):
        manager = BddManager(self.NUM_VARS)
        old_limit = sys.getrecursionlimit()
        try:
            f = self._chain(manager, 3)
            g = self._chain(manager, 2) | manager.var(700)
            nodes = [f.node, g.node]
            conditions = [manager.var(10), manager.var(900) & manager.var(1450),
                          manager.var(3) & manager.var(1499), f]
            sys.setrecursionlimit(220)
            for condition in conditions:
                c = condition.node
                assert manager.controlled_flip_many(nodes, c, 700) == [
                    manager.apply_ite(c, reference_flip(manager, n, 700), n) for n in nodes]
                assert manager.controlled_swap_many(nodes, c, 1400, 5) == [
                    manager.apply_ite(c, naive_swap_vars(Bdd(manager, n), 5, 1400).node, n)
                    for n in nodes]
        finally:
            sys.setrecursionlimit(old_limit)

    def test_deep_butterfly_kernel_under_low_recursion_limit(self):
        manager = BddManager(self.NUM_VARS)
        old_limit = sys.getrecursionlimit()
        try:
            f = self._chain(manager, 3)
            g = self._chain(manager, 2) | manager.var(700)
            h = manager.var(10) ^ manager.var(1450)
            carries = [FALSE, TRUE, manager.var_node(700), h.node, f.node]
            items = [(a, b, c, mode) for a, b in ((f.node, f.node), (f.node, g.node),
                                                  (g.node, h.node))
                     for c in carries for mode in GATE_MODES]
            sys.setrecursionlimit(220)
            for target in (700, 5, 1499):
                manager.clear_cache()
                assert manager.butterfly_add_many(items, target) == reference_butterflies(
                    manager, items, target)
        finally:
            sys.setrecursionlimit(old_limit)

    @pytest.mark.parametrize("regime", ["default", "set_order", "gc"])
    def test_deep_literal_kernels_under_low_recursion_limit(self, regime):
        num_vars = 640  # > _MAX_RECURSIVE_VARS, and far deeper than 220 frames
        manager = BddManager(num_vars)
        rng = random.Random(73)
        chain = manager.true
        parity = manager.false
        for index in range(num_vars):
            chain = chain & manager.literal(index, index % 3 != 0)
            if index % 2 == 0:
                parity = parity ^ manager.var(index)
        functions = [chain, parity, chain | parity,
                     random_function(manager, rng, max_terms=6),
                     random_function(manager, rng, max_terms=6)]
        if regime == "set_order":
            order = list(range(num_vars))
            order[:40] = reversed(order[:40])
            manager.set_order(order)
        elif regime == "gc":
            garbage = [random_function(manager, rng, max_terms=6) for _ in range(3)]
            del garbage
            assert manager.garbage_collect() > 0
            free_after_gc = len(manager._free)
            functions.append(random_function(manager, rng, max_terms=6))
            assert len(manager._free) < free_after_gc
        old_limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(220)
            check_literal_kernels(manager, functions, [0, 2, 5, 320, 638, 639], rng)
        finally:
            sys.setrecursionlimit(old_limit)
