"""Unit tests for the BDD manager: node construction and core operations.

Every operation is checked against a brute-force truth-table oracle on small
variable counts, which is the strongest possible functional specification for
ROBDDs.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from repro.bdd import BddManager
from repro.bdd.analysis import dag_export, truth_table
from repro.bdd.manager import FALSE, TRUE

GOLDEN_SHAPES = Path(__file__).resolve().parent.parent / "fixtures" / "bdd_shapes"


def all_assignments(variables):
    """All assignments over ``variables`` as dicts."""
    for values in itertools.product([False, True], repeat=len(variables)):
        yield dict(zip(variables, values))


class TestTerminalsAndVariables:
    def test_constants_are_distinct_terminals(self):
        manager = BddManager(2)
        assert manager.false.is_false()
        assert manager.true.is_true()
        assert manager.false.node == FALSE
        assert manager.true.node == TRUE
        assert manager.false != manager.true

    def test_new_var_extends_order(self):
        manager = BddManager(0)
        first = manager.new_var()
        second = manager.new_var()
        assert (first, second) == (0, 1)
        assert manager.num_vars == 2
        assert manager.current_order() == [0, 1]

    def test_var_and_nvar_are_complements(self):
        manager = BddManager(3)
        x = manager.var(1)
        not_x = manager.nvar(1)
        assert (~x) == not_x
        assert (x | not_x).is_true()
        assert (x & not_x).is_false()

    def test_literal_respects_phase(self):
        manager = BddManager(2)
        assert manager.literal(0, True) == manager.var(0)
        assert manager.literal(0, False) == manager.nvar(0)

    def test_unknown_variable_rejected(self):
        manager = BddManager(2)
        with pytest.raises(ValueError):
            manager.var(5)
        with pytest.raises(ValueError):
            manager.nvar(-1)

    def test_reduction_rule_no_redundant_nodes(self):
        manager = BddManager(2)
        x = manager.var(0)
        # x AND x == x: no new node should be needed.
        assert (x & x) == x
        # ITE(x, true, true) collapses to the terminal.
        assert x.ite(manager.true, manager.true).is_true()


class TestBooleanOperations:
    @pytest.mark.parametrize("num_vars", [1, 2, 3, 4])
    def test_and_or_xor_against_truth_tables(self, num_vars):
        manager = BddManager(num_vars)
        variables = list(range(num_vars))
        # f = x0 AND x1 ... alternating; g = parity.
        f = manager.true
        for index, var in enumerate(variables):
            literal = manager.var(var) if index % 2 == 0 else manager.nvar(var)
            f = f & literal
        g = manager.false
        for var in variables:
            g = g ^ manager.var(var)
        for assignment in all_assignments(variables):
            f_expected = all((assignment[v] if i % 2 == 0 else not assignment[v])
                             for i, v in enumerate(variables))
            g_expected = sum(assignment[v] for v in variables) % 2 == 1
            assert f.evaluate(assignment) == f_expected
            assert g.evaluate(assignment) == g_expected
            assert (f & g).evaluate(assignment) == (f_expected and g_expected)
            assert (f | g).evaluate(assignment) == (f_expected or g_expected)
            assert (f ^ g).evaluate(assignment) == (f_expected != g_expected)
            assert (~f).evaluate(assignment) == (not f_expected)

    def test_ite_matches_definition(self):
        manager = BddManager(3)
        f, g, h = manager.var(0), manager.var(1) & manager.var(2), manager.nvar(2)
        ite = f.ite(g, h)
        for assignment in all_assignments([0, 1, 2]):
            expected = g.evaluate(assignment) if f.evaluate(assignment) else h.evaluate(assignment)
            assert ite.evaluate(assignment) == expected

    def test_implies_and_equiv(self):
        manager = BddManager(2)
        x, y = manager.var(0), manager.var(1)
        implies = x.implies(y)
        equiv = x.equiv(y)
        for assignment in all_assignments([0, 1]):
            assert implies.evaluate(assignment) == ((not assignment[0]) or assignment[1])
            assert equiv.evaluate(assignment) == (assignment[0] == assignment[1])

    def test_de_morgan(self):
        manager = BddManager(3)
        f = manager.var(0) & manager.var(1)
        g = manager.var(1) | manager.nvar(2)
        assert (~(f & g)) == ((~f) | (~g))
        assert (~(f | g)) == ((~f) & (~g))

    def test_operations_across_managers_rejected(self):
        left = BddManager(1)
        right = BddManager(1)
        with pytest.raises(ValueError):
            _ = left.var(0) & right.var(0)

    def test_bool_conversion_is_an_error(self):
        manager = BddManager(1)
        with pytest.raises(TypeError):
            bool(manager.var(0))


class TestCofactorAndQuantification:
    def test_cofactor_fixes_variable(self):
        manager = BddManager(3)
        f = (manager.var(0) & manager.var(1)) | manager.var(2)
        positive = f.cofactor(0, True)
        negative = f.cofactor(0, False)
        for assignment in all_assignments([1, 2]):
            full_pos = {**assignment, 0: True}
            full_neg = {**assignment, 0: False}
            assert positive.evaluate(assignment) == f.evaluate(full_pos)
            assert negative.evaluate(assignment) == f.evaluate(full_neg)

    def test_shannon_expansion(self):
        manager = BddManager(3)
        f = (manager.var(0) ^ manager.var(1)) | (manager.var(1) & manager.var(2))
        x0 = manager.var(0)
        rebuilt = (x0 & f.cofactor(0, True)) | ((~x0) & f.cofactor(0, False))
        assert rebuilt == f

    def test_cofactor_cube(self):
        manager = BddManager(4)
        f = (manager.var(0) & manager.var(1)) ^ (manager.var(2) | manager.var(3))
        cofactored = f.cofactor_cube([(0, True), (2, False)])
        assert cofactored == f.cofactor(0, True).cofactor(2, False)

    def test_exists_and_forall(self):
        manager = BddManager(3)
        f = manager.var(0) & (manager.var(1) | manager.var(2))
        exists = f.exists([1])
        forall = f.forall([1])
        for assignment in all_assignments([0, 2]):
            branch_true = f.evaluate({**assignment, 1: True})
            branch_false = f.evaluate({**assignment, 1: False})
            assert exists.evaluate(assignment) == (branch_true or branch_false)
            assert forall.evaluate(assignment) == (branch_true and branch_false)

    def test_compose_substitutes_function(self):
        manager = BddManager(3)
        f = manager.var(0) ^ manager.var(1)
        g = manager.var(1) & manager.var(2)
        composed = f.compose(0, g)
        for assignment in all_assignments([0, 1, 2]):
            expected = g.evaluate(assignment) != assignment[1]
            assert composed.evaluate(assignment) == expected

    def test_cofactor_of_absent_variable_is_identity(self):
        manager = BddManager(3)
        f = manager.var(0) & manager.var(1)
        assert f.cofactor(2, True) == f
        assert f.cofactor(2, False) == f

    @pytest.mark.parametrize("index", [-1, 4, 9])
    def test_unknown_variable_index_is_rejected(self, index):
        # A negative index used to wrap around to the last variable, and an
        # index past the end raised a bare IndexError or was ignored.
        manager = BddManager(4)
        f = manager.var(3) & manager.var(0)
        g = manager.var(1)
        with pytest.raises(ValueError, match="unknown variable index"):
            f.cofactor(index, True)
        with pytest.raises(ValueError, match="unknown variable index"):
            manager.restrict_many([f.node], index, False)
        with pytest.raises(ValueError, match="unknown variable index"):
            f.compose(index, g)
        with pytest.raises(ValueError, match="unknown variable index"):
            f.exists([1, index])
        # Terminals are checked too: the index is wrong whatever the operand.
        with pytest.raises(ValueError, match="unknown variable index"):
            manager.true.cofactor(index, False)
        assert f.cofactor(3, True) == manager.var(0)
        assert f.exists([0, 3]).is_true()


class TestQueries:
    def test_support(self):
        manager = BddManager(5)
        f = (manager.var(1) & manager.var(3)) | manager.nvar(4)
        assert f.support() == [1, 3, 4]
        assert manager.true.support() == []

    def test_satcount(self):
        manager = BddManager(4)
        x0, x1 = manager.var(0), manager.var(1)
        assert manager.true.satcount(4) == 16
        assert manager.false.satcount(4) == 0
        assert x0.satcount(4) == 8
        assert (x0 & x1).satcount(4) == 4
        assert (x0 | x1).satcount(4) == 12
        assert (x0 ^ x1).satcount(4) == 8

    def test_satcount_defaults_to_manager_width(self):
        manager = BddManager(3)
        assert manager.var(0).satcount() == 4

    def test_iter_satisfying_matches_satcount(self):
        manager = BddManager(3)
        f = (manager.var(0) & manager.nvar(1)) | manager.var(2)
        assignments = list(f.iter_satisfying([0, 1, 2]))
        assert len(assignments) == f.satcount(3)
        for assignment in assignments:
            assert f.evaluate(assignment)

    def test_evaluate_requires_support_assignment(self):
        manager = BddManager(2)
        f = manager.var(0) & manager.var(1)
        with pytest.raises(KeyError):
            f.evaluate({0: True})

    def test_count_nodes(self):
        manager = BddManager(3)
        x0, x1, x2 = (manager.var(i) for i in range(3))
        # Parity of 3 variables: exact size and structure are pinned by the
        # golden fixture shared with tests/bdd/test_golden_shapes.py.
        parity = x0 ^ x1 ^ x2
        with open(GOLDEN_SHAPES / "parity3.json", encoding="utf-8") as handle:
            golden = json.load(handle)
        assert parity.count_nodes() == golden["total_nodes"]
        assert dag_export([parity]) == golden["dag"]
        assert manager.true.count_nodes() == 1

    def test_top_var_and_children(self):
        manager = BddManager(2)
        f = manager.var(0) & manager.var(1)
        assert f.top_var == 0
        assert f.low.is_false()
        assert f.high == manager.var(1)
        with pytest.raises(ValueError):
            _ = manager.true.low


class TestGarbageCollection:
    def test_collect_reclaims_unreachable_nodes(self):
        manager = BddManager(8)
        keep = manager.var(0) & manager.var(1)
        for seed in range(20):
            # Build temporaries and drop them immediately.
            temporary = manager.var(seed % 8) ^ manager.var((seed + 3) % 8)
            temporary = temporary & manager.var((seed + 5) % 8)
            del temporary
        before = manager.num_live_nodes()
        freed = manager.garbage_collect()
        after = manager.num_live_nodes()
        assert freed >= 0
        assert after <= before
        # The kept function must still evaluate correctly after collection.
        assert keep.evaluate({0: True, 1: True}) is True
        assert keep.evaluate({0: True, 1: False}) is False

    def test_freed_slots_are_reused(self):
        manager = BddManager(4)
        temporary = manager.var(0) ^ manager.var(1) ^ manager.var(2)
        del temporary
        manager.garbage_collect()
        size_after_gc = len(manager._var)
        _ = manager.var(0) ^ manager.var(3)
        # Rebuilding a similar-size function should not grow the arrays much
        # beyond their previous length because freed slots are recycled.
        assert len(manager._var) <= size_after_gc + 2

    def test_clear_cache_is_safe(self):
        manager = BddManager(3)
        f = manager.var(0) & manager.var(1)
        manager.clear_cache()
        g = manager.var(0) & manager.var(1)
        assert f == g


class TestTruthTableHelper:
    def test_truth_table_indexing_convention(self):
        manager = BddManager(2)
        # f = x0 (most significant bit of the index).
        table = truth_table(manager.var(0), [0, 1])
        assert table == [False, False, True, True]
        table = truth_table(manager.var(1), [0, 1])
        assert table == [False, True, False, True]
