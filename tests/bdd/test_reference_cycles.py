"""BDD managers and simulators are freed by reference counting alone.

A recursive worker refers to itself through its closure cell and binds
manager methods, so unless its ``finish`` drops the recursion it keeps the
manager (node columns, computed tables) alive until the cyclic collector
runs.  These tests switch the collector off, run every kernel once, single
shot and batched, on a manager on the recursive path and on one deep enough
for the explicit-stack driver, and then check that:

* the manager is gone as soon as its last reference is deleted, and
* a ``gc.DEBUG_SAVEALL`` collection finds no function of
  ``bdd/manager.py`` or ``core/gate_rules.py`` among the unreachable objects.
"""

from __future__ import annotations

import gc
import types
import weakref
from contextlib import contextmanager

import pytest

import repro.bdd.manager as manager_module
import repro.core.gate_rules as gate_rules_module
from repro.bdd import BddManager
from repro.core.simulator import BitSliceSimulator
from repro.workloads.random_circuits import generate_random_circuit

SOURCES = {manager_module.__file__, gate_rules_module.__file__}

#: One call of every kernel on fresh operands ``f``, ``g``, ``h``.
KERNELS = {
    "apply_and": lambda m, f, g, h: m.apply_and(f, g),
    "apply_or": lambda m, f, g, h: m.apply_or(f, g),
    "apply_xor": lambda m, f, g, h: m.apply_xor(f, g),
    "apply_not": lambda m, f, g, h: m.apply_not(f),
    "apply_ite": lambda m, f, g, h: m.apply_ite(f, g, h),
    "apply_restrict": lambda m, f, g, h: m.apply_restrict(f, 1, True),
    "apply_exists": lambda m, f, g, h: m.apply_exists(f, [1, 2]),
    "apply_compose": lambda m, f, g, h: m.apply_compose(f, 1, g),
    "apply_flip": lambda m, f, g, h: m.apply_flip(f, 1),
    "apply_full_add": lambda m, f, g, h: m.apply_full_add(f, g, h),
    "apply_maj3": lambda m, f, g, h: m.apply_maj3(f, g, h),
    "apply_xor3": lambda m, f, g, h: m.apply_xor3(f, g, h),
    "apply_swap_vars": lambda m, f, g, h: m.apply_swap_vars(f, 0, 3),
    "apply_controlled_flip": lambda m, f, g, h: m.apply_controlled_flip(f, g, 1),
    "apply_controlled_swap": lambda m, f, g, h: m.apply_controlled_swap(f, h, 0, 3),
    "and_many": lambda m, f, g, h: m.and_many([(f, g), (g, h)]),
    "or_many": lambda m, f, g, h: m.or_many([(f, g), (g, h)]),
    "xor_many": lambda m, f, g, h: m.xor_many([(f, g), (g, h)]),
    "not_many": lambda m, f, g, h: m.not_many([f, g]),
    "ite_many": lambda m, f, g, h: m.ite_many([(f, g, h), (h, f, g)]),
    "full_add_many": lambda m, f, g, h: m.full_add_many([(f, g, h), (h, f, 0)]),
    "restrict_many": lambda m, f, g, h: m.restrict_many([f, g], 1, False),
    "flip_many": lambda m, f, g, h: m.flip_many([f, g], 1),
    "swap_vars_many": lambda m, f, g, h: m.swap_vars_many([f, g], 0, 3),
    "controlled_flip_many": lambda m, f, g, h: m.controlled_flip_many([f, h], g, 1),
    "controlled_swap_many": lambda m, f, g, h: m.controlled_swap_many([f, g], h, 3, 0),
    "butterfly_add_many": lambda m, f, g, h: m.butterfly_add_many([(f, g, h, 2), (g, f, 1, 7)], 1),
}


@contextmanager
def collector_off():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def cyclic_garbage_functions():
    """Names of the functions from the two hot-path modules that only the
    cyclic collector would have freed."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return sorted(obj.__qualname__ for obj in gc.garbage
                      if isinstance(obj, types.FunctionType)
                      and obj.__code__.co_filename in SOURCES)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("num_vars", [6, 700], ids=["recursive", "stack"])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_leaves_no_reference_cycle(kernel, num_vars):
    with collector_off():
        manager = BddManager(num_vars)
        assert manager._recursion_safe() == (num_vars == 6)
        x0, x1, x2, x3 = (manager.var_node(index) for index in range(4))
        f = manager.apply_or(manager.apply_and(x0, x1), x2)
        g = manager.apply_xor(x1, x3)
        h = manager.apply_ite(x3, x2, x0)
        KERNELS[kernel](manager, f, g, h)
        alive = weakref.ref(manager)
        del manager
        assert alive() is None
        assert cyclic_garbage_functions() == []


def test_simulator_is_freed_without_the_collector():
    circuit = generate_random_circuit(8, 80, seed=2)
    with collector_off():
        simulator = BitSliceSimulator.simulate(circuit)
        assert simulator.gates_applied == len(circuit.gates)
        alive = weakref.ref(simulator)
        manager_alive = weakref.ref(simulator.state.manager)
        del simulator
        assert alive() is None
        assert manager_alive() is None
        assert cyclic_garbage_functions() == []
