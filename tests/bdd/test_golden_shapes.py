"""Golden post-circuit BDD shapes.

Each fixture under ``tests/fixtures/bdd_shapes/`` stores the canonical
:func:`repro.bdd.dag_export` serialisation of the bit-sliced state after a
named circuit (GHZ ladder, superposed Cuccaro adder, QAOA-style ansatz) plus
the headline metadata (``r``, ``k``, shared node count).  The tests replay
each circuit and demand the exported shape match the golden file
**exactly** — a structural regression pin far stronger than the ad-hoc
inline node counts it replaces.  Each circuit replays under every store
upkeep regime: the exported shape is canonical, so collecting at every gate
boundary or evicting from tiny computed tables must not change it.

Regenerating after an intentional representation change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/bdd/test_golden_shapes.py

The regeneration path refuses to run under CI (fixtures are inputs there).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import QuantumCircuit
from repro.bdd import BddManager, count_nodes, dag_export
from repro.core.simulator import BitSliceSimulator
from repro.workloads.revlib import h_augment, ripple_carry_adder
from tests.conftest import ghz

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "bdd_shapes"

def qaoa_like(n: int = 6, layers: int = 2) -> QuantumCircuit:
    """A QAOA-style ansatz on a ring: H wall, then alternating ZZ-cost
    layers (CX - T - CX conjugation) and RX(pi/2) mixer walls.  Exactly
    representable in the simulator's algebraic gate set, deterministic, and
    structurally rich (phases spread over every slice)."""
    circuit = QuantumCircuit(n, name=f"qaoa{n}")
    for qubit in range(n):
        circuit.h(qubit)
    for _ in range(layers):
        for qubit in range(n):
            partner = (qubit + 1) % n
            circuit.cx(qubit, partner)
            circuit.t(partner)
            circuit.cx(qubit, partner)
        for qubit in range(n):
            circuit.rx_pi_2(qubit)
    return circuit


def superposed_adder(num_bits: int = 3) -> QuantumCircuit:
    """The paper's Table IV "modified" Cuccaro adder: H on every data input,
    so the adder processes the full input superposition."""
    circuit, constants = ripple_carry_adder(num_bits)
    return h_augment(circuit, constants)


CIRCUITS = {
    "ghz8": lambda: ghz(8),
    "adder3": lambda: superposed_adder(3),
    "qaoa6": lambda: qaoa_like(6),
}

#: Raw BDD functions pinned the same way (name -> (num_vars, builder)).
#: ``parity3`` anchors the node-count expectations that used to live inline
#: in ``test_manager.py``.
FUNCTIONS = {
    "parity3": (3, lambda m: [m.var(0) ^ m.var(1) ^ m.var(2)]),
}

#: Node-store knobs each circuit replays under (name -> BddManager kwargs):
#: the defaults, a collection at every gate boundary (ids recycled through
#: the free list), and computed tables small enough to evict constantly.
REGIMES = {
    "default": {},
    "gc-every-gate": {"auto_gc_threshold": 1},
    "bounded-cache": {"cache_size_limit": 64},
}


def compute_shape(circuit: QuantumCircuit, **knobs) -> dict:
    """Simulate ``circuit`` on a manager built with ``knobs`` and export
    the shape."""
    simulator = BitSliceSimulator(
        circuit.num_qubits, manager=BddManager(circuit.num_qubits, **knobs))
    simulator.run(circuit)
    slices = simulator.state.all_slices()
    return {
        "circuit": circuit.name,
        "num_qubits": circuit.num_qubits,
        "num_gates": circuit.num_gates,
        "r": simulator.state.r,
        "k": simulator.state.k,
        "total_nodes": count_nodes(slices),
        "dag": dag_export(slices),
    }


def compute_function_shape(name: str) -> dict:
    """Build a pinned raw-BDD function and export its shape."""
    num_vars, build = FUNCTIONS[name]
    manager = BddManager(num_vars)
    roots = build(manager)
    return {
        "function": name,
        "num_vars": num_vars,
        "total_nodes": count_nodes(roots),
        "dag": dag_export(roots),
    }


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def load_golden(name: str) -> dict:
    with open(golden_path(name), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.skipif(os.environ.get("REPRO_REGEN_GOLDEN") != "1",
                    reason="set REPRO_REGEN_GOLDEN=1 to rewrite fixtures")
def test_regenerate_golden_fixtures():
    assert not os.environ.get("CI"), "golden fixtures are inputs under CI"
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    shapes = {name: compute_shape(build()) for name, build in CIRCUITS.items()}
    shapes.update({name: compute_function_shape(name) for name in FUNCTIONS})
    for name, shape in shapes.items():
        with open(golden_path(name), "w", encoding="utf-8") as handle:
            json.dump(shape, handle, indent=1, sort_keys=True)
            handle.write("\n")


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_shape_matches_golden(name, regime):
    golden = load_golden(name)
    assert compute_shape(CIRCUITS[name](), **REGIMES[regime]) == golden


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_function_shape_matches_golden(name):
    golden = load_golden(name)
    assert compute_function_shape(name) == golden


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_golden_fixture_is_well_formed(name):
    """The fixture itself obeys the export invariants: postorder child
    references (always backwards), reduced nodes (low != high), and a node
    count consistent with the recorded total."""
    golden = load_golden(name)
    nodes = golden["dag"]["nodes"]
    for index, (var, low, high) in enumerate(nodes):
        this_id = index + 2
        assert 0 <= low < this_id and 0 <= high < this_id
        assert low != high
        assert 0 <= var < golden["num_qubits"]
    assert golden["total_nodes"] == len(nodes) + 2
    assert all(0 <= root < len(nodes) + 2 for root in golden["dag"]["roots"])
