"""Snapshot round-trips: a restored manager is column-for-column identical.

The tentpole guarantee of the checkpointing PR: :func:`repro.snapshot.
load_manager` / :func:`load_simulator` rebuild state whose storage columns,
free-list order, unique-table insertion order, variable order and external
reference table equal the dumped source *exactly*, so a run resumed from a
snapshot is indistinguishable from one that never stopped (node ids are a
pure function of creation order, which the snapshot preserves).
"""

from __future__ import annotations

import json
import os

import pytest

from repro import QuantumCircuit
from repro.bdd import BddManager
from repro.core.simulator import BitSliceSimulator
from repro.snapshot import (
    SNAPSHOT_VERSION,
    dump_manager,
    dump_simulator,
    load_manager,
    load_simulator,
    read_snapshot,
    snapshot_info,
    write_snapshot,
)
from tests.conftest import ghz, layered, universal_mix

#: Every store name the reader accepts in ``meta``.  The writer emits
#: ``dict``; ``array`` and ``compiled`` name the retired stores, whose
#: checkpoints restore onto the same manager because columns and
#: unique-table insertion order never depended on the store.
STORE_NAMES = ["dict", "array", "compiled"]


def relabel(path, kind, store_name):
    """Rewrite the snapshot at ``path`` so its ``meta`` names
    ``store_name``, as a checkpoint written by that store would."""
    if store_name == "dict":
        return
    sections = read_snapshot(path, kind)
    meta = json.loads(sections["meta"].decode())
    meta["substrate"] = store_name
    write_snapshot(path, kind, dict(sections, meta=json.dumps(meta).encode()))


def full_snapshot(manager):
    """Every identity-bearing manager field as plain python values."""
    return {
        "var": list(manager._var),
        "low": list(manager._low),
        "high": list(manager._high),
        "free": list(manager._free),
        "unique": list(manager._unique.values()),
        "var_to_level": list(manager._var_to_level),
        "level_to_var": list(manager._level_to_var),
        "refs": dict(manager._external_refs),
    }


def warm_simulator(circuit):
    """Run ``circuit`` on a fresh manager and leave the store in a
    lived-in state: dead temporaries collected, so the free list and
    recycled ids are non-trivial."""
    manager = BddManager(circuit.num_qubits)
    simulator = BitSliceSimulator(circuit.num_qubits, manager=manager)
    simulator.run(circuit)
    # Unreferenced scratch nodes -> a GC sweep -> a non-empty free list
    # (free-list *order* feeds future id assignment, so it must survive
    # the round trip).
    manager.apply_and(
        manager.apply_xor(manager.var_node(0), manager.var_node(1)),
        manager.var_node(manager.num_vars - 1))
    manager.garbage_collect()
    return simulator


def suffix_circuit(circuit, start):
    suffix = QuantumCircuit(circuit.num_qubits, name=f"{circuit.name}-tail")
    for gate in circuit.gates[start:]:
        suffix.append(gate)
    return suffix


@pytest.mark.parametrize("store_name", STORE_NAMES)
class TestManagerRoundTrip:
    def test_storage_is_column_for_column_identical(self, store_name,
                                                    tmp_path):
        simulator = warm_simulator(universal_mix(4, seed=7, measure=False))
        manager = simulator.state.manager
        before = full_snapshot(manager)
        assert before["free"], "fixture must exercise the free list"
        path = tmp_path / "manager.snap"
        dump_manager(manager, path)
        relabel(path, "manager", store_name)
        restored = load_manager(path)
        assert full_snapshot(restored) == before
        assert restored.num_vars == manager.num_vars

    def test_redump_of_restore_is_byte_identical(self, store_name,
                                                 tmp_path):
        """The strongest round-trip statement: dump(load(dump(m))) is the
        same file, byte for byte — also when the loaded file names a
        retired store, since the re-dump always names ``dict``."""
        simulator = warm_simulator(layered(4, layers=3))
        first = tmp_path / "first.snap"
        labelled = tmp_path / "labelled.snap"
        second = tmp_path / "second.snap"
        dump_manager(simulator.state.manager, first)
        dump_manager(simulator.state.manager, labelled)
        relabel(labelled, "manager", store_name)
        dump_manager(load_manager(labelled), second)
        assert second.read_bytes() == first.read_bytes()

    def test_counters_and_knobs_survive(self, store_name, tmp_path):
        manager = BddManager(3, auto_gc_threshold=123456,
                             cache_size_limit=4096)
        simulator = BitSliceSimulator(3, manager=manager)
        simulator.run(ghz(3))
        path = tmp_path / "manager.snap"
        dump_manager(manager, path)
        relabel(path, "manager", store_name)
        restored = load_manager(path)
        assert restored._auto_gc_threshold == 123456
        assert restored._cache_size_limit == 4096
        assert restored._unique_inserts == manager._unique_inserts
        assert restored._peak_live_nodes == manager._peak_live_nodes
        assert restored._op_hits == list(manager._op_hits)
        assert restored._op_misses == list(manager._op_misses)


@pytest.mark.parametrize("store_name", STORE_NAMES)
class TestSimulatorRoundTrip:
    def test_restored_run_continues_identically(self, store_name,
                                                tmp_path):
        """Dump mid-circuit, restore, run the remaining gates on both: the
        interrupted-and-resumed simulator ends in the *identical* node
        store, amplitudes and distribution as the uninterrupted one."""
        circuit = universal_mix(4, seed=3, measure=False)
        split = circuit.num_gates // 2
        # Run the prefix on a fresh simulator, snapshot it, restore.
        simulator = BitSliceSimulator(4)
        prefix = QuantumCircuit(4, name="prefix")
        for gate in circuit.gates[:split]:
            prefix.append(gate)
        simulator.run(prefix)
        path = tmp_path / "sim.snap"
        dump_simulator(simulator, path)
        relabel(path, "simulator", store_name)
        restored, extra = load_simulator(path)
        assert extra == {}
        assert full_snapshot(restored.state.manager) == full_snapshot(
            simulator.state.manager)
        assert restored.gates_applied == simulator.gates_applied
        assert restored.peak_nodes == simulator.peak_nodes
        tail = suffix_circuit(circuit, split)
        simulator.run(tail)
        restored.run(tail)
        assert full_snapshot(restored.state.manager) == full_snapshot(
            simulator.state.manager)
        assert (restored.measurement_distribution()
                == simulator.measurement_distribution())
        for basis in range(2 ** 4):
            assert restored.amplitude(basis) == simulator.amplitude(basis)

    def test_slice_handle_sharing_pattern_survives(self, store_name,
                                                   tmp_path):
        """Positions of the 4r slice table that share one handle object
        before the dump share one handle object after the restore — the
        refcount accounting depends on it."""
        simulator = warm_simulator(ghz(3))
        path = tmp_path / "sim.snap"
        dump_simulator(simulator, path)
        relabel(path, "simulator", store_name)
        restored, _ = load_simulator(path)

        def sharing(sim):
            groups = {}
            pattern = []
            for vector in sim.state.slices.values():
                for handle in vector:
                    pattern.append(groups.setdefault(id(handle),
                                                     len(groups)))
            return pattern

        assert sharing(restored) == sharing(simulator)
        assert (restored.state.manager._external_refs
                == simulator.state.manager._external_refs)

    def test_scalars_and_limits_survive(self, store_name, tmp_path):
        simulator = BitSliceSimulator(3, max_seconds=12.5, max_nodes=9999)
        simulator.run(universal_mix(3, seed=11, measure=False))
        path = tmp_path / "sim.snap"
        dump_simulator(simulator, path, extra={"who": "tests", "depth": 9})
        relabel(path, "simulator", store_name)
        restored, extra = load_simulator(path)
        assert extra == {"who": "tests", "depth": 9}
        assert restored.max_seconds == 12.5
        assert restored.max_nodes == 9999
        assert restored.state.r == simulator.state.r
        assert restored.state.k == simulator.state.k
        assert restored.state.s == simulator.state.s


def test_snapshot_info_probe(tmp_path):
    simulator = warm_simulator(ghz(3))
    path = tmp_path / "sim.snap"
    dump_simulator(simulator, path)
    info = snapshot_info(path)
    assert info["kind"] == "simulator"
    assert info["version"] == SNAPSHOT_VERSION
    assert info["bytes"] == os.path.getsize(path)
    for section in ("meta", "var", "low", "high", "unique", "free",
                    "order", "refs", "state", "simulator", "extra"):
        assert section in info["sections"]


def test_atomic_write_replaces_never_tears(tmp_path):
    """An existing snapshot is replaced atomically: no ``.tmp`` residue
    and the destination is always one complete snapshot."""
    simulator = warm_simulator(ghz(2))
    path = tmp_path / "sim.snap"
    dump_simulator(simulator, path)
    first = path.read_bytes()
    simulator.run(QuantumCircuit(2, name="more").h(0))
    dump_simulator(simulator, path)
    assert path.read_bytes() != first
    load_simulator(path)  # fully valid after the in-place replace
    assert [p for p in os.listdir(tmp_path) if ".tmp" in p] == []


@pytest.mark.parametrize("store_name", ["array", "compiled"])
def test_legacy_store_names_restore_onto_the_one_store(store_name, tmp_path):
    """Checkpoints written while the ``array`` and ``compiled`` stores
    existed name them in ``meta``.  They restore onto the same manager as
    a ``dict`` snapshot, column for column, and re-dump to the ``dict``
    file byte for byte."""
    simulator = warm_simulator(layered(3, layers=2))
    original = tmp_path / "dict.snap"
    dump_simulator(simulator, original)
    reference, _ = load_simulator(original)
    legacy = tmp_path / f"{store_name}.snap"
    dump_simulator(simulator, legacy)
    relabel(legacy, "simulator", store_name)
    assert legacy.read_bytes() != original.read_bytes()
    restored, extra = load_simulator(legacy)
    assert (full_snapshot(restored.state.manager)
            == full_snapshot(reference.state.manager))
    redump = tmp_path / f"{store_name}-redump.snap"
    dump_simulator(restored, redump, extra=extra)
    assert redump.read_bytes() == original.read_bytes()
