"""The node store is deterministic: the same gates give the same store.

Node ids are a pure function of find-or-create order, so two fresh
:class:`BddManager` instances fed the same gates hold node-for-node
identical storage — same (var, low, high) columns, same free list (order
included: it feeds future id assignment), same unique-table insertion order
(which fixes the GC sweep order).  Snapshots, crash/resume and the
byte-identical ``to_dict(timings=False)`` rows all rest on this.  Random
circuits and the upkeep regimes that broke early drafts (a collection at
every gate, constant cache eviction, sifting mid-run) are each replayed
twice and also checked against the dense statevector engine.

The node store takes no store-selection option: passing the retired
``substrate`` keyword is a ``TypeError`` at every entry point rather than
being silently ignored.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.baselines.statevector import StatevectorSimulator
from repro.bdd import BddManager
from repro.core.bitslice import BitSlicedState
from repro.core.simulator import BitSliceSimulator
from repro.engines.frontdoor import run_tasks
from repro.perf.counters import GAUGE_KEYS
from tests.conftest import OP_ARITY, build_circuit_from_ops, ghz, random_ops

NUM_QUBITS = 4


def storage_snapshot(manager):
    """The raw node store as plain lists: the strongest equality there is."""
    return {
        "var": list(manager._var),
        "low": list(manager._low),
        "high": list(manager._high),
        "free": list(manager._free),
        "unique": list(manager._unique.values()),
        "level_to_var": list(manager._level_to_var),
    }


def run_fresh(circuit, **knobs):
    """Execute ``circuit`` on a fresh manager built with ``knobs``."""
    auto_reorder_threshold = knobs.pop("auto_reorder_threshold", None)
    simulator = BitSliceSimulator(
        circuit.num_qubits,
        manager=BddManager(circuit.num_qubits, **knobs),
        auto_reorder_threshold=auto_reorder_threshold)
    simulator.run(circuit)
    return simulator


def assert_repeatable(circuit, **knobs):
    """Run ``circuit`` twice on fresh stores: identical storage, peaks and
    amplitudes, and both equal to the dense engine's state."""
    first = run_fresh(circuit, **dict(knobs))
    second = run_fresh(circuit, **dict(knobs))
    assert (storage_snapshot(second.state.manager)
            == storage_snapshot(first.state.manager))
    assert second.peak_nodes == first.peak_nodes
    assert second.amplitude(0) == first.amplitude(0)
    dense = StatevectorSimulator.simulate(circuit)
    np.testing.assert_allclose(first.to_numpy(), dense.state, atol=1e-9)
    return first


@st.composite
def op_lists(draw, max_size=24):
    size = draw(st.integers(min_value=0, max_value=max_size))
    usable = [m for m in OP_ARITY if OP_ARITY[m] <= NUM_QUBITS]
    ops = []
    for _ in range(size):
        mnemonic = draw(st.sampled_from(usable))
        qubits = draw(st.permutations(list(range(NUM_QUBITS))))
        ops.append((mnemonic, tuple(qubits[:OP_ARITY[mnemonic]])))
    return ops


class TestRandomCircuits:
    """Hypothesis-driven repeatability, under each upkeep regime."""

    @settings(max_examples=25, deadline=None)
    @given(op_lists())
    def test_same_dag_on_random_circuits(self, ops):
        assert_repeatable(build_circuit_from_ops(NUM_QUBITS, ops))

    @settings(max_examples=10, deadline=None)
    @given(op_lists())
    def test_same_dag_under_gc_every_gate(self, ops):
        """``auto_gc_threshold=1`` sweeps at every gate boundary, so ids are
        recycled through the free list constantly — the regime that tells
        true id-identity apart from mere isomorphism."""
        assert_repeatable(build_circuit_from_ops(NUM_QUBITS, ops),
                          auto_gc_threshold=1)

    @settings(max_examples=10, deadline=None)
    @given(op_lists())
    def test_same_dag_under_bounded_cache(self, ops):
        """Tiny computed tables evict constantly; evictions may only cost
        hits, never change which ids get created."""
        assert_repeatable(build_circuit_from_ops(NUM_QUBITS, ops),
                          cache_size_limit=16)

    @settings(max_examples=10, deadline=None)
    @given(op_lists())
    def test_same_dag_under_reordering(self, ops):
        """A tiny reorder threshold makes growth-triggered sifting fire;
        the in-place swaps must rewire the columns the same way each time."""
        assert_repeatable(build_circuit_from_ops(NUM_QUBITS, ops),
                          auto_reorder_threshold=8)


class TestPinnedRegimes:
    """Named adversarial circuits (the ones that broke development drafts)."""

    def test_ghz_ladder(self):
        assert_repeatable(ghz(8))

    def test_deep_random_circuit(self):
        circuit = build_circuit_from_ops(6, random_ops(6, 120, seed=7),
                                         name="deep6")
        assert_repeatable(circuit)

    def test_gc_and_reorder_combined(self):
        circuit = build_circuit_from_ops(5, random_ops(5, 80, seed=23),
                                         name="squeeze5")
        simulator = assert_repeatable(circuit, auto_gc_threshold=64,
                                      auto_reorder_threshold=32)
        stats = simulator.state.substrate_stats()
        assert stats["gc_runs"] > 0 and stats["reorder_count"] > 0


class TestEndToEnd:
    """The user-visible consequences of a deterministic store."""

    @pytest.mark.parametrize("circuit", [
        ghz(6),
        build_circuit_from_ops(5, random_ops(5, 60, seed=3), name="mix5"),
    ], ids=["ghz6", "mix5"])
    def test_run_serialisation_is_byte_identical(self, circuit):
        rows = [json.dumps(repro.run(circuit, engine="bitslice")
                           .to_dict(timings=False), sort_keys=True)
                for _ in range(2)]
        assert rows[0] == rows[1]

    def test_peak_memory_nodes_identical(self):
        circuit = build_circuit_from_ops(5, random_ops(5, 60, seed=3))
        direct = run_fresh(circuit).peak_nodes
        peaks = {repro.run(circuit, engine="bitslice").peak_memory_nodes
                 for _ in range(2)}
        assert peaks == {direct}

    def test_fixed_seed_counts_identical(self):
        circuit = ghz(5, measure=True)
        counts = [repro.run(circuit, engine="bitslice", shots=128,
                            seed=11).counts
                  for _ in range(2)]
        assert counts[0] == counts[1]
        assert sum(counts[0].values()) == 128
        assert set(counts[0]) <= {0, 0b11111}


class TestNoStoreOption:
    """The retired store-selection keyword fails loudly everywhere."""

    @pytest.mark.parametrize("entry", [
        lambda extra: repro.run(ghz(2), engine="bitslice", **extra),
        lambda extra: repro.run_sweep([ghz(2)], engines=["bitslice"],
                                      **extra),
        lambda extra: run_tasks([("bitslice", ghz(2))], **extra),
        lambda extra: BitSliceSimulator(2, **extra),
        lambda extra: BitSlicedState(2, **extra),
    ], ids=["run", "run_sweep", "run_tasks", "BitSliceSimulator",
            "BitSlicedState"])
    def test_substrate_keyword_is_rejected(self, entry):
        entry({})
        with pytest.raises(TypeError, match="substrate"):
            entry({"substrate": "dict"})

    def test_no_backend_gauge(self):
        """With one store there is nothing to report: no ``backend`` gauge
        in the manager's counters, the perf deltas or a run's extras."""
        assert "backend" not in GAUGE_KEYS
        assert "backend" not in BddManager(2).perf_stats()
        result = repro.run(ghz(3), engine="bitslice")
        assert "substrate_backend" not in result.extra
        assert "substrate_live_nodes" in result.extra
