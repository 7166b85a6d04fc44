"""Benchmarks of the in-place dynamic variable reordering subsystem.

This is the first benchmark family whose win is measured in *nodes* — the
paper's own cost metric — not only in seconds.  The workload is the
Table IV style H-augmented Cuccaro ripple-carry adder, whose natural wire
order (carry, all of register ``a``, all of register ``b``) separates the
two addend registers: the textbook-bad order for adder BDDs.  Rudell
sifting recovers an interleaved-style order and shrinks the live state by
several times; the deterministic ``reorder_nodes_before`` /
``reorder_nodes_after`` extras pin the reduction in the regression gate and
surface it in the CI job summary's node-count column.

Three measurements:

* ``test_swap_adjacent_levels`` — the primitive: one public adjacent-level
  swap pair (there and back, so the state is identical every round),
* ``test_sift_revlib_adder`` — a full sift of the final adder state
  (fresh simulator per round; cost and node reduction recorded),
* ``test_auto_reorder_end_to_end`` — the growth-triggered mode through the
  ``repro.run`` front door, recording the ``substrate_reorder_*`` counters
  the bench JSON artifact carries in ``extra_info``.
"""

from __future__ import annotations

import repro
from repro.core.simulator import BitSliceSimulator
from repro.workloads.revlib import h_augment, ripple_carry_adder

from conftest import scale_choice

ADDER_BITS = scale_choice(6, 8)
AUTO_THRESHOLD = scale_choice(60, 200)


def _prepared_adder_simulator() -> BitSliceSimulator:
    """The H-augmented ripple-carry adder, fully simulated under the
    natural (deliberately adder-hostile) wire order."""
    circuit, constants = ripple_carry_adder(ADDER_BITS)
    modified = h_augment(circuit, constants)
    simulator = BitSliceSimulator(modified.num_qubits)
    simulator.run(modified)
    return simulator


def test_swap_adjacent_levels(benchmark):
    """One public adjacent-level swap, there and back (identity overall, so
    every timing round sees the identical node store).  A garbage collection
    first drops the gate rules' dead intermediates, so ``rewired_nodes``
    counts live nodes only and does not move when a gate rule builds
    different intermediates."""
    simulator = _prepared_adder_simulator()
    manager = simulator.state.manager
    manager.garbage_collect()
    level = simulator.num_qubits // 2

    def swap_round_trip():
        rewired = manager.swap_adjacent_levels(level)
        manager.swap_adjacent_levels(level)
        return rewired

    rewired = benchmark(swap_round_trip)
    benchmark.extra_info["rewired_nodes"] = rewired
    benchmark.extra_info["state_nodes"] = simulator.state.num_nodes()
    benchmark.extra_info["num_qubits"] = simulator.num_qubits


def test_sift_revlib_adder(benchmark):
    """Full Rudell sift of the adder's final state (fresh simulator per
    round — sifting is one-shot work, not a memoised hot path)."""

    def setup():
        return (_prepared_adder_simulator(),), {}

    def run_sift(simulator):
        return simulator.sift()

    stats = benchmark.pedantic(run_sift, setup=setup, rounds=3)
    # The acceptance metric: sifting must shrink the live node count, and
    # the exact before/after pair is deterministic (fixed circuit, fixed
    # schedule), so the regression gate pins it.
    assert stats["nodes_after"] < stats["nodes_before"]
    benchmark.extra_info["reorder_nodes_before"] = stats["nodes_before"]
    benchmark.extra_info["reorder_nodes_after"] = stats["nodes_after"]
    benchmark.extra_info["reorder_swaps"] = stats["swaps"]
    benchmark.extra_info["adder_bits"] = ADDER_BITS


def test_auto_reorder_end_to_end(benchmark):
    """The growth-triggered mode end to end: ``repro.run`` with a threshold
    that fires mid-circuit, timed against the front-door clock."""
    circuit, constants = ripple_carry_adder(ADDER_BITS)
    modified = h_augment(circuit, constants)

    def run_with_auto_reorder():
        return repro.run(modified, engine="bitslice", reorder=AUTO_THRESHOLD)

    result = benchmark(run_with_auto_reorder)
    assert result.status == "ok"
    assert result.extra["substrate_reorder_count"] >= 1
    benchmark.extra_info["reorder_count"] = int(
        result.extra["substrate_reorder_count"])
    benchmark.extra_info["reorder_swaps"] = int(
        result.extra["substrate_reorder_swaps"])
    benchmark.extra_info["reorder_nodes_after"] = int(
        result.extra["substrate_reorder_nodes_after"])
    benchmark.extra_info["peak_memory_nodes"] = result.peak_memory_nodes
