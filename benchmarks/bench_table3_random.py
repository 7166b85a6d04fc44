"""Benchmark reproducing Table III — random circuits.

The paper's Table III runs 10 random circuits per qubit count
(40..500 qubits, #gates = 3x#qubits) on DDSIM and on the bit-sliced engine,
reporting the average runtime and the TO/MO/error/segfault counts.  This
benchmark reproduces the same workload at laptop scale and records the
outcome class of every run in ``extra_info`` so the success-count comparison
(the paper's headline: the bit-sliced engine keeps succeeding where the
float-weighted DD engine degrades) can be read off the benchmark report.
"""

from __future__ import annotations

import pytest

from repro.harness.runner import run_circuit
from repro.workloads.random_circuits import generate_random_circuit

from conftest import scale_choice

QUBIT_COUNTS = scale_choice((8, 12, 16, 20), (20, 40, 60, 80))
SEEDS = scale_choice((0, 1), (0, 1, 2, 3, 4))
ENGINES = ("qmdd", "bitslice")


@pytest.fixture(scope="module")
def warmed_up(bench_limits):
    """One untimed run per engine before the first timed row: the rows are
    single-round, so without it the first one also times first-call costs
    (imports, interpreter caches) that are not the engine's."""
    circuit = generate_random_circuit(QUBIT_COUNTS[0], seed=999)
    for engine in ENGINES:
        run_circuit(engine, circuit, bench_limits)


@pytest.mark.parametrize("num_qubits", QUBIT_COUNTS)
@pytest.mark.parametrize("engine", ENGINES)
def test_table3_random_circuit(benchmark, bench_limits, warmed_up, engine,
                               num_qubits):
    """One Table III cell: average runtime of ``engine`` on random circuits."""
    circuits = [generate_random_circuit(num_qubits, seed=1_000 * num_qubits + seed)
                for seed in SEEDS]

    def run_all():
        return [run_circuit(engine, circuit, bench_limits) for circuit in circuits]

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    statuses = [result.status for result in results]
    benchmark.extra_info["num_qubits"] = num_qubits
    benchmark.extra_info["num_gates"] = circuits[0].num_gates
    benchmark.extra_info["statuses"] = ",".join(statuses)
    benchmark.extra_info["successes"] = sum(result.succeeded for result in results)
    benchmark.extra_info["avg_nodes"] = (
        sum(result.memory_nodes for result in results) / len(results))
    # The workload itself must at least have been attempted on every seed.
    assert len(results) == len(SEEDS)
