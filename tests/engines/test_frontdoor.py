"""Tests for the ``repro.run()`` front door and the parallel sweep executor.

Covers the redesign's acceptance criteria: ``engine="auto"`` lands on the
right backend per circuit profile, the unified limit wrapper enforces the
wall-clock budget on the dense engine (which historically ignored it), all
engines answer the same multi-qubit final query, and the parallel sweep is
byte-identical to the serial one on the quick Table III grid.
"""

from __future__ import annotations

import json
import pickle

import pytest

import repro
from repro import QuantumCircuit, ResourceLimits
from repro.engines import frontdoor, run, run_sweep, run_tasks
from repro.engines.frontdoor import RunRequest
from repro.engines.registry import UnknownEngineError
from repro.harness.__main__ import QUICK_TABLE3_QUBITS
from repro.workloads.algorithms import ghz_circuit
from repro.workloads.random_circuits import generate_random_circuit

LIMITS = ResourceLimits(max_seconds=60.0, max_nodes=200_000)


def t_layer_circuit(num_qubits: int) -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits, name=f"tlayer_{num_qubits}")
    for qubit in range(num_qubits):
        circuit.h(qubit)
    for qubit in range(num_qubits):
        circuit.t(qubit)
    return circuit


class TestRunFrontDoor:
    def test_package_level_run(self):
        result = repro.run(ghz_circuit(4), engine="bitslice", limits=LIMITS)
        assert result.succeeded
        assert result.final_probability == pytest.approx(0.5)

    def test_auto_selection_acceptance_matrix(self):
        # Pure-Clifford GHZ -> stabilizer.
        result = repro.run(ghz_circuit(6), engine="auto", limits=LIMITS)
        assert result.engine == "stabilizer"
        assert result.requested_engine == "auto"
        assert result.final_probability == pytest.approx(0.5)
        # Non-Clifford below the dense cutoff -> statevector.
        result = repro.run(t_layer_circuit(6), engine="auto", limits=LIMITS)
        assert result.engine == "statevector"
        # Non-Clifford above the dense cutoff -> bitslice.
        result = repro.run(t_layer_circuit(30), engine="auto", limits=LIMITS)
        assert result.engine == "bitslice"
        assert result.succeeded

    def test_aliases_accepted(self):
        result = run(ghz_circuit(3), engine="chp", limits=LIMITS)
        assert result.engine == "stabilizer"
        assert result.requested_engine == "chp"

    def test_statevector_wall_clock_enforced(self):
        # Regression: the dense engine ignored max_seconds entirely before
        # the unified LimitEnforcer; a zero budget must now classify as TO.
        circuit = generate_random_circuit(8, seed=5)
        result = run(circuit, engine="statevector",
                     limits=ResourceLimits(max_seconds=0.0))
        assert result.status == "TO"

    def test_memory_out_keeps_its_accounting(self):
        # Regression: TO/MO results used to report peak_memory_nodes=0.
        circuit = generate_random_circuit(12, seed=3)
        budget = 200
        result = run(circuit, engine="bitslice",
                     limits=ResourceLimits(max_seconds=60.0, max_nodes=budget))
        assert result.status == "MO"
        assert result.peak_memory_nodes >= budget
        assert 0 < result.extra["gates_applied"] < circuit.num_gates

    def test_timeout_keeps_its_accounting(self):
        result = run(generate_random_circuit(8, seed=5), engine="bitslice",
                     limits=ResourceLimits(max_seconds=0.0))
        assert result.status == "TO"
        assert result.peak_memory_nodes > 0
        assert result.extra["gates_applied"] == 0

    @pytest.mark.parametrize("engine", ["bitslice", "qmdd", "statevector", "stabilizer"])
    def test_all_engines_answer_the_full_final_query(self, engine):
        # Regression: the stabilizer runner used to cap the final query at
        # one qubit; all engines now answer the same joint query and agree.
        circuit = ghz_circuit(5)
        circuit.measure_all()
        result = run(circuit, engine=engine, limits=LIMITS)
        assert result.succeeded
        assert result.final_probability == pytest.approx(0.5, abs=1e-9)

    def test_stabilizer_zero_probability_outcome(self):
        # X|0> makes the all-zeros outcome impossible; the joint query must
        # say so instead of answering a single-qubit marginal.
        circuit = QuantumCircuit(3).x(0).h(1).cx(1, 2)
        result = run(circuit, engine="stabilizer", limits=LIMITS)
        assert result.succeeded
        assert result.final_probability == pytest.approx(0.0)

    def test_canonical_extra_has_no_legacy_keys(self):
        for engine in ("bitslice", "qmdd", "statevector", "stabilizer"):
            result = run(ghz_circuit(4), engine=engine, limits=LIMITS)
            for legacy in ("peak_bdd_nodes", "peak_dd_nodes", "tableau_bytes"):
                assert legacy not in result.extra

    def test_extra_does_not_shadow_first_class_fields(self):
        # The engine-internal clock differs slightly from the front door's;
        # only the first-class elapsed_seconds may appear in a run record.
        for engine in ("bitslice", "qmdd", "statevector", "stabilizer"):
            result = run(ghz_circuit(4), engine=engine, limits=LIMITS)
            assert "elapsed_seconds" not in result.extra
            assert "num_qubits" not in result.extra
            assert "peak_memory_nodes" not in result.extra


class TestRunRequest:
    @pytest.mark.parametrize("options,error", [
        ({"shots": -1}, ValueError),
        ({"seed": -5}, ValueError),
        ({"shots": 2.5}, ValueError),
        ({"shots": True}, ValueError),
        ({"reorder": "yes"}, ValueError),
        ({"reorder": -1}, ValueError),
        ({"engine": "nope"}, UnknownEngineError),
    ], ids=["negative-shots", "negative-seed", "float-shots", "bool-shots",
            "str-reorder", "negative-reorder", "unknown-engine"])
    def test_validates_once_and_defaults_limits(self, options, error,
                                                monkeypatch):
        """A bad option is refused when the request is built, so
        ``run()`` raises it before any engine is created."""
        with pytest.raises(error):
            RunRequest(ghz_circuit(2), **options)

        def no_engine(name):
            raise AssertionError(f"engine {name!r} created")
        monkeypatch.setattr(frontdoor, "create_engine", no_engine)
        with pytest.raises(error):
            run(ghz_circuit(2), **{"shots": 4, **options})
        assert RunRequest(ghz_circuit(2)).limits == ResourceLimits()
        RunRequest(ghz_circuit(2), engine="bdd", shots=0, seed=0,
                   reorder=True)
        RunRequest(ghz_circuit(2), reorder=0)

    def test_memo_travels_with_the_request(self, monkeypatch):
        """A sweep worker receives the request pickled: the engine resolved
        and the key computed in the parent are not derived again there."""
        request = RunRequest(t_layer_circuit(4), engine="auto", shots=8,
                             seed=1)
        key = request.key
        expected = run(t_layer_circuit(4), shots=8, seed=1)
        clone = pickle.loads(pickle.dumps(request))

        def resolve_again(*args):
            raise AssertionError("resolved twice")
        monkeypatch.setattr(frontdoor, "resolve_engine", resolve_again)
        assert clone.key == key and clone.resolved == key.engine
        assert (frontdoor._execute(clone).to_dict(timings=False)
                == expected.to_dict(timings=False))


class TestSweep:
    def _quick_table3_grid(self):
        circuits = [generate_random_circuit(num_qubits,
                                            seed=1_000 * num_qubits + seed)
                    for num_qubits in QUICK_TABLE3_QUBITS
                    for seed in range(2)]
        return circuits

    def test_serial_sweep_order(self):
        circuits = [ghz_circuit(3), ghz_circuit(4)]
        results = run_sweep(circuits, engines=("bitslice", "qmdd"), limits=LIMITS)
        assert [(r.circuit_name, r.engine) for r in results] == [
            ("entanglement_3", "bitslice"), ("entanglement_3", "qmdd"),
            ("entanglement_4", "bitslice"), ("entanglement_4", "qmdd"),
        ]

    def test_parallel_sweep_matches_serial_byte_identically(self):
        # Acceptance: run_sweep(..., jobs=2) produces byte-identical
        # deterministic summaries to the serial path on the quick Table III
        # sweep (timings excluded — they are wall-clock, everything else is
        # bit-reproducible).
        circuits = self._quick_table3_grid()
        engines = ("qmdd", "bitslice")
        serial = run_sweep(circuits, engines=engines, limits=LIMITS, jobs=1)
        parallel = run_sweep(circuits, engines=engines, limits=LIMITS, jobs=2)
        serial_bytes = json.dumps([r.to_dict(timings=False) for r in serial],
                                  sort_keys=True).encode()
        parallel_bytes = json.dumps([r.to_dict(timings=False) for r in parallel],
                                    sort_keys=True).encode()
        assert serial_bytes == parallel_bytes

    def test_run_tasks_mixed_engines(self):
        tasks = [("stabilizer", ghz_circuit(4)),
                 ("auto", ghz_circuit(4)),
                 ("bitslice", t_layer_circuit(4))]
        results = run_tasks(tasks, limits=LIMITS, jobs=2)
        assert [r.engine for r in results] == ["stabilizer", "stabilizer", "bitslice"]
        assert all(r.succeeded for r in results)

    def test_parallel_experiment_grouping_matches_serial(self):
        from repro.harness.experiments import table3_experiment

        serial = table3_experiment(qubit_counts=(4, 6), circuits_per_size=2,
                                   limits=LIMITS, jobs=1)
        parallel = table3_experiment(qubit_counts=(4, 6), circuits_per_size=2,
                                     limits=LIMITS, jobs=2)
        assert list(serial.runs) == list(parallel.runs)
        for group in serial.runs:
            assert list(serial.runs[group]) == list(parallel.runs[group])
            for engine in serial.runs[group]:
                serial_results = serial.runs[group][engine]
                parallel_results = parallel.runs[group][engine]
                assert ([r.to_dict(timings=False) for r in serial_results]
                        == [r.to_dict(timings=False) for r in parallel_results])
