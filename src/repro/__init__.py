"""repro — Bit-slicing the Hilbert space: exact BDD-based quantum simulation.

A from-scratch Python reproduction of "Bit-Slicing the Hilbert Space: Scaling
Up Accurate Quantum Circuit Simulation" (Tsai, Jiang, Jhang — DAC 2021; the
SliQSim simulator), together with every substrate it depends on:

* :mod:`repro.bdd` — a pure-Python ROBDD package (the CUDD substitute),
* :mod:`repro.perf` — substrate performance counters, spans and JSON reports,
* :mod:`repro.algebra` — exact algebraic complex amplitudes over
  ``w = exp(i*pi/4)``,
* :mod:`repro.circuit` — circuit IR plus QASM / RevLib ``.real`` / GRCS
  formats,
* :mod:`repro.core` — the bit-sliced simulator itself (the paper's
  contribution),
* :mod:`repro.baselines` — dense statevector, QMDD-style (DDSIM stand-in) and
  CHP stabilizer comparators,
* :mod:`repro.workloads` — generators for the paper's four benchmark
  families,
* :mod:`repro.harness` — the experiment runner that regenerates the paper's
  Tables III–VI.

* :mod:`repro.engines` — the unified engine API: ``Engine`` protocol,
  capability-aware registry with aliases and ``"auto"`` selection, the
  ``repro.run()`` front door and the parallel ``run_sweep()`` executor.

* :mod:`repro.cache` — cross-run amortisation: canonical circuit
  fingerprints, the ``ResultCache`` memoising finished runs, and the
  ``SessionPool`` resuming the bit-sliced engine from retained
  gate-sequence prefixes (``repro.run(..., cache=..., sessions=...)``).

* :mod:`repro.service` — the persistent simulation server (``repro-serve``):
  newline-delimited JSON over TCP / unix sockets, a bounded job queue with
  structured backpressure, warm server-side sessions and the ``repro-watch``
  admin stream — with sync (``Client``) and asyncio (``AsyncClient``)
  clients.

* :mod:`repro.resilience` — the robustness layer: deterministic fault
  injection for reproducible chaos tests, retry/backoff with decorrelated
  jitter, and the crash-safe sweep journal (``run_sweep(journal=...)``).

* :mod:`repro.snapshot` — versioned, checksummed state snapshots: the
  serialisation behind ``run(..., checkpoint_every=...)`` resumable runs
  and the server's restart-surviving sessions
  (``Server(checkpoint_dir=...)``); see ``docs/checkpointing.md``.

The most common entry points are re-exported here::

    import repro
    from repro import QuantumCircuit

    circuit = QuantumCircuit(2).h(0).cx(0, 1)
    result = repro.run(circuit, engine="auto")    # -> RunResult
    result.status, result.final_probability       # 'ok', 0.5

    # Exact, reproducible shot sampling (identical counts across engines
    # at equal seeds; see docs/sampling.md):
    sampled = repro.run(circuit.measure_all(), shots=1024, seed=0)
    sampled.counts_bitstrings()                   # {'00': 533, '11': 491}

    # Rich native simulator classes stay public:
    from repro import BitSliceSimulator
    BitSliceSimulator.simulate(circuit).measurement_distribution()
"""

from repro._exports import lazy_exports

# Where each public name lives.  Nothing below is imported with the
# package: its ``__getattr__`` imports a name's module on first access
# (PEP 562), so ``import repro`` followed by a bit-sliced run loads the
# engines, the cache and the BDD core, but not numpy, the baseline
# simulators, the service, the resilience retry and journal, or snapshots.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.algebra": ("AlgebraicComplex", "AlgebraicVector"),
    "repro.circuit": ("Gate", "GateKind", "QuantumCircuit"),
    "repro.core": ("BitSliceSimulator", "BitSlicedState"),
    "repro.baselines": ("QmddSimulator", "StabilizerSimulator",
                        "StatevectorSimulator"),
    "repro.exceptions": ("JobCancelledError", "NumericalError",
                         "SimulationError", "SimulationMemoryExceeded",
                         "SimulationTimeout", "UnsupportedGateError"),
    "repro.engines": ("Capabilities", "Engine", "ResourceLimits", "RunResult",
                      "UnknownEngineError", "available_engines",
                      "register_engine", "run", "run_sweep", "select_engine"),
    "repro.cache": ("ResultCache", "SessionPool", "circuit_fingerprint"),
    "repro.service": ("AsyncClient", "Client", "Server", "ServiceError",
                      "serve_background"),
    "repro.resilience": ("FaultPlan", "FaultRule", "RetryPolicy",
                         "SweepJournal"),
    "repro.snapshot": ("SNAPSHOT_VERSION", "SnapshotCorruptError",
                       "dump_manager", "dump_simulator", "load_manager",
                       "load_simulator", "snapshot_info"),
})

__version__ = "0.1.0"

__all__ = [
    "AlgebraicComplex",
    "AlgebraicVector",
    "Gate",
    "GateKind",
    "QuantumCircuit",
    "BitSliceSimulator",
    "BitSlicedState",
    "QmddSimulator",
    "StabilizerSimulator",
    "StatevectorSimulator",
    "Capabilities",
    "Engine",
    "ResourceLimits",
    "ResultCache",
    "SessionPool",
    "circuit_fingerprint",
    "RunResult",
    "UnknownEngineError",
    "available_engines",
    "register_engine",
    "run",
    "run_sweep",
    "select_engine",
    "AsyncClient",
    "Client",
    "Server",
    "ServiceError",
    "serve_background",
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
    "SweepJournal",
    "SNAPSHOT_VERSION",
    "SnapshotCorruptError",
    "dump_manager",
    "dump_simulator",
    "load_manager",
    "load_simulator",
    "snapshot_info",
    "JobCancelledError",
    "NumericalError",
    "SimulationError",
    "SimulationMemoryExceeded",
    "SimulationTimeout",
    "UnsupportedGateError",
    "__version__",
]
