"""The ``repro.run()`` front door and the parallel sweep executor.

:func:`run` is the one call that does what the benchmark harness does for a
single (engine, circuit) pair: resolve the engine (by name, alias, or
``"auto"`` capability selection), execute the circuit under the unified
TO/MO limit wrapper, answer the paper's end-of-run probability query, and
classify the outcome into the paper's status classes — returning a
normalised :class:`~repro.engines.result.RunResult`.

With ``shots=N`` the front door additionally samples measurement outcomes
from the executed circuit — by exact conditional-probability descent on
static circuits, by per-shot trajectory re-execution on dynamic circuits
(mid-circuit measurement / reset / classical feedback) — and returns the
counts on the :class:`~repro.engines.result.RunResult`.  A ``seed`` makes
the whole run (collapse draws and shot sampling alike) deterministic.

:func:`run_sweep` executes an (engine x circuit) grid, optionally across
``concurrent.futures`` process workers.  Results always come back in
deterministic task order regardless of worker scheduling, per-task RNG
seeds are derived deterministically from the sweep seed, and the
deterministic serialisation (``RunResult.to_dict(timings=False)``) is
byte-identical between the serial and parallel paths — which is what lets
the harness regenerate the paper's Tables III-VI (and now shot-sampling
sweeps) in parallel without changing a single reported number.

Cross-run amortisation is opt-in through two keyword arguments shared by
:func:`run`, :func:`run_tasks` and :func:`run_sweep`: ``cache=`` (a
:class:`repro.cache.ResultCache` — finished results replayed verbatim for
identical requests) and ``sessions=`` (a :class:`repro.cache.SessionPool`
— retained bit-sliced states resumed when a circuit extends a stored
gate-sequence prefix).  Both preserve the byte-identity guarantee above:
a hit or a resume serialises identically to the cold run it stands in
for.  See ``docs/caching.md``.

Every run is one :class:`RunRequest`, built once by :func:`run` or, per
task, by :func:`run_tasks`: the inputs that shape the result, with the
resolved engine and the run key memoised, so the cache, the sweep journal
and checkpoints all key on one value.  :func:`run` is a pipeline of
stages over it — cache lookup; the execute stage (checkpoint restore or
session lease, gates, query or sample, classify, deposit); store; and
checkpoint discard.  :func:`run_tasks` runs the same stages in one task
loop for its serial and parallel paths; only the execute stage moves to
a process worker.
"""

from __future__ import annotations

import hashlib
import numbers
import os
import re
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cache.fingerprint import gate_tokens
from repro.cache.result_cache import (
    ResultCache,
    RunKey,
    cacheable_request,
    normalise_reorder,
    run_key,
)
from repro.cache.sessions import SessionLease, SessionPool
from repro.circuit.circuit import QuantumCircuit
from repro.engines.dynamic import classical_register_value
from repro.engines.limits import LimitEnforcer, ResourceLimits
from repro.engines.registry import (
    AUTO_ENGINE,
    UnknownEngineError,
    create_engine,
    engine_capabilities,
    resolve_engine,
    resolve_engine_name,
)
from repro.engines.result import (
    STATUS_CRASH,
    STATUS_ERROR,
    STATUS_MEMORY,
    STATUS_OK,
    STATUS_TIMEOUT,
    STATUS_UNSUPPORTED,
    RunResult,
)
from repro.engines.sampling import remap_counts_to_clbits
from repro.exceptions import (
    JobCancelledError,
    NumericalError,
    SimulationMemoryExceeded,
    SimulationTimeout,
    UnsupportedGateError,
)

#: Cap on the end-of-run joint-probability query width, keeping the query
#: linear-time on very wide registers.  The same cap applies to every
#: engine, so all engines answer the same question.
FINAL_QUERY_QUBIT_CAP = 64


def final_query_qubits(circuit: QuantumCircuit,
                       cap: int = FINAL_QUERY_QUBIT_CAP) -> List[int]:
    """Qubits for the end-of-run probability query (measured qubits if any,
    otherwise all qubits, capped to keep the query linear-time)."""
    qubits = circuit.measured_qubits or list(range(circuit.num_qubits))
    return qubits[:cap]


def sampling_qubits(circuit: QuantumCircuit) -> List[int]:
    """Qubits shot sampling draws jointly: the final-measurement markers in
    marker order (each qubit once, even when measured into several clbits),
    otherwise all qubits.

    Unlike :func:`final_query_qubits` there is *no* width cap: the descent
    sampler's cost scales with distinct outcomes, not register width, and a
    silent cap would report unsampled qubits as measured-0.
    """
    qubits = circuit.measured_qubits or list(range(circuit.num_qubits))
    return list(dict.fromkeys(qubits))


def _sample_static(instance, circuit: QuantumCircuit, shots: int,
                   rng) -> Tuple[Dict[int, int], int]:
    """Counts (and register width) for a static circuit: one exact descent.

    When the circuit measures into classical bits the counts are re-keyed
    onto the classical register (clbit 0 = least-significant bit); without
    measurement instructions they stay basis-state indices (qubit 0 = most
    significant bit).
    """
    qubits = sampling_qubits(circuit)
    raw = instance.sample(shots, qubits=qubits, rng=rng)
    if not circuit.measured_qubits:
        return raw, len(qubits)
    # One sampled bit per distinct qubit, fanned out to every clbit the
    # qubit is measured into (a qubit can appear in several markers).
    clbit_groups = [tuple(clbit for measured, clbit
                          in circuit.final_measurement_map()
                          if measured == qubit)
                    for qubit in qubits]
    return (remap_counts_to_clbits(raw, len(qubits), clbit_groups),
            max(circuit.num_clbits, 1))


def _sample_trajectories(instance, circuit: QuantumCircuit,
                         limits: ResourceLimits, shots: int,
                         rng, cancel=None) -> Dict[int, int]:
    """Counts for a dynamic circuit: one full re-execution per shot.

    Mid-circuit measurement makes each shot a fresh classical trajectory
    (collapse outcomes feed conditions), so the circuit is prepared and
    executed ``shots`` times; terminal measurement markers are then
    collapsed once per trajectory.  Counts are keyed by the classical
    register.  The wall-clock budget applies to the whole trajectory loop,
    and a set ``cancel`` token stops it at the next gate boundary.
    """
    counts: Dict[int, int] = {}
    start = time.perf_counter()
    final_map = circuit.final_measurement_map()
    for _ in range(shots):
        elapsed = time.perf_counter() - start
        if limits.max_seconds is not None and elapsed > limits.max_seconds:
            raise SimulationTimeout(elapsed, limits.max_seconds)
        enforcer = LimitEnforcer(instance, limits, cancel_token=cancel)
        enforcer.execute(circuit, rng=rng)
        classical = list(enforcer.classical_bits)
        if final_map:
            bits = instance.measure([qubit for qubit, _ in final_map], rng=rng)
            for (_, clbit), bit in zip(final_map, bits):
                while len(classical) <= clbit:
                    classical.append(0)
                classical[clbit] = bit
        key = classical_register_value(classical)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _suffix_circuit(circuit: QuantumCircuit, depth: int) -> QuantumCircuit:
    """The unexecuted tail of ``circuit`` after its first ``depth`` gates.

    Only what :func:`repro.engines.dynamic.execute_program` reads is
    carried — the gate stream and the classical register width.  Terminal
    measurement markers stay on the original circuit, which the front door
    keeps using for the final query and for sampling.
    """
    suffix = QuantumCircuit(circuit.num_qubits, name=circuit.name)
    for gate in circuit.gates[depth:]:
        suffix.append(gate)
    suffix.num_clbits = max(suffix.num_clbits, circuit.num_clbits)
    return suffix


def checkpoint_file(directory: Union[str, os.PathLike], key: str) -> str:
    """The deterministic checkpoint path for logical run ``key``.

    The filename embeds a sanitised prefix of the key (human-greppable) and
    a hash of the full key (collision-proof across keys that sanitise
    alike), so every process — the original run, a resumed run, a sweep
    worker — computes the same path without coordination.
    """
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", key)[:80] or "run"
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:12]
    return os.path.join(os.fspath(directory), f"{safe}-{digest}.ckpt")


def _checkpoint_spec(checkpoint_every, checkpoint_dir
                     ) -> Optional[Tuple[str, Optional[int], Optional[float]]]:
    """Validate ``checkpoint_every`` / ``checkpoint_dir`` once, as
    ``(directory, gate_interval, seconds_interval)`` (``None`` = off).

    An ``int`` checkpoints every N gates, a ``float`` every S wall-clock
    seconds, a 2-tuple ``(gates, seconds)`` on whichever triggers first
    (either element may be ``None``).
    """
    if checkpoint_every is None:
        return None
    if checkpoint_dir is None:
        raise ValueError("checkpoint_every requires checkpoint_dir")
    if isinstance(checkpoint_every, bool):
        raise ValueError("checkpoint_every must be an int (gates), float "
                         "(seconds) or (gates, seconds) tuple, not a bool")
    if isinstance(checkpoint_every, int):
        gates, seconds = checkpoint_every, None
    elif isinstance(checkpoint_every, float):
        gates, seconds = None, checkpoint_every
    elif isinstance(checkpoint_every, tuple) and len(checkpoint_every) == 2:
        gates, seconds = checkpoint_every
    else:
        raise ValueError("checkpoint_every must be an int (gates), float "
                         "(seconds) or (gates, seconds) tuple")
    if gates is not None and (isinstance(gates, bool)
                              or not isinstance(gates, int) or gates <= 0):
        raise ValueError("checkpoint gate interval must be a positive int")
    if seconds is not None and not (isinstance(seconds, (int, float))
                                    and not isinstance(seconds, bool)
                                    and seconds > 0):
        raise ValueError("checkpoint seconds interval must be positive")
    if gates is None and seconds is None:
        raise ValueError("checkpoint_every=(None, None) disables nothing — "
                         "pass checkpoint_every=None instead")
    return (os.fspath(checkpoint_dir), gates,
            None if seconds is None else float(seconds))


@dataclass(frozen=True)
class RunRequest:
    """One run request: exactly the inputs that shape its result.

    The fields are the inputs of :func:`~repro.cache.result_cache.run_key`.
    Construction is the one place that decides whether a run's options are
    valid, and raises before anything runs: ``shots`` and ``seed`` must be
    ``None`` or a non-negative int, ``reorder`` ``None``, a bool or a
    non-negative int (``ValueError`` otherwise), and ``engine`` ``"auto"``
    or a registered name or alias
    (:class:`~repro.engines.registry.UnknownEngineError` otherwise).  It
    also defaults ``limits``.  The engine *name* is checked eagerly, but
    picking the engine for ``"auto"`` is lazy: the resolved engine and the
    run key are computed on first use and memoised, so a request
    fingerprints its circuit at most once, and the memo travels with the
    request to a sweep's process workers.  An ``"auto"`` request that no
    engine supports raises where it is first resolved.
    """

    circuit: QuantumCircuit
    engine: str = AUTO_ENGINE
    limits: Optional[ResourceLimits] = None
    shots: Optional[int] = None
    seed: Optional[int] = None
    reorder: Union[bool, int, None] = None

    def __post_init__(self) -> None:
        # A bool is a count only as ``reorder``'s on/off switch.
        reorder = None if isinstance(self.reorder, bool) else self.reorder
        for name, value in (("shots", self.shots), ("seed", self.seed),
                            ("reorder", reorder)):
            if value is not None and (
                    isinstance(value, bool)
                    or not isinstance(value, numbers.Integral) or value < 0):
                raise ValueError(f"{name} must be a non-negative int, "
                                 f"not {value!r}")
        if self.engine != AUTO_ENGINE:
            resolve_engine_name(self.engine)
        if self.limits is None:
            object.__setattr__(self, "limits", ResourceLimits())

    @cached_property
    def resolved(self) -> str:
        """The canonical engine name (aliases and ``"auto"`` resolved)."""
        return resolve_engine(self.engine, self.circuit, self.limits)

    @cached_property
    def key(self) -> RunKey:
        """The request's :class:`~repro.cache.result_cache.RunKey`, which
        keys the result cache, the sweep journal and checkpoints."""
        return run_key(self.circuit, self.resolved, self.seed, self.shots,
                       self.reorder, self.limits)

    @property
    def cacheable(self) -> bool:
        """True when the result may be memoised
        (:func:`~repro.cache.result_cache.cacheable_request`)."""
        return cacheable_request(self.shots, self.seed)


class _Checkpointer:
    """One run's checkpoint: where it lives and its gate-boundary writer.

    Built by the caller (picklable, so a sweep worker gets its own copy)
    and bound to the engine by :meth:`start`.  It rides the limit
    enforcer's ``after_gate`` hook (after the budget poll, so a timed-out
    or cancelled run never writes on the way out) and rewrites one
    crash-safe snapshot at ``path`` whenever the gate-count or wall-clock
    interval elapses.  The snapshot's ``extra`` carries the logical
    ``name``, the circuit ``fingerprint`` and ``gates_done``, which is
    everything a resuming run needs to validate the file against its own
    request before trusting it.
    """

    def __init__(self, path: str, name: str, fingerprint: str,
                 gate_interval: Optional[int],
                 seconds_interval: Optional[float]):
        self.path = path
        self.name = name
        self.fingerprint = fingerprint
        self.gate_interval = gate_interval
        self.seconds_interval = seconds_interval
        self.instance = None
        self.gates_done = 0
        self.written = 0
        self.corrupt_skipped = 0
        self._last_gates = 0
        self._last_time = 0.0

    def start(self, instance, num_gates: int) -> Optional[int]:
        """Bind the run's engine and restore the checkpoint into it: the
        restored gate depth, or ``None`` when there is none to resume."""
        self.instance = instance
        self._last_time = time.perf_counter()
        if not os.path.exists(self.path):
            return None
        from repro.snapshot import SnapshotCorruptError

        try:
            loaded = instance.restore_snapshot(self.path)
        except SnapshotCorruptError:
            # A torn or bit-flipped checkpoint is skipped, never fatal and
            # never restored as garbage: the run simply starts cold and
            # overwrites it at the next interval.
            self.corrupt_skipped = 1
            return None
        depth = loaded.get("gates_done") if isinstance(loaded, dict) else None
        if (isinstance(loaded, dict)
                and loaded.get("fingerprint") == self.fingerprint
                and isinstance(depth, int) and not isinstance(depth, bool)
                and 0 <= depth <= num_gates):
            return depth
        # A stale checkpoint (another circuit's, or deeper than this
        # circuit) is ignored; the cold run's prepare() discards the
        # restored state.
        return None

    def seed_depth(self, depth: int) -> None:
        """Start gate accounting at ``depth`` (checkpoint/session resume)."""
        self.gates_done = depth
        self._last_gates = depth

    def after_gate(self) -> None:
        self.gates_done += 1
        due = (self.gate_interval is not None
               and self.gates_done - self._last_gates >= self.gate_interval)
        if not due and self.seconds_interval is not None:
            due = (time.perf_counter() - self._last_time
                   >= self.seconds_interval)
        if not due:
            return
        if self.instance.export_snapshot(self.path, extra={
                "key": self.name, "fingerprint": self.fingerprint,
                "gates_done": self.gates_done}):
            self.written += 1
        self._last_gates = self.gates_done
        self._last_time = time.perf_counter()


def _checkpoint_for(request: RunRequest, spec,
                    index: Optional[int] = None) -> Optional[_Checkpointer]:
    """The checkpoint of ``request`` under ``spec``, named by the state part
    of its run key (:attr:`~repro.cache.result_cache.RunKey.state`), after
    the task ``index`` in sweeps; ``None`` when the run is not checkpointed
    (no spec, an engine without snapshots, or a dynamic circuit)."""
    if (spec is None or request.circuit.has_dynamic_ops()
            or not engine_capabilities(request.resolved).supports_snapshots):
        return None
    directory, gate_interval, seconds_interval = spec
    state = request.key.state
    name = repr(state if index is None else (index, *state))
    os.makedirs(directory, exist_ok=True)
    return _Checkpointer(checkpoint_file(directory, name), name,
                         request.key.fingerprint, gate_interval,
                         seconds_interval)


def _cache_hit(request: RunRequest, cache: Optional[ResultCache],
               entered: Optional[float] = None) -> Optional[RunResult]:
    """The cached answer to ``request``, or ``None``.

    The stored entry keeps the populating run's identity fields; the hit
    reports the requesting circuit's name and gate count (two circuits can
    share a fingerprint across a SWAP-expansion representation choice), the
    caller's engine request string, and the time since ``entered`` (zero
    in sweeps).  Every deterministic field is untouched.
    """
    if cache is None or not request.cacheable:
        return None
    hit = cache.lookup(request.key)
    if hit is not None:
        hit.circuit_name = request.circuit.name
        hit.num_qubits = request.circuit.num_qubits
        hit.num_gates = request.circuit.num_gates
        hit.requested_engine = request.engine
        hit.elapsed_seconds = (0.0 if entered is None
                               else time.perf_counter() - entered)
    return hit


def _store_and_discard(request: RunRequest, result: RunResult,
                       cache: Optional[ResultCache],
                       ckpt: Optional[_Checkpointer]) -> None:
    """Store a result in ``cache``, then drop its checkpoint once it is ok.

    Callers run this after every other record of the result (the sweep
    journal's included): until then the checkpoint is what a re-run
    resumes from.  TO/MO keep theirs, so a retry under a bigger budget
    resumes from the deepest checkpoint instead of restarting.
    """
    if cache is not None and request.cacheable:
        cache.store(request.key, result)
    if ckpt is not None and result.status == STATUS_OK:
        try:
            os.remove(ckpt.path)
        except FileNotFoundError:
            pass


def _run_gates(instance, request: RunRequest, depth: Optional[int],
               lease: Optional[SessionLease],
               ckpt: Optional[_Checkpointer], rng, cancel) -> None:
    """Drive the circuit's gates under the limits.

    From a restored checkpoint or a leased session prefix only the
    unexecuted suffix after ``depth`` runs: the restored state (or the
    adopted fork) carries the prefix's cumulative gate and peak-node
    accounting, so the statistics match the equivalent cold run.
    """
    enforcer = LimitEnforcer(instance, request.limits, cancel_token=cancel)
    after_gate = ckpt.after_gate if ckpt is not None else None
    if depth is None:
        enforcer.execute(request.circuit, rng=rng, after_gate=after_gate)
        return
    if lease is not None:
        instance.resume_session(lease.fork, gates_already_applied=depth)
    if ckpt is not None:
        ckpt.seed_depth(depth)
    enforcer.execute_prepared(_suffix_circuit(request.circuit, depth),
                              rng=rng, after_gate=after_gate)


def _simulate(instance, request: RunRequest, depth: Optional[int],
              lease: Optional[SessionLease], ckpt: Optional[_Checkpointer],
              cancel) -> dict:
    """Gates, then the final query or the samples: the
    :class:`RunResult` fields of a run that did not fail."""
    circuit, shots = request.circuit, request.shots
    rng = None
    if shots is not None or circuit.has_dynamic_ops():
        import numpy as np

        rng = np.random.default_rng(request.seed)
    fields: dict = {"status": STATUS_OK}
    if shots and circuit.has_dynamic_ops():
        # After per-shot trajectory sampling the engine holds the *last*
        # shot's fully collapsed state, on which the all-zeros query would
        # be a random 0/1 artifact — so trajectory runs report their
        # distribution through ``counts`` only.
        fields["counts"] = _sample_trajectories(
            instance, circuit, request.limits, shots, rng, cancel=cancel)
        fields["counts_width"] = max(circuit.num_clbits, 1)
    else:
        _run_gates(instance, request, depth, lease, ckpt, rng, cancel)
        if shots is not None:
            fields["counts"], fields["counts_width"] = _sample_static(
                instance, circuit, shots, rng)
        qubits = final_query_qubits(circuit)
        fields["final_probability"] = instance.probability(
            qubits, [0] * len(qubits))
    stats = instance.statistics()
    fields["peak_memory_nodes"] = int(stats.get("peak_memory_nodes", 0))
    # Engine-specific extras only: stats duplicating a first-class
    # RunResult field are dropped (notably the engine-internal
    # elapsed_seconds, which differs slightly from the front door's clock
    # and would otherwise shadow it in serialised reports).
    fields["extra"] = {key: value for key, value in stats.items()
                       if key not in ("peak_memory_nodes", "elapsed_seconds",
                                      "num_qubits")
                       and isinstance(value, (int, float))}
    return fields


#: The failures a run is classified by (cancellation is not one of them:
#: it is a fact about the request, so it propagates).
_FAILURES = (SimulationTimeout, SimulationMemoryExceeded, MemoryError,
             NumericalError, UnsupportedGateError, RecursionError)


def _classify(instance, exc: BaseException) -> dict:
    """The :class:`RunResult` fields of a failed run.  TO/MO keep the
    engine's peak and ``gates_applied``, read on a best-effort basis (an
    engine stopped mid-preparation may have no statistics to give)."""
    if isinstance(exc, RecursionError):
        return {"status": STATUS_CRASH,
                "detail": f"recursion depth exceeded: {exc}"}
    if isinstance(exc, NumericalError):
        return {"status": STATUS_ERROR, "detail": str(exc)}
    if isinstance(exc, UnsupportedGateError):
        return {"status": STATUS_UNSUPPORTED, "detail": str(exc)}
    fields = {"status": (STATUS_TIMEOUT if isinstance(exc, SimulationTimeout)
                         else STATUS_MEMORY), "detail": str(exc)}
    try:
        stats = instance.statistics()
    except Exception:  # noqa: BLE001 - must not mask the TO/MO itself
        return fields
    fields["peak_memory_nodes"] = int(stats.get("peak_memory_nodes", 0))
    if "gates_applied" in stats:
        fields["extra"] = {"gates_applied": stats["gates_applied"]}
    return fields


def _execute(request: RunRequest, ckpt: Optional[_Checkpointer] = None,
             sessions: Optional[SessionPool] = None,
             cancel=None) -> RunResult:
    """The execute stage: checkpoint restore or session lease, gates, query
    or sample, classify, deposit.  Sweeps submit it to process workers;
    storing the result and discarding the checkpoint stay with the caller
    (:func:`_store_and_discard`)."""
    circuit = request.circuit
    instance = create_engine(request.resolved)
    reorder = normalise_reorder(request.reorder)
    if reorder is not None:
        instance.configure_reordering(reorder)
    depth = None if ckpt is None else ckpt.start(instance, circuit.num_gates)
    resumed = {} if depth is None else {"resumed_from_checkpoint": depth}
    if (not instance.capabilities.supports_prefix_resume
            or circuit.has_dynamic_ops()):
        # Dynamic circuits never match or deposit: collapse makes their
        # states trajectory-dependent.
        sessions = None
    tokens = gate_tokens(circuit) if sessions is not None else ()
    lease: Optional[SessionLease] = None
    if sessions is not None and depth is None:
        # A valid checkpoint beats a session match: it resumes *this exact
        # run* at full depth, not a shared prefix.
        lease = sessions.match(circuit.num_qubits, tokens, reorder)
        if lease is not None:
            depth, resumed = lease.depth, {"resumed_from_depth": lease.depth}
    start = time.perf_counter()
    try:
        try:
            fields = _simulate(instance, request, depth, lease, ckpt, cancel)
            fields["extra"].update(resumed)
        except _FAILURES as exc:
            fields = _classify(instance, exc)
        elapsed = time.perf_counter() - start
        budget = request.limits.max_seconds
        if (fields["status"] == STATUS_OK and budget is not None
                and elapsed > budget):
            # The engine finished right at the edge of the budget; classify
            # as timeout so the tables stay consistent with the budget.
            fields["status"] = STATUS_TIMEOUT
            fields["detail"] = (f"completed in {elapsed:.1f}s, over the "
                                f"{budget:.1f}s budget")
        if ckpt is not None:
            extra = fields.setdefault("extra", {})
            if ckpt.written:
                extra["checkpoints_written"] = ckpt.written
            if ckpt.corrupt_skipped:
                extra["checkpoint_corrupt_skipped"] = ckpt.corrupt_skipped
        if fields["status"] == STATUS_OK and sessions is not None:
            exported = instance.export_session()
            if exported is not None:
                # A resumed run's state shares its manager with the matched
                # entry, so the deposit reuses the lease's chain lock; cold
                # runs start a fresh serialisation chain.
                sessions.deposit(
                    circuit.num_qubits, tokens, reorder, *exported,
                    chain_lock=lease.chain_lock if lease is not None else None)
    finally:
        if lease is not None:
            lease.release()
    return RunResult(engine=request.resolved, circuit_name=circuit.name,
                     num_qubits=circuit.num_qubits,
                     num_gates=circuit.num_gates, elapsed_seconds=elapsed,
                     requested_engine=request.engine, shots=request.shots,
                     seed=request.seed, **fields)


def run(circuit: QuantumCircuit, engine: str = AUTO_ENGINE,
        limits: Optional[ResourceLimits] = None,
        shots: Optional[int] = None,
        seed: Optional[int] = None,
        reorder: Union[bool, int, None] = None,
        cache: Optional[ResultCache] = None,
        sessions: Optional[SessionPool] = None,
        cancel=None,
        checkpoint_every=None,
        checkpoint_dir: Union[str, os.PathLike, None] = None) -> RunResult:
    """Run ``circuit`` on ``engine`` under ``limits``; classify the outcome.

    ``engine`` may be a canonical name (``"bitslice"``, ``"qmdd"``,
    ``"statevector"``, ``"stabilizer"``), a registered alias (``"bdd"``,
    ``"ddsim"``, ``"dense"``, ``"chp"``, ...), or ``"auto"`` to let the
    registry pick by capability.  After the circuit is applied the engine
    answers one final probability query (the all-zeros outcome on the
    measured qubits, or on all qubits when the circuit marks none), so the
    measured runtime includes the measurement machinery exactly as in the
    paper's runs.

    ``shots=N`` additionally samples ``N`` measurement outcomes into
    ``RunResult.counts``: static circuits sample the final state exactly by
    conditional-probability descent (cost scales with *distinct* outcomes,
    not with ``N``); dynamic circuits re-execute once per shot so classical
    feedback sees fresh collapse outcomes (such trajectory runs report
    their distribution through ``counts`` only — ``final_probability`` is
    ``None``, since the engine ends in one shot's collapsed state).  With a
    ``seed`` the counts are
    reproducible — identical across repeated runs and across serial vs
    parallel sweeps, and identical *across engines* wherever the engines
    agree on the distribution (e.g. Clifford circuits), because every
    engine shares one descent and RNG protocol
    (:mod:`repro.engines.sampling`).

    ``reorder`` enables growth-triggered dynamic reordering on engines that
    support it (``Capabilities.supports_reordering`` — the bit-sliced BDD
    engine sifts its variables in place once the node store passes the
    threshold): ``True`` uses
    :data:`~repro.engines.base.DEFAULT_AUTO_REORDER_THRESHOLD`, an integer
    sets the threshold directly.  Engines without reordering ignore the
    flag, so mixed-engine sweeps can pass it uniformly; reordering never
    changes an engine's results (probabilities and fixed-seed counts are
    invariant), only its node counts and timings.

    ``cache`` memoises finished results: a request whose
    :func:`~repro.cache.result_cache.run_key` matches a stored
    entry is answered from the cache without touching an engine (the hit
    carries ``extra["cache_hit"] = 1`` and this request's actual service
    time; every deterministic field replays the cold run verbatim).
    Unseeded sampling requests bypass the cache in both directions, and
    only ``ok`` / ``unsupported`` outcomes are stored — TO/MO depend on
    wall-clock scheduling.

    ``sessions`` enables gate-sequence **prefix reuse** on engines
    declaring ``Capabilities.supports_prefix_resume`` (the bit-sliced
    engine): when the circuit's gate stream extends a pool-retained
    sequence, the engine resumes from the stored slice roots and executes
    only the suffix (``extra["resumed_from_depth"]`` records the skipped
    depth), and successful static runs deposit their final state back into
    the pool.  Dynamic circuits never match or deposit — collapse makes
    their states trajectory-dependent.

    ``cancel`` (any object with ``is_set()``, e.g. a ``threading.Event``)
    enables cooperative cancellation: the limit enforcer polls the token
    between gates, and a set token raises
    :class:`~repro.exceptions.JobCancelledError` *out of this function* —
    cancellation is a fact about the request, not an outcome class of the
    run, so no :class:`RunResult` is fabricated.  Any held session lease is
    released on the way out (the ``repro.service`` scheduler relies on
    this to cancel queued and running jobs without poisoning the session
    pool).

    ``checkpoint_every`` makes the run **crash-safe** on engines declaring
    ``Capabilities.supports_snapshots`` (the bit-sliced engine): an ``int``
    writes a versioned, checksummed snapshot of the live state to
    ``checkpoint_dir`` every N gates, a ``float`` every S wall-clock
    seconds, a ``(gates, seconds)`` tuple on whichever elapses first.  A
    later request with the same state key finding a valid checkpoint (same
    circuit fingerprint, plausible depth) restores it and executes only the
    unexecuted suffix — with the same ``seed`` the resumed result's
    ``to_dict(timings=False)`` is byte-identical to an uninterrupted run,
    sampled counts included.  A torn or corrupt checkpoint is *skipped*
    (``extra["checkpoint_corrupt_skipped"]``), never fatal and never
    restored as garbage; engines without the capability, and dynamic
    circuits (whose trajectories are collapse-dependent), degrade
    gracefully to ordinary uncheckpointed runs.  The checkpoint is named
    by the state part of the run key
    (:attr:`~repro.cache.result_cache.RunKey.state`: fingerprint, resolved
    engine, reorder); the file is removed once the run reaches ``ok`` and
    its result is stored, and kept on TO/MO so a retry under a bigger
    budget resumes instead of restarting.  Provenance lands in ``extra``
    (``resumed_from_checkpoint``, ``checkpoints_written``), excluded from
    deterministic serialisation.  See ``docs/checkpointing.md``.

    See the module docstring for the stages of the run.
    """
    entered = time.perf_counter()
    request = RunRequest(circuit, engine, limits, shots, seed, reorder)
    hit = _cache_hit(request, cache, entered)
    if hit is not None:
        return hit
    ckpt = _checkpoint_for(request,
                           _checkpoint_spec(checkpoint_every, checkpoint_dir))
    result = _execute(request, ckpt, sessions, cancel)
    _store_and_discard(request, result, cache, ckpt)
    return result


def derive_task_seed(seed: Optional[int], index: int) -> Optional[int]:
    """Deterministic per-task seed for sweep task ``index``.

    Computed from the task's position *before* dispatch, so serial and
    parallel executions of the same task list see identical seeds (and
    therefore identical sampled counts).
    """
    if seed is None:
        return None
    return seed * 1_000_003 + index


def _task_key(request: RunRequest, keyed: bool,
              cache: Optional[ResultCache]) -> Optional[RunKey]:
    """The run key of a sweep task when anything keys on it (``keyed``: a
    journal or checkpoints; or a cache the request may use), else ``None``.
    The engine name was checked when the request was built; only an
    ``"auto"`` task, resolved lazily here, can still find no engine, and
    it has no key either: it raises that error when it runs."""
    if not (keyed or (cache is not None and request.cacheable)):
        return None
    try:
        return request.key
    except UnknownEngineError:
        return None


def run_tasks(tasks: Sequence[Tuple[str, QuantumCircuit]],
              limits: Optional[ResourceLimits] = None,
              jobs: int = 1,
              shots: Optional[int] = None,
              seed: Optional[int] = None,
              reorder: Union[bool, int, None] = None,
              cache: Optional[ResultCache] = None,
              sessions: Optional[SessionPool] = None,
              journal=None,
              cancel=None,
              checkpoint_every=None,
              checkpoint_dir: Union[str, os.PathLike, None] = None
              ) -> List[RunResult]:
    """Execute (engine, circuit) tasks, optionally on process workers.

    ``jobs <= 1`` runs serially in-process.  With ``jobs > 1`` the tasks are
    distributed over a :class:`~concurrent.futures.ProcessPoolExecutor`;
    results are returned in task order either way, so downstream grouping
    and table rendering are independent of worker scheduling.

    Each task becomes one :class:`RunRequest`, built once here.  One loop
    serves both paths: in task order it replays the journal, looks the
    cache up, folds duplicate keys and then runs the task — in this process
    (with ``sessions`` and ``cancel``) on the serial path, on a process
    worker on the parallel one.  Journal record, cache store and
    checkpoint discard happen here, in the parent, on both paths.

    ``shots`` / ``seed`` apply to every task; each task samples with its own
    seed derived via :func:`derive_task_seed` from its position, so the
    counts of every task — and the ``to_dict(timings=False)``
    serialisations — are byte-identical between serial and parallel runs.

    ``reorder`` applies uniformly to every task (engines without reordering
    support ignore it), exactly like :func:`run`'s flag.

    ``cache`` / ``sessions`` amortise repeated work exactly as in
    :func:`run`.  Hits never dispatch a worker, and duplicate keys whose
    first task is still in flight on a worker dispatch once and share its
    stored result; ``sessions`` serve only the tasks that run in this
    process — live BDD session state cannot cross process boundaries.

    ``journal`` (a path or a :class:`~repro.resilience.journal.SweepJournal`)
    makes the task list **crash-safe**: every terminal result is appended
    to the manifest before the next task dispatches, and re-running the
    same task list against the same manifest replays journalled tasks
    verbatim (``extra["journal_replayed"]``, a provenance marker excluded
    from deterministic serialisation) and executes only the missing ones —
    so a killed sweep, resumed, produces ``to_dict(timings=False)`` output
    byte-identical to an uninterrupted run.  Each task is journalled under
    its index plus its request's run key, so a result is replayed only
    under the limits and the resolved engine that produced it.
    Journalling composes with ``cache`` (hits and duplicates are journalled
    too) and with ``jobs > 1`` (journalled tasks never dispatch a worker;
    completions are journalled in deterministic task order).

    ``cancel`` cancels the task list cooperatively, exactly as in
    :func:`run`: the serial path polls the token between gates, the
    parallel path between task dispatches (an in-flight process worker
    finishes its current task before the cancellation surfaces).  A
    journalled sweep that is cancelled — or killed outright — resumes from
    its manifest.

    ``checkpoint_every`` / ``checkpoint_dir`` checkpoint each *in-flight*
    task mid-circuit exactly as in :func:`run` — complementing the
    journal's per-task granularity with per-gate granularity: a sweep
    SIGKILLed 4 000 gates into task 7 resumes by replaying tasks 0-6 from
    the manifest *and* restoring task 7's snapshot rather than re-running
    its prefix.  Every task owns one deterministic checkpoint file, named
    by its index plus the state part of its run key
    (:attr:`~repro.cache.result_cache.RunKey.state`); the budgets stay out
    of it, so a task stopped at TO/MO resumes from its snapshot when the
    sweep is re-run under bigger limits.  A task's checkpoint is removed
    only after the journal has recorded its ``ok`` result, so a kill
    between the two still resumes from it.

    Engines registered at import time (everything in :mod:`repro.engines`
    and any module imported before the pool starts) are available in the
    workers; engines registered dynamically inside a ``__main__`` script are
    only visible to forked workers (the POSIX default), not spawned ones.
    """
    spec = _checkpoint_spec(checkpoint_every, checkpoint_dir)
    requests = [RunRequest(circuit, engine, limits, shots,
                           derive_task_seed(seed, index), reorder)
                for index, (engine, circuit) in enumerate(tasks)]
    # Imported here: the resilience package sits above the engines in the
    # dependency order.
    from repro.resilience.journal import open_journal

    journal = open_journal(journal)
    keyed = journal is not None or spec is not None
    keys = [_task_key(request, keyed, cache) for request in requests]
    ckpts = [None if key is None else _checkpoint_for(request, spec, index)
             for index, (request, key) in enumerate(zip(requests, keys))]
    results: List[Optional[RunResult]] = [None] * len(requests)
    in_flight, pending, duplicates = set(), [], []

    def finish(index: int, result: RunResult, executed: bool = False) -> None:
        if journal is not None and keys[index] is not None:
            journal.record(repr((index, *keys[index])), result)
        _store_and_discard(requests[index], result,
                           cache if executed else None, ckpts[index])
        results[index] = result

    def settle(index: int, request: RunRequest, key, pool) -> None:
        # A replay never runs; finishing it drops the checkpoint that a kill
        # between the journal record and its removal left behind.
        hit = (journal.lookup(repr((index, *key)))
               if journal is not None and key is not None else None)
        cached = key is not None and cache is not None and request.cacheable
        if hit is None and cached:
            hit = _cache_hit(request, cache)
        if hit is not None:
            finish(index, hit)
        elif pool is None:
            finish(index, _execute(request, ckpts[index], sessions, cancel),
                   executed=True)
        elif key in in_flight:
            duplicates.append((index, request, key))
        else:
            if cancel is not None and cancel.is_set():
                raise JobCancelledError("cancelled between dispatches")
            if cached:
                in_flight.add(key)
            pending.append(
                (index, pool.submit(_execute, request, ckpts[index])))

    workers = nullcontext()
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        workers = ProcessPoolExecutor(max_workers=min(jobs, len(tasks)))
    with workers as pool:
        for index, (request, key) in enumerate(zip(requests, keys)):
            settle(index, request, key, pool)
        for index, future in pending:
            finish(index, future.result(), executed=True)
    # A duplicate of a task in flight on a worker is served from that
    # task's stored result, or runs here when it ended TO/MO (not cached).
    for duplicate in duplicates:
        settle(*duplicate, None)
    return results


def run_sweep(circuits: Sequence[QuantumCircuit],
              engines: Sequence[str] = (AUTO_ENGINE,),
              limits: Optional[ResourceLimits] = None,
              jobs: int = 1,
              shots: Optional[int] = None,
              seed: Optional[int] = None,
              reorder: Union[bool, int, None] = None,
              cache: Optional[ResultCache] = None,
              sessions: Optional[SessionPool] = None,
              journal=None,
              cancel=None,
              checkpoint_every=None,
              checkpoint_dir: Union[str, os.PathLike, None] = None
              ) -> List[RunResult]:
    """Run every circuit on every engine (circuit-major order).

    Returns ``len(circuits) * len(engines)`` results ordered as
    ``(circuit[0], engines...), (circuit[1], engines...), ...`` —
    deterministic regardless of ``jobs``.  ``shots`` / ``seed`` sample
    measurement counts per run exactly as in :func:`run_tasks`, ``reorder``
    enables dynamic reordering on capable engines per run, ``cache`` /
    ``sessions`` amortise repeated work across the grid, ``journal``
    makes the grid crash-safe (a killed sweep resumes byte-identically
    from its manifest), ``checkpoint_every`` / ``checkpoint_dir``
    additionally checkpoint each in-flight run mid-circuit (a SIGKILLed
    grid resumes the interrupted task from its snapshot rather than
    re-running its prefix), and ``cancel`` cancels the grid cooperatively
    — all exactly as in :func:`run_tasks`.
    """
    tasks = [(engine, circuit) for circuit in circuits for engine in engines]
    return run_tasks(tasks, limits=limits, jobs=jobs, shots=shots, seed=seed,
                     reorder=reorder, cache=cache,
                     sessions=sessions, journal=journal, cancel=cancel,
                     checkpoint_every=checkpoint_every,
                     checkpoint_dir=checkpoint_dir)
