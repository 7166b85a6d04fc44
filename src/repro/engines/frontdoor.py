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
"""

from __future__ import annotations

import hashlib
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
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
    resolve_engine,
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


def _checkpoint_spec(checkpoint_every) -> Tuple[Optional[int],
                                                Optional[float]]:
    """Normalise ``checkpoint_every`` to ``(gate_interval, seconds_interval)``.

    An ``int`` checkpoints every N gates, a ``float`` every S wall-clock
    seconds, a 2-tuple ``(gates, seconds)`` on whichever triggers first
    (either element may be ``None``).
    """
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
    return gates, None if seconds is None else float(seconds)


class _Checkpointer:
    """Gate-boundary checkpoint writer for one :func:`run` invocation.

    Rides the limit enforcer's ``after_gate`` hook (after the budget poll,
    so a timed-out or cancelled run never writes on the way out) and
    rewrites one crash-safe snapshot at ``path`` whenever the gate-count or
    wall-clock interval elapses.  The snapshot's ``extra`` carries the
    logical ``key``, the circuit ``fingerprint`` and ``gates_done``, which
    is everything a resuming run needs to validate the file against its
    own request before trusting it.
    """

    def __init__(self, instance, path: str, key: str, fingerprint: str,
                 gate_interval: Optional[int],
                 seconds_interval: Optional[float]):
        self.instance = instance
        self.path = path
        self.key = key
        self.fingerprint = fingerprint
        self.gate_interval = gate_interval
        self.seconds_interval = seconds_interval
        self.gates_done = 0
        self.written = 0
        self._last_gates = 0
        self._last_time = time.perf_counter()

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
                "key": self.key, "fingerprint": self.fingerprint,
                "gates_done": self.gates_done}):
            self.written += 1
        self._last_gates = self.gates_done
        self._last_time = time.perf_counter()

    def discard(self) -> None:
        """Remove the checkpoint file (the run reached a result; the
        snapshot is now a stale prefix of a finished computation)."""
        try:
            os.remove(self.path)
        except FileNotFoundError:
            pass


def _materialise_hit(hit: RunResult, circuit: QuantumCircuit,
                     requested_engine: str, elapsed: float) -> RunResult:
    """Rebrand a cache hit as the answer to *this* request.

    The stored entry keeps the populating run's identity fields; the hit
    reports the requesting circuit's name and gate count (two circuits can
    share a fingerprint across a SWAP-expansion representation choice), the
    caller's engine request string, and the actual (near-zero) service
    time.  Every deterministic field is untouched.
    """
    hit.circuit_name = circuit.name
    hit.num_qubits = circuit.num_qubits
    hit.num_gates = circuit.num_gates
    hit.requested_engine = requested_engine
    hit.elapsed_seconds = elapsed
    return hit


def _failure_accounting(instance) -> Tuple[int, Dict[str, int]]:
    """``(peak_memory_nodes, extra)`` of a TO/MO run: the engine's peak and
    ``gates_applied``, read on a best-effort basis (an engine stopped
    mid-preparation may have no statistics to give)."""
    try:
        stats = instance.statistics()
    except Exception:  # noqa: BLE001 - must not mask the TO/MO itself
        return 0, {}
    extra = ({"gates_applied": stats["gates_applied"]}
             if "gates_applied" in stats else {})
    return int(stats.get("peak_memory_nodes", 0)), extra


def run(circuit: QuantumCircuit, engine: str = AUTO_ENGINE,
        limits: Optional[ResourceLimits] = None,
        shots: Optional[int] = None,
        seed: Optional[int] = None,
        reorder: Union[bool, int, None] = None,
        cache: Optional[ResultCache] = None,
        sessions: Optional[SessionPool] = None,
        cancel=None,
        checkpoint_every=None,
        checkpoint_dir: Union[str, os.PathLike, None] = None,
        checkpoint_key: Optional[str] = None) -> RunResult:
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
    gracefully to ordinary uncheckpointed runs.  ``checkpoint_key`` names
    the logical run, defaulting to the state part of the run key
    (:attr:`~repro.cache.result_cache.RunKey.state`: fingerprint, resolved
    engine, reorder) — sweeps put the task index in front so each task
    owns one file; the file is removed once the run reaches ``ok``, and
    kept on TO/MO so a retry under a bigger budget resumes instead of
    restarting.  Provenance lands in
    ``extra`` (``resumed_from_checkpoint``, ``checkpoints_written``),
    excluded from deterministic serialisation.  See
    ``docs/checkpointing.md``.
    """
    limits = limits or ResourceLimits()
    if shots is not None and shots < 0:
        raise ValueError("shots must be non-negative")
    entered = time.perf_counter()
    resolved = resolve_engine(engine, circuit, limits)
    caching = cache is not None and cacheable_request(shots, seed)
    key: Optional[RunKey] = None
    if caching:
        key = run_key(circuit, resolved, seed, shots, reorder, limits)
        hit = cache.lookup(key)
        if hit is not None:
            return _materialise_hit(hit, circuit, engine,
                                    time.perf_counter() - entered)
    instance = create_engine(resolved)
    norm_reorder = normalise_reorder(reorder)
    if norm_reorder is not None:
        instance.configure_reordering(norm_reorder)
    ckpt: Optional[_Checkpointer] = None
    resume_depth: Optional[int] = None
    corrupt_skipped = 0
    if checkpoint_every is not None:
        if checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        gate_interval, seconds_interval = _checkpoint_spec(checkpoint_every)
        if (instance.capabilities.supports_snapshots
                and not circuit.has_dynamic_ops()):
            from repro.snapshot import SnapshotCorruptError

            if key is None:
                key = run_key(circuit, resolved, seed, shots, reorder, limits)
            if checkpoint_key is None:
                checkpoint_key = repr(key.state)
            os.makedirs(checkpoint_dir, exist_ok=True)
            path = checkpoint_file(checkpoint_dir, checkpoint_key)
            ckpt = _Checkpointer(instance, path, checkpoint_key,
                                 key.fingerprint, gate_interval,
                                 seconds_interval)
            if os.path.exists(path):
                try:
                    loaded = instance.restore_snapshot(path)
                except SnapshotCorruptError:
                    # A torn or bit-flipped checkpoint is skipped, never
                    # fatal and never restored as garbage: the run simply
                    # starts cold and overwrites it at the next interval.
                    corrupt_skipped = 1
                else:
                    depth = (loaded.get("gates_done")
                             if isinstance(loaded, dict) else None)
                    if (isinstance(loaded, dict)
                            and loaded.get("fingerprint") == key.fingerprint
                            and isinstance(depth, int)
                            and not isinstance(depth, bool)
                            and 0 <= depth <= circuit.num_gates):
                        resume_depth = depth
                        ckpt.seed_depth(depth)
                    # A stale checkpoint (another circuit's, or deeper than
                    # this circuit) is ignored; prepare() below discards
                    # the restored state.
    prefix_eligible = (sessions is not None
                       and instance.capabilities.supports_prefix_resume
                       and not circuit.has_dynamic_ops())
    tokens = gate_tokens(circuit) if prefix_eligible else ()
    lease: Optional[SessionLease] = None
    if prefix_eligible and resume_depth is None:
        # A valid checkpoint beats a session match: it resumes *this exact
        # run* at full depth, not a shared prefix.
        lease = sessions.match(circuit.num_qubits, tokens, norm_reorder)
    rng = None
    if shots is not None or circuit.has_dynamic_ops():
        import numpy as np

        rng = np.random.default_rng(seed)
    start = time.perf_counter()
    status = STATUS_OK
    detail = ""
    peak_memory_nodes = 0
    final_probability: Optional[float] = None
    counts: Optional[Dict[int, int]] = None
    extra = {}
    counts_width: Optional[int] = None
    trajectory_mode = bool(shots) and circuit.has_dynamic_ops()
    try:
        try:
            if trajectory_mode:
                counts = _sample_trajectories(instance, circuit, limits,
                                              shots, rng, cancel=cancel)
                counts_width = max(circuit.num_clbits, 1)
            else:
                enforcer = LimitEnforcer(instance, limits, cancel_token=cancel)
                after_gate = ckpt.after_gate if ckpt is not None else None
                if resume_depth is not None:
                    # The checkpoint restore above already installed the
                    # prefix's exact state (gate and peak-node accounting
                    # included); drive only the unexecuted suffix.
                    enforcer.execute_prepared(
                        _suffix_circuit(circuit, resume_depth), rng=rng,
                        after_gate=after_gate)
                elif lease is not None:
                    # Resume from the leased fork and execute only the
                    # unexecuted suffix — the fork carries the prefix's
                    # cumulative gate and peak-node accounting, so the
                    # statistics below match the equivalent cold run.
                    instance.resume_session(lease.fork,
                                            gates_already_applied=lease.depth)
                    if ckpt is not None:
                        ckpt.seed_depth(lease.depth)
                    enforcer.execute_prepared(
                        _suffix_circuit(circuit, lease.depth), rng=rng,
                        after_gate=after_gate)
                else:
                    enforcer.execute(circuit, rng=rng, after_gate=after_gate)
                if shots is not None:
                    counts, counts_width = _sample_static(instance, circuit,
                                                          shots, rng)
            if counts is None and shots is not None:
                counts = {}
            if not trajectory_mode:
                # After per-shot trajectory sampling the engine holds the
                # *last* shot's fully collapsed state, on which the
                # all-zeros query would be a random 0/1 artifact — so
                # trajectory runs report their distribution through
                # ``counts`` only.
                qubits = final_query_qubits(circuit)
                final_probability = instance.probability(qubits,
                                                         [0] * len(qubits))
            stats = instance.statistics()
            peak_memory_nodes = int(stats.get("peak_memory_nodes", 0))
            # Engine-specific extras only: stats duplicating a first-class
            # RunResult field are dropped (notably the engine-internal
            # elapsed_seconds, which differs slightly from the front door's
            # clock and would otherwise shadow it in serialised reports).
            extra = {key: value for key, value in stats.items()
                     if key not in ("peak_memory_nodes", "elapsed_seconds",
                                    "num_qubits")
                     and isinstance(value, (int, float))}
            if lease is not None:
                extra["resumed_from_depth"] = lease.depth
            if resume_depth is not None:
                extra["resumed_from_checkpoint"] = resume_depth
        except SimulationTimeout as exc:
            status, detail = STATUS_TIMEOUT, str(exc)
            peak_memory_nodes, extra = _failure_accounting(instance)
        except (SimulationMemoryExceeded, MemoryError) as exc:
            status, detail = STATUS_MEMORY, str(exc)
            peak_memory_nodes, extra = _failure_accounting(instance)
        except NumericalError as exc:
            status, detail = STATUS_ERROR, str(exc)
        except UnsupportedGateError as exc:
            status, detail = STATUS_UNSUPPORTED, str(exc)
        except RecursionError as exc:  # pragma: no cover - defensive
            status, detail = STATUS_CRASH, f"recursion depth exceeded: {exc}"
        elapsed = time.perf_counter() - start
        if (status == STATUS_OK and limits.max_seconds is not None
                and elapsed > limits.max_seconds):
            # The engine finished right at the edge of the budget; classify
            # as timeout so the tables stay consistent with the budget.
            status = STATUS_TIMEOUT
            detail = (f"completed in {elapsed:.1f}s, over the "
                      f"{limits.max_seconds:.1f}s budget")
        if ckpt is not None:
            if ckpt.written:
                extra["checkpoints_written"] = ckpt.written
            if corrupt_skipped:
                extra["checkpoint_corrupt_skipped"] = corrupt_skipped
            if status == STATUS_OK:
                # The run has its answer; the checkpoint is a stale prefix.
                # TO/MO keep theirs — a retry under a bigger budget resumes
                # from the deepest checkpoint instead of restarting.
                ckpt.discard()
        if status == STATUS_OK and prefix_eligible:
            exported = instance.export_session()
            if exported is not None:
                payload, generation_probe = exported
                # A resumed run's state shares its manager with the matched
                # entry, so the deposit reuses the lease's chain lock; cold
                # runs start a fresh serialisation chain.
                sessions.deposit(
                    circuit.num_qubits, tokens, norm_reorder, payload,
                    generation_probe,
                    chain_lock=lease.chain_lock if lease is not None else None)
    finally:
        if lease is not None:
            lease.release()
    result = RunResult(
        engine=resolved,
        circuit_name=circuit.name,
        num_qubits=circuit.num_qubits,
        num_gates=circuit.num_gates,
        status=status,
        elapsed_seconds=elapsed,
        peak_memory_nodes=peak_memory_nodes,
        final_probability=final_probability,
        detail=detail,
        extra=extra,
        requested_engine=engine,
        shots=shots,
        seed=seed,
        counts=counts,
        counts_width=counts_width,
    )
    if caching:
        cache.store(key, result)
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

    ``shots`` / ``seed`` apply to every task; each task samples with its own
    seed derived via :func:`derive_task_seed` from its position, so the
    counts of every task — and the ``to_dict(timings=False)``
    serialisations — are byte-identical between serial and parallel runs.

    ``reorder`` applies uniformly to every task (engines without reordering
    support ignore it), exactly like :func:`run`'s flag.

    ``cache`` / ``sessions`` amortise repeated work exactly as in
    :func:`run`.  On the parallel path the cache is consulted and filled in
    the *parent* process (hits never dispatch a worker, duplicate keys
    within one task list dispatch a single worker and share its stored
    result), while ``sessions`` is serial-only and ignored under
    ``jobs > 1`` — live BDD session state cannot cross process boundaries.

    ``journal`` (a path or a :class:`~repro.resilience.journal.SweepJournal`)
    makes the task list **crash-safe**: every terminal result is appended
    to the manifest before the next task dispatches, and re-running the
    same task list against the same manifest replays journalled tasks
    verbatim (``extra["journal_replayed"]``, a provenance marker excluded
    from deterministic serialisation) and executes only the missing ones —
    so a killed sweep, resumed, produces ``to_dict(timings=False)`` output
    byte-identical to an uninterrupted run.  Each task is journalled under
    its index plus its :func:`~repro.cache.result_cache.run_key`, with the
    engine resolved once per task here in the caller's process, so a
    result is replayed only under the limits and the resolved engine that
    produced it.  Journalling composes with ``cache`` (hits and aliases
    are journalled too) and with ``jobs > 1`` (journalled tasks never
    dispatch a worker; completions are journalled in deterministic task
    order as futures resolve).

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
    its prefix.  Every task owns one deterministic checkpoint file, keyed
    by its index plus the state part of its run key
    (:attr:`~repro.cache.result_cache.RunKey.state`); the budgets stay out
    of it, so a task stopped at TO/MO resumes from its snapshot when the
    sweep is re-run under bigger limits.  The resumed sweep's
    deterministic serialisation stays byte-identical to an uninterrupted
    run.

    Engines registered at import time (everything in :mod:`repro.engines`
    and any module imported before the pool starts) are available in the
    workers; engines registered dynamically inside a ``__main__`` script are
    only visible to forked workers (the POSIX default), not spawned ones.
    """
    if checkpoint_every is not None and checkpoint_dir is None:
        raise ValueError("checkpoint_every requires checkpoint_dir")
    parallel = jobs > 1 and len(tasks) > 1
    specs = [(engine, circuit, shots, derive_task_seed(seed, index))
             for index, (engine, circuit) in enumerate(tasks)]
    results: List[Optional[RunResult]] = [None] * len(specs)
    # The journal, the checkpoints and the parallel path's cache lookups
    # all key on the task's run key; the serial path's cache keys in run().
    keys: List[Optional[RunKey]] = [None] * len(specs)
    if (journal is not None or checkpoint_every is not None
            or (parallel and cache is not None)):
        for index, (engine_name, circuit, task_shots, task_seed) \
                in enumerate(specs):
            try:
                resolved = resolve_engine(engine_name, circuit, limits)
            except UnknownEngineError:
                # The task's own run() raises the same error when it is
                # reached; until then it has nothing to be keyed on.
                continue
            keys[index] = run_key(circuit, resolved, task_seed, task_shots,
                                  reorder, limits)
    if journal is not None:
        # Imported lazily: journalling is opt-in and the resilience package
        # sits above the engines in the dependency order.
        from repro.resilience.journal import open_journal

        journal = open_journal(journal)
        journal_keys = [None if key is None else repr((index, *key))
                        for index, key in enumerate(keys)]
        for index, text in enumerate(journal_keys):
            if text is not None:
                results[index] = journal.lookup(text)

    def finish(index: int, result: RunResult) -> None:
        if journal is not None and journal_keys[index] is not None:
            journal.record(journal_keys[index], result)
        results[index] = result

    def options(index: int) -> dict:
        engine_name, _, task_shots, task_seed = specs[index]
        key = keys[index]
        return dict(engine=engine_name, limits=limits, shots=task_shots,
                    seed=task_seed, reorder=reorder,
                    checkpoint_every=checkpoint_every,
                    checkpoint_dir=checkpoint_dir,
                    checkpoint_key=(None if key is None
                                    else repr((index, *key.state))))

    if not parallel:
        for index, (_, circuit, _, _) in enumerate(specs):
            if results[index] is None:
                finish(index, run(circuit, cache=cache, sessions=sessions,
                                  cancel=cancel, **options(index)))
        return results
    pending: List[int] = []
    aliases: List[int] = []
    owners: Dict[RunKey, int] = {}
    for index, (engine_name, circuit, task_shots, task_seed) \
            in enumerate(specs):
        if results[index] is not None:
            continue  # journal replay: never dispatched
        key = keys[index]
        if (cache is None or key is None
                or not cacheable_request(task_shots, task_seed)):
            pending.append(index)
            continue
        hit = cache.lookup(key)
        if hit is not None:
            finish(index, _materialise_hit(hit, circuit, engine_name, 0.0))
        elif key in owners:
            aliases.append(index)
        else:
            owners[key] = index
            pending.append(index)
    if pending:
        if cancel is not None and cancel.is_set():
            raise JobCancelledError("cancelled before parallel dispatch")
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = [(index, pool.submit(run, specs[index][1],
                                           **options(index)))
                       for index in pending]
            for index, future in futures:
                result = future.result()
                if owners.get(keys[index]) == index:
                    cache.store(keys[index], result)
                finish(index, result)
    for index in aliases:
        engine_name, circuit, _, _ = specs[index]
        hit = cache.lookup(keys[index])
        if hit is not None:
            finish(index, _materialise_hit(hit, circuit, engine_name, 0.0))
        else:
            # The owning task finished with a non-cacheable outcome (TO/MO);
            # reproduce it for this request the ordinary way.
            finish(index, run(circuit, **options(index)))
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
