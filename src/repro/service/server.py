"""The asyncio simulation server (``repro-serve``).

One process, one event loop, one :class:`~repro.service.scheduler.JobScheduler`
worker pool: connections speak the newline-delimited JSON protocol of
:mod:`repro.service.protocol` over TCP or a unix-domain socket, simulation
jobs run on worker threads (the loop never blocks on a BDD apply), and the
process-wide :class:`~repro.cache.result_cache.ResultCache` /
:class:`~repro.cache.sessions.SessionPool` amortise work **across
requests and across clients** — the cross-run machinery finally facing
traffic instead of test runs.

Request handling rules:

* Async job kinds reply ``job_accepted`` immediately, then the terminal
  result (or a structured ``error``) when the job finishes; a client may
  have many jobs in flight on one connection and replies demultiplex by
  ``in_reply_to``.
* A full queue rejects at submission time with ``error`` /
  ``queue_full`` — structured backpressure, never a hang.
* A client disconnecting mid-job cancels its outstanding jobs (queued
  ones conclude instantly, running ones stop at the next gate boundary),
  so abandoned work cannot occupy the pool.
* Sweeps execute serially inside one job, which preserves the
  byte-identity guarantee: results equal a local serial ``run_sweep()``.

Run it standalone::

    repro-serve --port 7621             # or: python -m repro.service.server
    repro-serve --unix /tmp/repro.sock

or embedded (tests, benchmarks) via :func:`serve_background`.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import signal
import sys
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.cache.result_cache import ResultCache
from repro.cache.sessions import SessionPool
from repro.circuit.circuit import QuantumCircuit
from repro.engines.frontdoor import RunRequest, run, run_tasks
from repro.engines.limits import LimitEnforcer, ResourceLimits
from repro.engines.base import check_outcome_query
from repro.engines.registry import UnknownEngineError, create_engine
from repro.engines.result import STATUS_OK
from repro.exceptions import JobCancelledError
from repro.perf.counters import PerfCounters
from repro.resilience.faults import FAULT_SERVER_SEND, FAULT_SESSION_APPEND, maybe_fire
from repro.service import protocol
from repro.service.protocol import (
    AppendToSession,
    CancelJob,
    CancelReply,
    CloseSession,
    ErrorReply,
    HealthReply,
    HealthRequest,
    JobAccepted,
    ListSessions,
    Message,
    OpenSession,
    ProbabilityReply,
    ProtocolError,
    QueryProbability,
    RunCompleted,
    ServerStatsRequest,
    SessionClosed,
    SessionList,
    SessionOpened,
    StatsReply,
    SubmitRun,
    SubmitSweep,
    SweepCompleted,
    WatchRequest,
    encode_message,
)
from repro.service.scheduler import (
    JOB_CANCELLED,
    DrainingError,
    JobScheduler,
    QueueFullError,
)
from repro.service.sessions import SessionLimitError, SessionRegistry

#: Floor on the ``watch`` streaming interval, in seconds.  Requests below
#: it are clamped, so a client asking for ``interval=0`` cannot turn the
#: admin stream into a busy-loop saturating the event loop.
MIN_WATCH_INTERVAL = 0.05

#: How many accepted idempotency keys the server remembers (process-wide).
#: A retried submission whose key is still indexed re-attaches to the
#: original job; keys older than the newest this many decay — at which
#: point a retry re-executes, which is safe for run/sweep/sample requests
#: (pure functions of their payload) and caught at the session for appends.
IDEMPOTENCY_KEYS_CAP = 1024


class Server:
    """The persistent simulation service.

    Parameters: listen on ``host`` / ``port`` (``port=0`` picks a free
    one; :attr:`address` reports it after :meth:`start`) or on a
    ``unix_path`` socket; ``queue_depth`` bounds the job backlog;
    ``workers`` sizes the simulation thread pool; ``default_limits``
    applies to requests that carry no budgets of their own; ``cache`` /
    ``session_pool`` default to fresh process-wide instances and may be
    shared with an embedding process.

    ``checkpoint_dir`` makes sessions **survive restarts**: after every
    committed append the session's warm state is snapshotted (atomically,
    checksummed — :mod:`repro.snapshot`) under
    ``<checkpoint_dir>/sessions/<session_id>.ckpt``, and :meth:`start`
    rehydrates every valid snapshot it finds — the restored session keeps
    its pre-restart id and its very next append resumes from the restored
    warm state.  A stale or corrupt snapshot is counted
    (``snapshot_sessions_skipped``) and skipped, never fatal; closing a
    session removes its snapshot, so a clean shutdown leaks nothing.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 unix_path: Optional[str] = None, *,
                 queue_depth: int = 32, workers: int = 2,
                 max_sessions: int = 32,
                 default_limits: Optional[ResourceLimits] = None,
                 cache: Optional[ResultCache] = None,
                 session_pool: Optional[SessionPool] = None,
                 counters: Optional[PerfCounters] = None,
                 checkpoint_dir: Union[str, os.PathLike, None] = None):
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.checkpoint_dir = (None if checkpoint_dir is None
                               else os.fspath(checkpoint_dir))
        self._session_ckpt_dir = (
            None if self.checkpoint_dir is None
            else os.path.join(self.checkpoint_dir, "sessions"))
        self._last_checkpoint_at: Optional[float] = None
        self.default_limits = default_limits or ResourceLimits()
        self.counters = counters if counters is not None else PerfCounters()
        self.cache = cache if cache is not None else ResultCache()
        self.session_pool = (session_pool if session_pool is not None
                             else SessionPool(max_sessions=max_sessions))
        self.scheduler = JobScheduler(max_depth=queue_depth, workers=workers,
                                      counters=self.counters)
        self.sessions = SessionRegistry(max_sessions=max_sessions)
        self._server: Optional[asyncio.AbstractServer] = None
        self._started_at = 0.0
        #: Degradation state: ``"ok"`` → ``"draining"`` (reported by the
        #: ``health`` verb and the stats snapshot).
        self._state = "ok"
        # Accepted idempotency keys → their Job.  Touched only from the
        # event-loop thread (submission and delivery both run there), so
        # no lock is needed.
        self._idempotency: "OrderedDict[str, Any]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> Union[Tuple[str, int], str]:
        """Where the server listens: ``(host, port)`` for TCP (the real
        port, after ``port=0`` resolution) or the unix socket path."""
        if self.unix_path is not None:
            return self.unix_path
        if self._server is not None and self._server.sockets:
            name = self._server.sockets[0].getsockname()
            return (name[0], name[1])
        return (self.host, self.port)

    async def start(self) -> None:
        """Start the worker pool, rehydrate checkpointed sessions, and
        begin accepting connections."""
        self.scheduler.start()
        self._started_at = time.perf_counter()
        self._restore_sessions()
        if self.unix_path is not None:
            # A stale socket file (previous process crashed before its
            # cleanup ran) would fail the bind; nothing is listening on it
            # or the unlink below is about to make that obvious.
            self._remove_unix_socket()
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.unix_path)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port)

    async def serve_forever(self) -> None:
        """Block serving connections until cancelled (used by ``main``)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections, cancel queued jobs, join workers,
        and remove the unix socket file (when listening on one)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.scheduler.stop()
        self._remove_unix_socket()

    async def drain(self, grace_seconds: float = 10.0) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight work, exit.

        The sequence — close the listener, switch the scheduler to drain
        mode (new submissions on surviving connections reject with code
        ``draining``), wait up to ``grace_seconds`` for queued and running
        jobs to finish delivering, then stop the pool (anything still
        running past the deadline gets its cancel token set).  Returns
        True when every in-flight job completed inside the grace window.
        ``repro-serve`` runs this on SIGINT/SIGTERM.
        """
        if self._state != "draining":
            self._state = "draining"
            self.counters.add("drain_begun")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.scheduler.begin_drain()
        loop = asyncio.get_running_loop()
        completed = await loop.run_in_executor(
            None, self.scheduler.wait_idle, grace_seconds)
        if not completed:
            self.counters.add("drain_deadline_exceeded")
        # Give already-finished jobs' delivery tasks one loop pass so the
        # terminal replies flush before connections start closing.
        await asyncio.sleep(0)
        # stop() joins the worker threads; past-deadline jobs only notice
        # their cancel token at the next gate boundary, so the join runs on
        # the executor to keep the loop (health, stats, replies) live.
        await loop.run_in_executor(None, self.scheduler.stop)
        self._remove_unix_socket()
        return completed

    def _remove_unix_socket(self) -> None:
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    # session checkpointing
    # ------------------------------------------------------------------ #
    def _session_checkpoint_path(self, session_id: str) -> str:
        return os.path.join(self._session_ckpt_dir, f"{session_id}.ckpt")

    def _checkpoint_session(self, session, cumulative) -> None:
        """Snapshot ``session``'s post-append warm state to disk.

        Runs on the worker thread, under the session lock, right after the
        append committed: the session pool just deposited the cumulative
        circuit's state, so a full-depth lease hands back a private fork
        to serialise (the chain lock it holds keeps the shared manager
        still while :func:`~repro.snapshot.dump_simulator` walks it).  Any
        failure is counted and swallowed — checkpointing degrades, appends
        never fail because of it.
        """
        if self._session_ckpt_dir is None:
            return
        from repro.cache.fingerprint import gate_tokens
        from repro.snapshot import dump_simulator

        tokens = tuple(gate_tokens(cumulative))
        lease = self.session_pool.match(session.num_qubits, tokens, None)
        if lease is None or lease.depth != len(tokens):
            # No full-depth warm state to serialise (non-snapshot engine,
            # pool eviction, or a busy chain) — skip, don't block.
            if lease is not None:
                lease.release()
            self.counters.add("snapshot_session_write_skips")
            return
        try:
            os.makedirs(self._session_ckpt_dir, exist_ok=True)
            dump_simulator(
                lease.fork, self._session_checkpoint_path(session.session_id),
                extra={"session_id": session.session_id,
                       "engine": session.engine,
                       "num_qubits": session.num_qubits,
                       "appends": session.appends,
                       "circuit": protocol.circuit_to_wire(cumulative),
                       "limits": protocol.limits_to_wire(session.limits)})
        except Exception:  # noqa: BLE001 - degradation, never append failure
            self.counters.add("snapshot_session_write_failures")
        else:
            self.counters.add("snapshot_session_writes")
            self._last_checkpoint_at = time.perf_counter()
        finally:
            lease.release()

    def _restore_sessions(self) -> None:
        """Rehydrate every valid session snapshot in the checkpoint dir.

        Each file restores to a registered session under its pre-restart
        id with its warm state deposited back into the pool, so the first
        post-restart append resumes instead of replaying from ``|0>``.
        Torn, corrupt or inconsistent files — and ids that no longer fit
        the registry — are counted as ``snapshot_sessions_skipped`` and
        left on disk for inspection; rehydration is never fatal.
        """
        if self._session_ckpt_dir is None:
            return
        from repro.cache.fingerprint import gate_tokens
        from repro.snapshot import SnapshotCorruptError, load_simulator

        os.makedirs(self._session_ckpt_dir, exist_ok=True)
        for name in sorted(os.listdir(self._session_ckpt_dir)):
            if not name.endswith(".ckpt"):
                continue
            path = os.path.join(self._session_ckpt_dir, name)
            try:
                simulator, extra = load_simulator(path)
                session_id = extra["session_id"]
                num_qubits = int(extra["num_qubits"])
                circuit = protocol.circuit_from_wire(extra["circuit"])
                if not isinstance(session_id, str):
                    raise ValueError("non-string session id")
                if name != f"{session_id}.ckpt":
                    raise ValueError("session checkpoint filename mismatch")
                if (circuit.num_qubits != num_qubits
                        or simulator.state.num_qubits != num_qubits):
                    raise ValueError("checkpointed session shape mismatch")
                limits = protocol.limits_from_wire(extra.get("limits"))
            except (SnapshotCorruptError, ProtocolError, KeyError,
                    TypeError, ValueError, OSError):
                self.counters.add("snapshot_sessions_skipped")
                continue
            session = self.sessions.adopt_restored(
                session_id, num_qubits, str(extra.get("engine", "bitslice")),
                limits or self.default_limits, circuit,
                int(extra.get("appends", 0)))
            if session is None:
                self.counters.add("snapshot_sessions_skipped")
                continue
            manager = simulator.state.manager
            self.session_pool.deposit(
                num_qubits, tuple(gate_tokens(circuit)), None, simulator,
                lambda m=manager: m.cache_generation)
            self.counters.add("snapshot_sessions_restored")

    def _discard_session_checkpoint(self, session_id: str) -> None:
        if self._session_ckpt_dir is None:
            return
        try:
            os.remove(self._session_checkpoint_path(session_id))
        except OSError:
            pass

    def _checkpoint_gauges(self) -> Dict[str, Any]:
        """The health/stats checkpoint gauges (zeros when checkpointing is
        off, so the surface shape is stable)."""
        files = 0
        if self._session_ckpt_dir is not None:
            try:
                files = sum(1 for name in os.listdir(self._session_ckpt_dir)
                            if name.endswith(".ckpt"))
            except OSError:
                files = 0
        age = (-1.0 if self._last_checkpoint_at is None
               else time.perf_counter() - self._last_checkpoint_at)
        restored = int(self.counters.snapshot().get(
            "snapshot_sessions_restored", 0))
        return {"checkpointed_sessions": files,
                "restored_sessions": restored,
                "checkpoint_age_seconds": age}

    # ------------------------------------------------------------------ #
    # admin snapshot
    # ------------------------------------------------------------------ #
    def stats_snapshot(self) -> Dict[str, Any]:
        """One admin-surface snapshot: queue gauges, live sessions, uptime
        and the merged counter bag (``service_*`` + the pool's
        ``prefix_*`` + the result cache's ``result_cache_*`` series)."""
        snapshot: Dict[str, Any] = dict(self.scheduler.stats())
        snapshot["state"] = self._state
        snapshot["live_sessions"] = len(self.sessions)
        snapshot["uptime_seconds"] = time.perf_counter() - self._started_at
        snapshot.update(self._checkpoint_gauges())
        counters = PerfCounters(self.counters.snapshot())
        counters.update(self.session_pool.stats())
        counters.update(self.cache.stats())
        snapshot["counters"] = counters.snapshot()
        return snapshot

    def _health_reply(self) -> HealthReply:
        """The ``health`` probe: state plus the liveness gauges, no
        counter bag (cheap enough for a tight load-balancer poll)."""
        stats = self.scheduler.stats()
        gauges = self._checkpoint_gauges()
        return HealthReply(
            state=self._state,
            queue_depth=stats["queue_depth"],
            queue_capacity=stats["queue_capacity"],
            running=stats["running"],
            workers=stats["workers"],
            workers_alive=self.scheduler.alive_workers(),
            sessions=len(self.sessions),
            uptime_seconds=time.perf_counter() - self._started_at,
            checkpointed_sessions=gauges["checkpointed_sessions"],
            restored_sessions=gauges["restored_sessions"],
            checkpoint_age_seconds=gauges["checkpoint_age_seconds"])

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn_jobs: Dict[str, Any] = {}
        deliver_tasks: set = set()
        send_lock = asyncio.Lock()

        async def send(message: Message, reply_to: Optional[str]) -> None:
            async with send_lock:
                maybe_fire(FAULT_SERVER_SEND)
                writer.write(encode_message(message, in_reply_to=reply_to))
                await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                msg_id = None
                try:
                    request, envelope = protocol.decode_request(line)
                    msg_id = envelope.get("id")
                    self.counters.add("service_requests_total")
                    self.counters.add(f"service_requests_{request.kind}")
                    await self._dispatch(request, msg_id, send, conn_jobs,
                                         deliver_tasks)
                except (ProtocolError, UnknownEngineError, ValueError) as exc:
                    # The one refusal of a malformed request, before anything
                    # is queued: a line that does not decode (answered to the
                    # id it carried), or a job whose RunRequest, query or
                    # session width is refused at dispatch.
                    if msg_id is None:
                        msg_id = getattr(exc, "msg_id", None)
                    await send(ErrorReply(getattr(exc, "code", "bad_request"),
                                          str(exc)), msg_id)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # server shutting down; fall through to the cleanup below
        finally:
            for task in deliver_tasks:
                task.cancel()
            for job_id, job in conn_jobs.items():
                if not job.future.done():
                    outcome = self.scheduler.cancel(job_id)
                    if outcome in ("cancelled", "cancelling"):
                        self.counters.add("service_disconnect_cancels")
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    def _track(self, deliver_tasks: set, coroutine) -> None:
        task = asyncio.ensure_future(coroutine)
        deliver_tasks.add(task)
        task.add_done_callback(deliver_tasks.discard)

    def _replayable_job(self, key: Optional[str]):
        """The indexed job for an idempotency key, provided it was not
        cancelled — a cancelled original never committed anything, so the
        retry must execute for real (at-least-once there, exactly-once
        everywhere else)."""
        if key is None:
            return None
        job = self._idempotency.get(key)
        if job is None:
            return None
        if (job.state == JOB_CANCELLED or job.cancel_event.is_set()
                or job.future.cancelled()):
            del self._idempotency[key]
            return None
        return job

    async def _submit(self, fn, request: Message, msg_id: Optional[str],
                      send, conn_jobs: Dict[str, Any], deliver_tasks: set,
                      build_reply) -> None:
        """Queue a job and arrange its two-phase reply (accepted + result);
        a full queue replies with the structured ``queue_full`` error, a
        draining server with ``draining``.  A request re-carrying an
        already-accepted idempotency key re-attaches to the original job
        instead of executing again."""
        key = getattr(request, "idempotency_key", None)
        existing = self._replayable_job(key)
        if existing is not None:
            self.counters.add("service_idempotent_replays")
            conn_jobs[existing.job_id] = existing
            await send(JobAccepted(existing.job_id), msg_id)
            self._track(deliver_tasks,
                        self._deliver(existing, msg_id, send, build_reply,
                                      conn_jobs))
            return
        priority = getattr(request, "priority", 0)
        try:
            job = self.scheduler.submit(fn, request_kind=request.kind,
                                        priority=priority)
        except QueueFullError as exc:
            await send(ErrorReply("queue_full", str(exc),
                                  {"depth": exc.depth,
                                   "capacity": exc.capacity}), msg_id)
            return
        except DrainingError as exc:
            await send(ErrorReply("draining", str(exc)), msg_id)
            return
        if key is not None:
            self._idempotency[key] = job
            while len(self._idempotency) > IDEMPOTENCY_KEYS_CAP:
                self._idempotency.popitem(last=False)
        conn_jobs[job.job_id] = job
        await send(JobAccepted(job.job_id), msg_id)
        self._track(deliver_tasks,
                    self._deliver(job, msg_id, send, build_reply, conn_jobs))

    async def _deliver(self, job, msg_id: Optional[str], send,
                       build_reply, conn_jobs: Dict[str, Any]) -> None:
        try:
            try:
                value = await asyncio.wrap_future(job.future)
            except asyncio.CancelledError:
                raise
            except JobCancelledError as exc:
                reply = ErrorReply("cancelled", str(exc),
                                   {"job_id": job.job_id})
            except Exception as exc:  # noqa: BLE001 - failures become replies
                reply = ErrorReply("internal",
                                   f"{type(exc).__name__}: {exc}",
                                   {"job_id": job.job_id})
            else:
                reply = build_reply(job.job_id, value)
            try:
                await send(reply, msg_id)
            except (ConnectionResetError, BrokenPipeError, OSError):
                # The client vanished between completion and delivery; the
                # result is simply undeliverable on this connection (a
                # retry with the same idempotency key can still fetch it).
                self.counters.add("service_reply_drops")
        finally:
            # Delivered (or abandoned) jobs must not accumulate on a
            # long-lived connection: the Job retains its closure and
            # result via the future.
            conn_jobs.pop(job.job_id, None)

    # ------------------------------------------------------------------ #
    # request dispatch
    # ------------------------------------------------------------------ #
    async def _dispatch(self, request: Message, msg_id: Optional[str],
                        send, conn_jobs: Dict[str, Any],
                        deliver_tasks: set) -> None:
        # Every job's options are validated by building its RunRequest(s)
        # here; a ValueError or UnknownEngineError is the client's
        # bad_request, answered by _handle_connection before anything runs.
        if isinstance(request, SubmitRun):
            job = RunRequest(request.circuit, request.engine,
                             request.limits or self.default_limits,
                             request.shots, request.seed, request.reorder)
            await self._submit(self._run_fn(job), request, msg_id, send,
                               conn_jobs, deliver_tasks,
                               lambda job_id, result:
                               RunCompleted(job_id, result))
        elif isinstance(request, SubmitSweep):
            limits = request.limits or self.default_limits
            for engine, circuit in request.tasks:
                RunRequest(circuit, engine, limits, request.shots,
                           request.seed, request.reorder)
            await self._submit(self._sweep_fn(request, limits), request,
                               msg_id, send, conn_jobs, deliver_tasks,
                               lambda job_id, results:
                               SweepCompleted(job_id, results))
        elif isinstance(request, QueryProbability):
            job = RunRequest(request.circuit, request.engine,
                             request.limits or self.default_limits)
            try:
                check_outcome_query(request.circuit.num_qubits,
                                    request.qubits, request.values)
            except (TypeError, ValueError) as exc:
                raise ProtocolError(f"bad probability query: {exc}") from exc
            await self._submit(self._probability_fn(job, request), request,
                               msg_id, send, conn_jobs, deliver_tasks,
                               lambda job_id, value:
                               ProbabilityReply(job_id, value[0], value[1]))
        elif isinstance(request, OpenSession):
            # The empty-circuit run that pins the session's |0> state.
            pin = RunRequest(QuantumCircuit(request.num_qubits),
                             request.engine,
                             request.limits or self.default_limits)
            await self._open_session(pin, msg_id, send)
        elif isinstance(request, AppendToSession):
            session = self.sessions.get(request.session_id)
            if session is None:
                await send(ErrorReply("unknown_session",
                                      f"no session {request.session_id!r}"),
                           msg_id)
                return
            if request.circuit is None:
                raise ValueError("append_to_session needs a circuit")
            delta = RunRequest(request.circuit, session.engine,
                               session.limits, request.shots, request.seed)
            session.check_width(delta.circuit)
            await self._append_to_session(session, delta, request, msg_id,
                                          send, conn_jobs, deliver_tasks)
        elif isinstance(request, CloseSession):
            session = self.sessions.close(request.session_id)
            if session is None:
                await send(ErrorReply("unknown_session",
                                      f"no session {request.session_id!r}"),
                           msg_id)
            else:
                self.counters.add("service_session_closes")
                # A closed session must not rehydrate after a restart.
                self._discard_session_checkpoint(session.session_id)
                await send(SessionClosed(session.session_id,
                                         session.appends), msg_id)
        elif isinstance(request, ServerStatsRequest):
            await send(StatsReply(self.stats_snapshot()), msg_id)
        elif isinstance(request, ListSessions):
            await send(SessionList(self.sessions.summaries()), msg_id)
        elif isinstance(request, HealthRequest):
            await send(self._health_reply(), msg_id)
        elif isinstance(request, CancelJob):
            outcome = self.scheduler.cancel(request.job_id)
            await send(CancelReply(request.job_id, outcome), msg_id)
        elif isinstance(request, WatchRequest):
            self._track(deliver_tasks,
                        self._watch(request, msg_id, send))
        else:  # pragma: no cover - registry and dispatch kept in lockstep
            raise ProtocolError(f"unhandled request kind {request.kind!r}")

    # -- job builders --------------------------------------------------- #
    def _run_fn(self, job: RunRequest):
        def fn(cancel):
            return run(job.circuit, engine=job.engine, limits=job.limits,
                       shots=job.shots, seed=job.seed, reorder=job.reorder,
                       cache=self.cache, sessions=self.session_pool,
                       cancel=cancel)
        return fn

    def _sweep_fn(self, request: SubmitSweep, limits: ResourceLimits):
        def fn(cancel):
            return run_tasks(request.tasks, limits=limits, jobs=1,
                             shots=request.shots, seed=request.seed,
                             reorder=request.reorder, cache=self.cache,
                             sessions=self.session_pool, cancel=cancel)
        return fn

    def _probability_fn(self, job: RunRequest, request: QueryProbability):
        def fn(cancel):
            instance = create_engine(job.resolved)
            enforcer = LimitEnforcer(instance, job.limits, cancel_token=cancel)
            enforcer.execute(job.circuit)
            return (instance.probability(list(request.qubits),
                                         list(request.values)), job.resolved)
        return fn

    # -- sessions -------------------------------------------------------- #
    async def _open_session(self, pin: RunRequest,
                            msg_id: Optional[str], send) -> None:
        try:
            session = self.sessions.open(pin.circuit.num_qubits, pin.engine,
                                         pin.limits)
        except SessionLimitError as exc:
            await send(ErrorReply("too_many_sessions", str(exc),
                                  {"limit": exc.limit}), msg_id)
            return
        # Pin the |0> (empty-prefix) state into the warm pool, so the
        # session's very first append already resumes instead of preparing
        # a fresh engine.  The pin is simulation work, so it goes through
        # the bounded scheduler (low priority) like any other job — never
        # the default executor, which would sidestep the queue_depth
        # backpressure contract.  It is only an optimisation: when the
        # queue is full (or the pin fails) the session still opens and its
        # first append simply starts cold.
        try:
            job = self.scheduler.submit(self._pin_fn(session, pin),
                                        request_kind="session_pin",
                                        priority=-1)
        except (QueueFullError, DrainingError, RuntimeError):
            self.counters.add("service_session_pin_skips")
        else:
            try:
                await asyncio.wrap_future(job.future)
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - pin failure is non-fatal
                self.counters.add("service_session_pin_skips")
        self.counters.add("service_session_opens")
        await send(SessionOpened(session.session_id, session.engine,
                                 session.num_qubits), msg_id)

    def _pin_fn(self, session, pin: RunRequest):
        def fn(cancel):
            with session.lock:
                run(pin.circuit, engine=pin.engine, limits=pin.limits,
                    sessions=self.session_pool, cache=None, cancel=cancel)
        return fn

    async def _append_to_session(self, session, delta: RunRequest,
                                 request: AppendToSession,
                                 msg_id: Optional[str], send,
                                 conn_jobs: Dict[str, Any],
                                 deliver_tasks: set) -> None:
        # The cumulative snapshot must happen on the worker, under the
        # session lock: with two appends in flight on one session, a
        # snapshot taken here at dispatch time would give both the same
        # base and the later commit would drop the earlier append's gates.
        def fn(cancel):
            with session.lock:
                if cancel.is_set():
                    raise JobCancelledError("cancelled before session append")
                # The at-most-once guard: a retried append whose original
                # already advanced the session replays the recorded result
                # instead of appending the delta a second time.  Checked
                # under the lock, before any state moves.
                replayed = session.replay(request.idempotency_key)
                if replayed is not None:
                    self.counters.add("service_append_replays")
                    return replayed
                maybe_fire(FAULT_SESSION_APPEND)
                cumulative = session.extended(delta.circuit)
                result = run(cumulative, engine=delta.engine,
                             limits=delta.limits, shots=delta.shots,
                             seed=delta.seed, sessions=self.session_pool,
                             cancel=cancel)
                self.counters.add("service_session_appends")
                resumed = result.extra.get("resumed_from_depth")
                if resumed is not None:
                    self.counters.add("service_session_resume_hits")
                    self.counters.add("service_session_gates_saved", resumed)
                if result.status == STATUS_OK:
                    session.advance(cumulative, result.status)
                    session.remember(request.idempotency_key, result)
                    # Crash-safety: persist the committed state while the
                    # session lock still covers it, so a SIGKILL after this
                    # append restarts into a server that serves this very
                    # session warm.
                    self._checkpoint_session(session, cumulative)
                return result
        await self._submit(fn, request, msg_id, send, conn_jobs,
                           deliver_tasks,
                           lambda job_id, result:
                           RunCompleted(job_id, result))

    # -- watch ----------------------------------------------------------- #
    async def _watch(self, request: WatchRequest, msg_id: Optional[str],
                     send) -> None:
        interval = max(MIN_WATCH_INTERVAL, float(request.interval))
        count = request.count
        sent = 0
        while count is None or sent < count:
            try:
                await send(StatsReply(self.stats_snapshot()), msg_id)
            except (ConnectionResetError, BrokenPipeError):
                return
            self.counters.add("service_watch_frames")
            sent += 1
            if count is not None and sent >= count:
                return
            await asyncio.sleep(interval)


class BackgroundServer:
    """A :class:`Server` running on its own event-loop thread.

    Returned by :func:`serve_background`; use :attr:`address` to connect a
    client and :meth:`stop` (or the context manager form) to shut the
    thread down.  Tests and benchmarks embed the real server this way
    instead of mocking the wire.
    """

    def __init__(self, server: Server, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def address(self) -> Union[Tuple[str, int], str]:
        """The listening address (see :attr:`Server.address`)."""
        return self.server.address

    def drain(self, grace_seconds: float = 10.0) -> bool:
        """Run :meth:`Server.drain` on the loop thread and block for its
        outcome — the in-process twin of sending ``repro-serve`` a
        SIGTERM.  Call :meth:`stop` afterwards to join the thread."""
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(grace_seconds), self._loop)
        return future.result(timeout=grace_seconds + 30)

    def stop(self) -> None:
        """Stop the server and join its loop thread (idempotent)."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)

    def __enter__(self) -> "BackgroundServer":
        """Context-manager entry: the server is already listening."""
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Context-manager exit: stop the server thread."""
        self.stop()


def serve_background(**kwargs) -> BackgroundServer:
    """Start a :class:`Server` on a daemon thread and return its handle
    once it is listening (kwargs pass through to :class:`Server`; the
    default ``port=0`` picks a free port, read it from ``.address``)."""
    server = Server(**kwargs)
    ready = threading.Event()
    failure: List[BaseException] = []
    loop_holder: Dict[str, asyncio.AbstractEventLoop] = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        loop_holder["loop"] = loop
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            failure.append(exc)
            # start() can fail after side effects landed — scheduler
            # threads running, a unix socket file created by a bind that
            # then errored.  stop() undoes both (it tolerates a listener
            # that never registered), so a failed startup leaks neither a
            # socket path that would break the next bind nor worker
            # threads.
            try:
                loop.run_until_complete(server.stop())
            except BaseException:  # noqa: BLE001 - best-effort cleanup
                pass
            ready.set()
            loop.close()
            return
        ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(server.stop())
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            loop.close()

    thread = threading.Thread(target=runner, name="repro-serve",
                              daemon=True)
    thread.start()
    ready.wait()
    if failure:
        raise failure[0]
    return BackgroundServer(server, loop_holder["loop"], thread)


def main(argv: Optional[List[str]] = None) -> int:
    """``repro-serve``: run the simulation server until interrupted."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Persistent simulation server speaking newline-delimited "
                    "JSON (see docs/service.md).")
    parser.add_argument("--host", default="127.0.0.1",
                        help="TCP listen host (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7621,
                        help="TCP listen port (default 7621; 0 picks a "
                             "free port)")
    parser.add_argument("--unix", default=None, metavar="PATH",
                        help="listen on a unix-domain socket instead of TCP")
    parser.add_argument("--queue-depth", type=int, default=32,
                        help="bounded job-queue depth (default 32)")
    parser.add_argument("--workers", type=int, default=2,
                        help="simulation worker threads (default 2)")
    parser.add_argument("--time-limit", type=float, default=60.0,
                        help="default per-job wall-clock budget in seconds")
    parser.add_argument("--node-limit", type=int, default=500_000,
                        help="default per-job node budget")
    parser.add_argument("--drain-grace", type=float, default=10.0,
                        help="seconds a SIGINT/SIGTERM drain waits for "
                             "in-flight jobs before exiting (default 10)")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="persist session snapshots here; a restarted "
                             "server rehydrates them (see "
                             "docs/checkpointing.md)")
    args = parser.parse_args(argv)
    server = Server(host=args.host, port=args.port, unix_path=args.unix,
                    queue_depth=args.queue_depth, workers=args.workers,
                    default_limits=ResourceLimits(
                        max_seconds=args.time_limit,
                        max_nodes=args.node_limit),
                    checkpoint_dir=args.checkpoint_dir)

    async def _serve() -> None:
        await server.start()
        print(f"repro-serve listening on {server.address}", flush=True)
        loop = asyncio.get_running_loop()
        shutdown = loop.create_future()

        def _request_drain() -> None:
            if not shutdown.done():
                shutdown.set_result(None)

        # SIGTERM (what systemd sends on stop) and SIGINT (^C) both drain:
        # finish in-flight jobs under the grace deadline, then exit 0.
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, _request_drain)
            except (NotImplementedError, RuntimeError):
                pass  # platform without loop signal support
        serve_task = asyncio.ensure_future(server.serve_forever())
        await asyncio.wait({serve_task, shutdown},
                           return_when=asyncio.FIRST_COMPLETED)
        if shutdown.done():
            print("repro-serve draining "
                  f"(grace {args.drain_grace:g}s)", flush=True)
            completed = await server.drain(args.drain_grace)
            if not completed:
                print("repro-serve drain deadline exceeded; "
                      "cancelling remaining jobs", flush=True)
        serve_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await serve_task
        await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    finally:
        # Every exit path — drain, crash, KeyboardInterrupt fallback on
        # platforms without loop signal handlers — leaves no stale socket.
        if args.unix is not None:
            try:
                os.unlink(args.unix)
            except OSError:
                pass
    return 0


__all__ = ["BackgroundServer", "Server", "main", "serve_background"]


if __name__ == "__main__":  # pragma: no cover - console entry
    sys.exit(main())
