"""Synchronous and asyncio clients for the simulation service.

Both clients speak the newline-delimited JSON protocol of
:mod:`repro.service.protocol` and expose the same verbs the in-process
front door does — :meth:`Client.run` mirrors :func:`repro.run`,
:meth:`Client.run_tasks` mirrors :func:`repro.engines.frontdoor.run_tasks`
(signature-compatible, so the harness can swap one for the other) — plus
the service-only verbs: sessions, job submission/cancellation, stats,
health and, on the sync client only, the live ``watch`` stream.  Each
verb is written once, in a layer both clients share: it states its
request, the replies it accepts, how its answer is read off the final
reply and whether it may be resent; a client supplies only the round
trip (blocking on :class:`Client`, a coroutine on :class:`AsyncClient`).

Replies demultiplex by ``in_reply_to``: a client may have several requests
in flight and each blocking call reads lines until *its* terminal reply
arrives, parking replies destined for other calls.  ``error`` replies
raise :class:`ServiceError` carrying the structured code (``queue_full``,
``unknown_session``, ``cancelled``, ...) so callers branch on ``exc.code``
rather than parsing prose.

Resilience semantics:

* **Transport failures are normalised**: a server disappearing
  mid-roundtrip always surfaces as ``ServiceError(code="connection_lost")``
  — never a bare ``ConnectionResetError`` / ``BrokenPipeError`` /
  ``asyncio.IncompleteReadError`` — so callers and
  :class:`~repro.resilience.retry.RetryPolicy` classify one code instead
  of a zoo of exception types.  (A configured socket ``timeout`` still
  raises ``TimeoutError`` as before: a slow server is not a dead one.)
* **Optional retry**: construct with ``retry=RetryPolicy(...)`` and the
  idempotent verbs (``run`` / ``run_tasks`` / ``sample`` /
  ``query_probability`` / ``submit`` / ``append`` plus the read-only admin
  verbs) transparently reconnect and resend on retryable codes.  Every
  submission carries a client-generated **idempotency key**, and a resend
  reuses the *same* key, so a retried submission whose original was
  already accepted re-attaches to the original job instead of
  double-executing (session appends are additionally replay-guarded at
  the session, under its lock).
* ``open_session`` / ``close_session`` are **never auto-retried**: their
  replay semantics are not idempotent (a second open is a second session),
  so a lost reply there must surface to the caller.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import uuid
from dataclasses import asdict
from operator import attrgetter
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple, Type, Union)

from repro.circuit.circuit import QuantumCircuit
from repro.engines.limits import ResourceLimits
from repro.engines.result import RunResult
from repro.exceptions import SimulationError
from repro.resilience.faults import FAULT_CLIENT_RECV, FAULT_CLIENT_SEND, maybe_fire
from repro.resilience.retry import RetryPolicy
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
    decode_response,
    encode_message,
)

Address = Union[str, Tuple[str, int]]


class ServiceError(SimulationError):
    """A structured ``error`` reply from the server (or a locally
    synthesised transport failure).

    ``code`` is the machine-readable discriminator (``queue_full``,
    ``draining``, ``unknown_session``, ``too_many_sessions``,
    ``bad_request``, ``version_mismatch``, ``cancelled``, ``internal``,
    and the client-side ``connection_lost``); ``details`` carries
    code-specific context (e.g. queue ``depth`` / ``capacity``).
    """

    def __init__(self, code: str, message: str,
                 details: Optional[Dict[str, Any]] = None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.details = details or {}


def parse_address(address: Address) -> Tuple[Optional[str],
                                             Optional[Tuple[str, int]]]:
    """Normalise a service address.

    Accepts ``(host, port)`` tuples, ``"host:port"`` strings and
    ``"unix:/path/to.sock"`` strings; returns ``(unix_path, tcp_pair)``
    with exactly one of the two set.
    """
    if isinstance(address, tuple):
        return None, (str(address[0]), int(address[1]))
    text = str(address)
    if text.startswith("unix:"):
        return text[len("unix:"):], None
    if text.count(":") >= 1:
        host, _, port = text.rpartition(":")
        try:
            return None, (host or "127.0.0.1", int(port))
        except ValueError as exc:
            raise ValueError(f"bad service address {address!r}") from exc
    raise ValueError(f"bad service address {address!r} "
                     "(want host:port, (host, port) or unix:/path)")


def new_idempotency_key() -> str:
    """A fresh client-generated idempotency key (random UUID hex — unique
    across clients, connections and restarts without coordination)."""
    return uuid.uuid4().hex


class _ReplyRouter:
    """Shared demultiplexing state: replies parked per request id."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._pending: Dict[str, List[Message]] = {}

    def next_id(self) -> str:
        return f"c{next(self._ids)}"

    def park(self, msg_id: Optional[str], message: Message) -> None:
        if msg_id is not None:
            self._pending.setdefault(msg_id, []).append(message)

    def take(self, msg_id: str) -> Optional[Message]:
        parked = self._pending.get(msg_id)
        if parked:
            message = parked.pop(0)
            if not parked:
                del self._pending[msg_id]
            return message
        return None

    def drop_pending(self) -> None:
        """Forget parked replies (they belonged to a dead connection; the
        ids keep counting, so post-reconnect correlation stays unique)."""
        self._pending.clear()


def _accept(message: Message, accept: Tuple[Type[Message], ...],
            intermediate: Tuple[Type[Message], ...]) -> Optional[str]:
    """Classify a routed reply: ``"final"``, ``"skip"`` or raise."""
    if isinstance(message, ErrorReply):
        raise ServiceError(message.code, message.message, message.details)
    if isinstance(message, accept):
        return "final"
    if isinstance(message, intermediate):
        return "skip"
    raise ServiceError("protocol",
                       f"unexpected reply kind {message.kind!r}")


class _Call(NamedTuple):
    """One verb's round trip: the request, the reply kinds that end it,
    how the answer is read off the final reply, the reply kinds skipped
    on the way, and whether a retry policy may resend it."""

    request: Message
    accept: Tuple[Type[Message], ...]
    answer: Callable[[Message], Any]
    intermediate: Tuple[Type[Message], ...] = ()
    retry: bool = True


def _job(request: Message, reply: Type[Message],
         answer: Callable[[Message], Any]) -> _Call:
    """A job verb's round trip: ``job_accepted`` first, then ``reply``."""
    return _Call(request, (reply,), answer, (JobAccepted,))


_result = attrgetter("result")


class _ServiceVerbs:
    """The service verbs, each stated once for both clients.

    A verb builds its :class:`_Call` and hands it to ``_call``, which each
    client supplies: :class:`Client` makes a blocking round trip and
    returns the answer, :class:`AsyncClient` returns a coroutine that
    resolves to it.  Job submissions carry a fresh idempotency key that
    every resend of the same call reuses; ``open_session`` and
    ``close_session`` are never resent (see the module docstring).
    """

    _retry: Optional[RetryPolicy]

    def _call(self, call: _Call) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def _teardown(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _lost(self, reason: str,
              exc: Optional[BaseException] = None) -> ServiceError:
        self._teardown()
        error = ServiceError("connection_lost", reason)
        if exc is not None:
            error.__cause__ = exc
        return error

    # ------------------------------------------------------------------ #
    # front-door mirrors
    # ------------------------------------------------------------------ #
    def run(self, circuit: QuantumCircuit, engine: str = "auto",
            limits: Optional[ResourceLimits] = None,
            shots: Optional[int] = None, seed: Optional[int] = None,
            reorder: Optional[int] = None,
            priority: int = 0) -> RunResult:
        """Run one circuit on the server and answer its run record once it
        arrives (mirrors :func:`repro.run`)."""
        return self._call(_job(
            SubmitRun(circuit, engine=engine, limits=limits, shots=shots,
                      seed=seed, reorder=reorder, priority=priority,
                      idempotency_key=new_idempotency_key()),
            RunCompleted, _result))

    def run_tasks(self, tasks: Sequence[Tuple[str, QuantumCircuit]],
                  limits: Optional[ResourceLimits] = None, jobs: int = 1,
                  shots: Optional[int] = None, seed: Optional[int] = None,
                  reorder: Optional[int] = None,
                  priority: int = 0) -> List[RunResult]:
        """Run an (engine, circuit) task list as one sweep job; results come
        back in task order, byte-identical to a local serial
        :func:`repro.engines.frontdoor.run_tasks` of the same list.

        ``jobs`` is accepted for signature compatibility with the local
        front door (so the harness can swap runners) but ignored: the
        server always executes a sweep serially inside one job, which is
        what guarantees the byte-identity."""
        del jobs
        return self._call(_job(
            SubmitSweep(list(tasks), limits=limits, shots=shots, seed=seed,
                        reorder=reorder, priority=priority,
                        idempotency_key=new_idempotency_key()),
            SweepCompleted, attrgetter("results")))

    def sample(self, circuit: QuantumCircuit, shots: int,
               engine: str = "auto",
               limits: Optional[ResourceLimits] = None,
               seed: Optional[int] = None,
               priority: int = 0) -> RunResult:
        """Sample ``shots`` measurement shots; the run record carries the
        counts histogram (a :meth:`run` with ``shots``)."""
        return self.run(circuit, engine=engine, limits=limits, shots=shots,
                        seed=seed, priority=priority)

    def query_probability(self, circuit: QuantumCircuit,
                          qubits: Sequence[int], values: Sequence[int],
                          engine: str = "auto",
                          limits: Optional[ResourceLimits] = None,
                          priority: int = 0) -> float:
        """Joint probability ``P(qubits = values)`` after running the
        circuit server-side."""
        return self._call(_job(
            QueryProbability(circuit, qubits=list(qubits),
                             values=list(values), engine=engine,
                             limits=limits, priority=priority,
                             idempotency_key=new_idempotency_key()),
            ProbabilityReply, attrgetter("probability")))

    # ------------------------------------------------------------------ #
    # job control
    # ------------------------------------------------------------------ #
    def submit(self, circuit: QuantumCircuit, engine: str = "auto",
               limits: Optional[ResourceLimits] = None,
               shots: Optional[int] = None, seed: Optional[int] = None,
               reorder: Optional[int] = None, priority: int = 0) -> str:
        """Fire-and-return submission: wait only for ``job_accepted`` and
        answer the job id (the terminal reply is read later by whichever
        call drains the connection, or discarded at close).  A retried
        submit reuses its idempotency key, so the job never
        double-executes."""
        return self._call(_Call(
            SubmitRun(circuit, engine=engine, limits=limits, shots=shots,
                      seed=seed, reorder=reorder, priority=priority,
                      idempotency_key=new_idempotency_key()),
            (JobAccepted,), attrgetter("job_id")))

    def cancel(self, job_id: str) -> str:
        """Cancel a job by id; answers the server's outcome string
        (``cancelled`` / ``cancelling`` / ``finished`` / ``unknown``)."""
        return self._call(_Call(CancelJob(job_id), (CancelReply,),
                                attrgetter("outcome")))

    # ------------------------------------------------------------------ #
    # sessions
    # ------------------------------------------------------------------ #
    def open_session(self, num_qubits: int, engine: str = "bitslice",
                     limits: Optional[ResourceLimits] = None) -> str:
        """Open a warm session; answers its id.  Never auto-retried — a
        lost reply could mean the session *did* open, and a blind resend
        would open (and leak) a second one."""
        return self._call(_Call(OpenSession(num_qubits=num_qubits,
                                            engine=engine, limits=limits),
                                (SessionOpened,), attrgetter("session_id"),
                                retry=False))

    def append(self, session_id: str, circuit: QuantumCircuit,
               shots: Optional[int] = None, seed: Optional[int] = None,
               priority: int = 0) -> RunResult:
        """Append a delta circuit to a session and run it, resuming from
        the session's retained prefix state; answers the run record of the
        cumulative circuit.  Retries are safe: the idempotency key is
        checked at the session under its lock, so a retried append whose
        original committed replays the recorded result instead of
        advancing the session twice."""
        return self._call(_job(
            AppendToSession(session_id, circuit, shots=shots, seed=seed,
                            priority=priority,
                            idempotency_key=new_idempotency_key()),
            RunCompleted, _result))

    def close_session(self, session_id: str) -> int:
        """Close a session; answers how many appends it served.  Never
        auto-retried (the first close frees the id; a resend would report
        ``unknown_session`` and mask the real outcome)."""
        return self._call(_Call(CloseSession(session_id), (SessionClosed,),
                                attrgetter("appends"), retry=False))

    # ------------------------------------------------------------------ #
    # admin
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """One admin snapshot (queue gauges, sessions, merged counters)."""
        return self._call(_Call(ServerStatsRequest(), (StatsReply,),
                                attrgetter("stats")))

    def sessions(self) -> List[Dict[str, Any]]:
        """Live-session summaries."""
        return self._call(_Call(ListSessions(), (SessionList,),
                                attrgetter("sessions")))

    def health(self) -> Dict[str, Any]:
        """The server's degradation snapshot: ``state`` (``ok`` /
        ``draining``), queue depth and capacity, running jobs, worker
        liveness, live sessions, uptime and the session-checkpoint gauges
        (on-disk snapshots, sessions restored at startup, seconds since
        the last snapshot write — ``-1`` when none), keyed by the
        :class:`~repro.service.protocol.HealthReply` field names."""
        return self._call(_Call(HealthRequest(), (HealthReply,), asdict))


class Client(_ServiceVerbs):
    """Blocking socket client for the simulation service.

    Connect with an address accepted by :func:`parse_address`; use as a
    context manager to close the socket deterministically.  Every verb
    blocks until its answer arrives; ``timeout`` (seconds) bounds each
    socket read.  Pass ``retry`` (a
    :class:`~repro.resilience.retry.RetryPolicy`) to make the idempotent
    verbs reconnect and resend on transient failures; without it every
    failure surfaces on the first attempt (but transport errors are still
    normalised to ``connection_lost``).
    """

    def __init__(self, address: Address, timeout: Optional[float] = 60.0,
                 retry: Optional[RetryPolicy] = None):
        self.address = address
        self._timeout = timeout
        self._retry = retry
        self._router = _ReplyRouter()
        self._socket: Optional[socket.socket] = None
        self._reader = None
        self._connect()

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def _connect(self) -> None:
        unix_path, tcp = parse_address(self.address)
        if unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self._timeout)
            sock.connect(unix_path)
        else:
            sock = socket.create_connection(tcp, timeout=self._timeout)
        self._socket = sock
        self._reader = sock.makefile("rb")

    def _teardown(self) -> None:
        """Drop a dead connection: close both ends, forget parked replies.
        The next call dials fresh."""
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError:
                pass
            self._socket = None
        self._router.drop_pending()

    def close(self) -> None:
        """Close the connection (outstanding server-side jobs of this
        connection are cancelled by the server's disconnect handling)."""
        self._teardown()

    def __enter__(self) -> "Client":
        """Context-manager entry."""
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Context-manager exit: close the connection."""
        self.close()

    def _send(self, message: Message) -> str:
        msg_id = self._router.next_id()
        try:
            maybe_fire(FAULT_CLIENT_SEND)
            self._socket.sendall(encode_message(message, msg_id=msg_id))
        except socket.timeout:
            raise  # a slow server is not a dead one
        except (ConnectionError, OSError) as exc:
            raise self._lost(f"send failed: {exc}", exc) from exc
        return msg_id

    def _read_reply(self) -> Tuple[Message, Optional[str]]:
        try:
            maybe_fire(FAULT_CLIENT_RECV)
            line = self._reader.readline()
        except socket.timeout:
            raise
        except (ConnectionError, OSError) as exc:
            raise self._lost(f"read failed: {exc}", exc) from exc
        if not line:
            raise self._lost("server closed the connection")
        message, envelope = decode_response(line)
        return message, envelope.get("in_reply_to")

    def _wait(self, msg_id: str, accept: Tuple[Type[Message], ...],
              intermediate: Tuple[Type[Message], ...] = ()) -> Message:
        while True:
            message = self._router.take(msg_id)
            if message is None:
                message, reply_to = self._read_reply()
                if reply_to != msg_id:
                    self._router.park(reply_to, message)
                    continue
            verdict = _accept(message, accept, intermediate)
            if verdict == "final":
                return message

    def _call(self, call: _Call) -> Any:
        """One round trip, resent under the retry policy (when configured
        and the verb allows it) with the *same* request — same idempotency
        key — after reconnecting if the previous attempt tore the
        connection down."""
        def attempt() -> Any:
            if self._socket is None:
                self._connect()
            reply = self._wait(self._send(call.request), call.accept,
                               call.intermediate)
            return call.answer(reply)
        if self._retry is None or not call.retry:
            return attempt()
        return self._retry.call(attempt)

    def watch(self, interval: float = 1.0,
              count: Optional[int] = None) -> Iterator[Dict[str, Any]]:
        """Yield stats snapshots streamed by the server every ``interval``
        seconds, ``count`` times (``None`` streams until the caller stops
        iterating and closes the connection).  Not retried: a stream has
        no idempotent resend semantics — re-issue ``watch`` after a
        ``connection_lost`` to resume."""
        msg_id = self._send(WatchRequest(interval=interval, count=count))
        produced = 0
        while count is None or produced < count:
            message = self._wait(msg_id, accept=(StatsReply,))
            produced += 1
            yield message.stats


class AsyncClient(_ServiceVerbs):
    """Asyncio client for the simulation service: :class:`Client`'s verbs
    except ``watch``, each returning a coroutine.

    Create via :meth:`connect` (optionally passing ``retry=``);
    concurrent coroutines may issue requests on one connection — replies
    demultiplex by ``in_reply_to`` under a reader lock.  Transport
    failures normalise to ``ServiceError(code="connection_lost")`` exactly
    like the sync client; with a retry policy the idempotent verbs
    reconnect and resend (same idempotency key) on retryable codes.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 address: Optional[Address] = None,
                 retry: Optional[RetryPolicy] = None):
        self._stream_reader: Optional[asyncio.StreamReader] = reader
        self._writer: Optional[asyncio.StreamWriter] = writer
        self._address = address
        self._retry = retry
        self._router = _ReplyRouter()
        self._read_lock = asyncio.Lock()
        self._reply_ready = asyncio.Condition()

    @classmethod
    async def connect(cls, address: Address,
                      retry: Optional[RetryPolicy] = None) -> "AsyncClient":
        """Open a connection to ``address`` (see :func:`parse_address`)."""
        reader, writer = await cls._open(address)
        return cls(reader, writer, address=address, retry=retry)

    @staticmethod
    async def _open(address: Address) -> Tuple[asyncio.StreamReader,
                                               asyncio.StreamWriter]:
        unix_path, tcp = parse_address(address)
        if unix_path is not None:
            return await asyncio.open_unix_connection(unix_path)
        return await asyncio.open_connection(tcp[0], tcp[1])

    def _teardown(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
            except RuntimeError:
                pass  # loop already closed
            self._writer = None
        self._stream_reader = None
        self._router.drop_pending()

    async def _ensure_connected(self) -> None:
        if self._writer is None:
            if self._address is None:
                raise ServiceError(
                    "connection_lost",
                    "connection closed and no address to reconnect "
                    "(create the client via AsyncClient.connect)")
            reader, writer = await self._open(self._address)
            self._stream_reader = reader
            self._writer = writer

    async def close(self) -> None:
        """Close the connection."""
        writer = self._writer
        self._teardown()
        if writer is not None:
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def __aenter__(self) -> "AsyncClient":
        """Async context-manager entry."""
        return self

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        """Async context-manager exit: close the connection."""
        await self.close()

    async def _send(self, message: Message) -> str:
        msg_id = self._router.next_id()
        try:
            maybe_fire(FAULT_CLIENT_SEND)
            self._writer.write(encode_message(message, msg_id=msg_id))
            await self._writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
            raise self._lost(f"send failed: {exc}", exc) from exc
        return msg_id

    async def _wait(self, msg_id: str, accept: Tuple[Type[Message], ...],
                    intermediate: Tuple[Type[Message], ...] = ()) -> Message:
        while True:
            message = self._router.take(msg_id)
            if message is None:
                if self._read_lock.locked():
                    # Another coroutine is reading; wait for it to park
                    # something, then re-check our mailbox.
                    async with self._reply_ready:
                        try:
                            await asyncio.wait_for(self._reply_ready.wait(),
                                                   0.5)
                        except asyncio.TimeoutError:
                            pass
                    continue
                if self._stream_reader is None:
                    raise ServiceError("connection_lost",
                                       "connection is closed")
                try:
                    async with self._read_lock:
                        maybe_fire(FAULT_CLIENT_RECV)
                        line = await self._stream_reader.readline()
                except (ConnectionError, asyncio.IncompleteReadError,
                        OSError) as exc:
                    raise self._lost(f"read failed: {exc}", exc) from exc
                if not line:
                    raise self._lost("server closed the connection")
                message, envelope = decode_response(line)
                reply_to = envelope.get("in_reply_to")
                if reply_to != msg_id:
                    self._router.park(reply_to, message)
                    async with self._reply_ready:
                        self._reply_ready.notify_all()
                    continue
            verdict = _accept(message, accept, intermediate)
            if verdict == "final":
                return message

    async def _call(self, call: _Call) -> Any:
        """The coroutine twin of :meth:`Client._call`."""
        async def attempt() -> Any:
            await self._ensure_connected()
            reply = await self._wait(await self._send(call.request),
                                     call.accept, call.intermediate)
            return call.answer(reply)
        if self._retry is None or not call.retry:
            return await attempt()
        return await self._retry.async_call(attempt)


def make_runner(client: Client) -> Callable:
    """Adapt a :class:`Client` into a drop-in ``run_tasks`` replacement
    for harness experiments (``harness --server ADDR`` uses this)."""
    return client.run_tasks


__all__ = ["Address", "AsyncClient", "Client", "ServiceError",
           "make_runner", "new_idempotency_key", "parse_address"]
