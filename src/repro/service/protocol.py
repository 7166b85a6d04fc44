"""Typed wire protocol of the simulation service.

Messages travel as **newline-delimited JSON** (one object per line) over a
TCP or unix-domain stream.  Every line is an *envelope*::

    {"kind": "submit_run", "v": 2, "id": "c1", ...payload...}

``kind`` names the message type, ``v`` pins :data:`PROTOCOL_VERSION` (a
mismatch is rejected before any payload parsing), ``id`` is the sender's
correlation token and responses echo it back as ``in_reply_to``.  The
payload fields are flattened into the envelope; they never collide with
the reserved keys.

Each message kind is a dataclass below — requests in
:data:`REQUEST_TYPES`, responses in :data:`RESPONSE_TYPES`.  Its fields
are its payload: JSON-native fields travel as they are (and must decode
to their annotated type), and the value-level codecs declared on the
other fields (:func:`circuit_to_wire`, :func:`result_to_wire`,
:func:`limits_to_wire`) translate the repository's first-class objects
(:class:`~repro.circuit.circuit.QuantumCircuit`,
:class:`~repro.engines.result.RunResult`,
:class:`~repro.engines.limits.ResourceLimits`) to and from plain JSON.
The result codec carries every *raw* field of the run record, so a client
reconstructs a :class:`RunResult` whose deterministic serialisation
(``to_dict(timings=False)``) is byte-identical to the server-side one —
the wire adds no lossy re-encoding step.

Asynchronous request kinds (``submit_run``, ``submit_sweep``,
``query_probability``, ``append_to_session``) are answered twice: a
:class:`JobAccepted` immediately (carrying the server's job id, usable
with :class:`CancelJob`), then the terminal result / :class:`ErrorReply`
when the job finishes.  Synchronous kinds (session management, stats,
cancellation) are answered once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import (Any, Callable, ClassVar, Dict, List, Optional, Tuple, Type,
                    Union, get_args, get_origin, get_type_hints)

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import Gate, GateKind
from repro.engines.limits import ResourceLimits
from repro.engines.result import RunResult
from repro.exceptions import SimulationError

#: Version tag carried by every envelope; a peer speaking another version
#: is rejected with a ``version_mismatch`` error before payload parsing.
#: Version 2 dropped the ``sample_shots`` kind (a ``submit_run`` with
#: ``shots`` asks the same question).
PROTOCOL_VERSION = 2


class ProtocolError(SimulationError):
    """A malformed, unknown-kind or version-incompatible wire message.

    ``code`` is the error reply's code: ``bad_request``, or
    ``version_mismatch`` for a peer speaking another protocol version."""

    #: The ``id`` of the envelope that failed to decode, when the line was
    #: a JSON object carrying one, so the error reply can answer it.
    msg_id: Optional[str] = None

    def __init__(self, message: str, code: str = "bad_request"):
        super().__init__(message)
        self.code = code


# --------------------------------------------------------------------- #
# value codecs
# --------------------------------------------------------------------- #
def limits_to_wire(limits: Optional[ResourceLimits]) -> Optional[Dict[str, Any]]:
    """:class:`ResourceLimits` as a plain dict (``None`` passes through)."""
    if limits is None:
        return None
    return {"max_seconds": limits.max_seconds,
            "max_nodes": limits.max_nodes,
            "max_dense_qubits": limits.max_dense_qubits}


def limits_from_wire(data: Optional[Dict[str, Any]]) -> Optional[ResourceLimits]:
    """Rebuild :class:`ResourceLimits` from :func:`limits_to_wire` output."""
    if data is None:
        return None
    try:
        return ResourceLimits(
            max_seconds=data.get("max_seconds"),
            max_nodes=data.get("max_nodes"),
            max_dense_qubits=data.get("max_dense_qubits", 24))
    except (TypeError, AttributeError) as exc:
        raise ProtocolError(f"bad limits payload: {exc}") from exc


def circuit_to_wire(circuit: QuantumCircuit) -> Dict[str, Any]:
    """A :class:`QuantumCircuit` as a plain dict: register width, name, the
    ordered gate stream (kind / targets / controls / clbits / condition)
    and the terminal measurement markers."""
    gates = []
    for gate in circuit.gates:
        entry: Dict[str, Any] = {"kind": gate.kind.value,
                                 "targets": list(gate.targets)}
        if gate.controls:
            entry["controls"] = list(gate.controls)
        if gate.clbits:
            entry["clbits"] = list(gate.clbits)
        if gate.condition is not None:
            entry["condition"] = gate.condition
        gates.append(entry)
    return {"num_qubits": circuit.num_qubits,
            "name": circuit.name,
            "gates": gates,
            "measure": [[qubit, clbit]
                        for qubit, clbit in circuit.final_measurement_map()],
            "num_clbits": circuit.num_clbits}


def _wire_int(value: Any) -> int:
    """An integer of a circuit payload outside its gates (which
    :class:`Gate` checks): ``int()`` would read ``2.5`` as 2 and ``true`` as
    1, so anything but an integer raises ``ValueError``."""
    if value.__class__ is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def circuit_from_wire(data: Dict[str, Any]) -> QuantumCircuit:
    """Rebuild a :class:`QuantumCircuit` from :func:`circuit_to_wire` output
    (gate validation runs again on this side, so a hand-crafted payload
    cannot smuggle an ill-formed gate past the IR's invariants)."""
    try:
        circuit = QuantumCircuit(_wire_int(data["num_qubits"]),
                                 name=str(data.get("name", "")))
        for entry in data.get("gates", ()):
            circuit.append(Gate(GateKind(entry["kind"]),
                                tuple(entry["targets"]),
                                tuple(entry.get("controls", ())),
                                tuple(entry.get("clbits", ())),
                                entry.get("condition")))
        for qubit, clbit in data.get("measure", ()):
            circuit.measure(_wire_int(qubit), _wire_int(clbit))
        circuit.num_clbits = max(circuit.num_clbits,
                                 _wire_int(data.get("num_clbits", 0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad circuit payload: {exc}") from exc
    return circuit


def result_to_wire(result: RunResult) -> Dict[str, Any]:
    """A :class:`RunResult` as a plain dict carrying every raw field —
    delegates to :meth:`RunResult.to_wire` (the canonical codec, shared
    with the sweep journal)."""
    return result.to_wire()


def result_from_wire(data: Dict[str, Any]) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`result_to_wire` output; the
    reconstruction round-trips ``to_dict(timings=False)`` byte-identically."""
    try:
        return RunResult.from_wire(data)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def _results_to_wire(results: List[RunResult]) -> List[Dict[str, Any]]:
    return [result_to_wire(result) for result in results]


def _results_from_wire(data: List[Dict[str, Any]]) -> List[RunResult]:
    return [result_from_wire(entry) for entry in data]


def _tasks_to_wire(tasks: List[Tuple[str, QuantumCircuit]]) -> List[Dict[str, Any]]:
    return [{"engine": engine, "circuit": circuit_to_wire(circuit)}
            for engine, circuit in tasks]


def _tasks_from_wire(data: List[Dict[str, Any]]) -> List[Tuple[str, QuantumCircuit]]:
    try:
        return [(entry["engine"], circuit_from_wire(entry["circuit"]))
                for entry in data]
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"bad task list payload: {exc}") from exc


# Field codecs: the metadata a dataclass field declares when its value is a
# first-class object, naming the (encode, decode) pair that translates it.
# Fields without a codec are JSON-native and travel as they are.
Codec = Tuple[Callable[[Any], Any], Callable[[Any], Any]]
_CIRCUIT = {"codec": (circuit_to_wire, circuit_from_wire)}
_LIMITS = {"codec": (limits_to_wire, limits_from_wire)}
_RESULT = {"codec": (result_to_wire, result_from_wire)}
_RESULTS = {"codec": (_results_to_wire, _results_from_wire)}
_TASKS = {"codec": (_tasks_to_wire, _tasks_from_wire)}


def _json_types(hint: Any) -> Tuple[type, ...]:
    """The JSON value types a field annotated ``hint`` accepts on decode
    (``NoneType`` among them when the field is ``Optional``)."""
    args = get_args(hint) if get_origin(hint) is Union else (hint,)
    types: List[type] = []
    for arg in args:
        arg = get_origin(arg) or arg
        types.extend((int, float) if arg is float else (arg,))
    return tuple(types)


def _item_types(hint: Any) -> Optional[Tuple[type, ...]]:
    """The JSON types each element of a ``List[X]`` field accepts
    (``None`` for a field of any other annotation)."""
    return _json_types(get_args(hint)[0]) if get_origin(hint) is list else None


def _check_json_type(cls: type, what: str, value: Any,
                     types: Tuple[type, ...]) -> None:
    """Raise :class:`ProtocolError` unless ``value`` is one of ``types``.
    A JSON boolean is a Python int, so it passes only where ``types``
    names ``bool``."""
    if not isinstance(value, types) or (
            value.__class__ is bool and bool not in types):
        raise ProtocolError(
            f"bad {cls.kind} payload: {what} must be "
            f"{' or '.join(t.__name__ for t in types)}, "
            f"not {type(value).__name__}")


@lru_cache(maxsize=None)
def _wire_fields(cls: type) -> Tuple[Tuple[str, Optional[Codec],
                                           Tuple[type, ...],
                                           Optional[Tuple[type, ...]]], ...]:
    """Each payload field of a message class, in declaration order, with
    its codec (``None`` for JSON-native fields), the JSON types a
    JSON-native field accepts (read off its annotation) and, for a
    ``List[X]`` field, the types each element accepts (else ``None``)."""
    hints = get_type_hints(cls)
    return tuple((f.name, f.metadata.get("codec"), _json_types(hints[f.name]),
                  _item_types(hints[f.name]))
                 for f in fields(cls))


# --------------------------------------------------------------------- #
# message base
# --------------------------------------------------------------------- #
@dataclass
class Message:
    """Base of every wire message: a ``kind`` tag plus dataclass fields
    that are the payload.

    Subclasses are plain dataclasses.  A field whose value is a
    first-class object declares its codec in its metadata
    (``_CIRCUIT`` / ``_LIMITS`` / ``_RESULT`` / ``_RESULTS`` / ``_TASKS``);
    every other field is JSON-native and travels as it is."""

    kind: ClassVar[str] = ""

    def payload(self) -> Dict[str, Any]:
        """Encode the message's fields into a JSON-ready payload dict
        (``None``-valued optional fields are omitted from the wire)."""
        data: Dict[str, Any] = {}
        for name, codec, _, _ in _wire_fields(type(self)):
            value = getattr(self, name)
            if value is not None:
                data[name] = value if codec is None else codec[0](value)
        return data

    @classmethod
    def from_payload(cls, data: Dict[str, Any]) -> "Message":
        """Rebuild a message of this kind from a decoded envelope dict
        (unknown keys are ignored, missing optional fields keep their
        defaults; a missing required field, or a JSON-native field whose
        value is not of its annotated type, raises :class:`ProtocolError`;
        a boolean passes only where the annotation names ``bool``, in a
        ``List[X]`` field's elements too)."""
        kwargs = {}
        for name, codec, types, item_types in _wire_fields(cls):
            if name in data:
                value = data[name]
                if codec is not None:
                    value = None if value is None else codec[1](value)
                else:
                    _check_json_type(cls, name, value, types)
                    for item in value if item_types else ():
                        _check_json_type(cls, f"{name} elements", item,
                                         item_types)
                kwargs[name] = value
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad {cls.kind} payload: {exc}") from exc


# --------------------------------------------------------------------- #
# requests
# --------------------------------------------------------------------- #
@dataclass
class SubmitRun(Message):
    """Run one circuit on one engine asynchronously; answered by
    :class:`JobAccepted` and then :class:`RunCompleted`."""

    circuit: QuantumCircuit = field(metadata=_CIRCUIT)
    engine: str = "auto"
    limits: Optional[ResourceLimits] = field(default=None, metadata=_LIMITS)
    shots: Optional[int] = None
    seed: Optional[int] = None
    reorder: Optional[Union[bool, int]] = None
    priority: int = 0
    #: Client-generated token making retried submissions safe: a resend
    #: carrying a key the server has already accepted is answered with the
    #: *original* job instead of executing again (all submit-style requests
    #: carry this optional field; absent = no dedup).
    idempotency_key: Optional[str] = None

    kind: ClassVar[str] = "submit_run"


@dataclass
class SubmitSweep(Message):
    """Run an explicit (engine, circuit) task list as **one job**, executed
    serially server-side with per-task seeds derived exactly as in
    :func:`repro.engines.frontdoor.run_tasks` — so the returned results are
    byte-identical to a local ``run_sweep()`` of the same grid.  Answered
    by :class:`JobAccepted` and then :class:`SweepCompleted`."""

    tasks: List[Tuple[str, QuantumCircuit]] = field(metadata=_TASKS)
    limits: Optional[ResourceLimits] = field(default=None, metadata=_LIMITS)
    shots: Optional[int] = None
    seed: Optional[int] = None
    reorder: Optional[Union[bool, int]] = None
    priority: int = 0
    idempotency_key: Optional[str] = None

    kind: ClassVar[str] = "submit_sweep"


@dataclass
class QueryProbability(Message):
    """Execute a circuit and answer one joint-outcome probability query
    (``P(qubits = values)``); answered by :class:`JobAccepted` and then
    :class:`ProbabilityReply`."""

    circuit: QuantumCircuit = field(metadata=_CIRCUIT)
    qubits: List[int] = field(default_factory=list)
    values: List[int] = field(default_factory=list)
    engine: str = "auto"
    limits: Optional[ResourceLimits] = field(default=None, metadata=_LIMITS)
    priority: int = 0
    idempotency_key: Optional[str] = None

    kind: ClassVar[str] = "query_probability"


@dataclass
class OpenSession(Message):
    """Open a long-lived session pinning warm engine state for incremental
    :class:`AppendToSession` calls; answered by :class:`SessionOpened`."""

    num_qubits: int = 1
    engine: str = "bitslice"
    limits: Optional[ResourceLimits] = field(default=None, metadata=_LIMITS)

    kind: ClassVar[str] = "open_session"


@dataclass
class AppendToSession(Message):
    """Extend a session's cumulative circuit by a delta circuit and run it —
    resuming from the retained prefix state rather than replaying from
    ``|0>``; answered by :class:`JobAccepted` then :class:`RunCompleted`."""

    session_id: str = ""
    circuit: Optional[QuantumCircuit] = field(default=None,
                                              metadata=_CIRCUIT)
    shots: Optional[int] = None
    seed: Optional[int] = None
    priority: int = 0
    #: Dedup token checked *at the session* (under its lock), so a retried
    #: append after a dropped reply replays the recorded result instead of
    #: advancing the cumulative circuit twice.
    idempotency_key: Optional[str] = None

    kind: ClassVar[str] = "append_to_session"


@dataclass
class CloseSession(Message):
    """Close a session, releasing its registry slot (the pool-retained
    prefix states stay subject to the pool's own LRU bound); answered by
    :class:`SessionClosed`."""

    session_id: str = ""

    kind: ClassVar[str] = "close_session"


@dataclass
class ServerStatsRequest(Message):
    """Request one admin-surface snapshot (queue gauges, live sessions, the
    merged ``service_*`` / ``prefix_*`` / ``result_cache_*`` counters);
    answered by :class:`StatsReply`."""

    kind: ClassVar[str] = "server_stats"


@dataclass
class ListSessions(Message):
    """Request the live-session summaries; answered by :class:`SessionList`."""

    kind: ClassVar[str] = "list_sessions"


@dataclass
class HealthRequest(Message):
    """Liveness/degradation probe; answered by :class:`HealthReply`.

    Cheaper and more focused than :class:`ServerStatsRequest` — no counter
    bag, just the gauges a load balancer or drain script needs — and
    answered even while the server is draining."""

    kind: ClassVar[str] = "health"


@dataclass
class CancelJob(Message):
    """Cancel a queued or running job by the id :class:`JobAccepted`
    reported; answered by :class:`CancelReply`."""

    job_id: str = ""

    kind: ClassVar[str] = "cancel_job"


@dataclass
class WatchRequest(Message):
    """Stream :class:`StatsReply` frames every ``interval`` seconds,
    ``count`` times (``None`` = until the connection closes)."""

    interval: float = 1.0
    count: Optional[int] = None

    kind: ClassVar[str] = "watch"


# --------------------------------------------------------------------- #
# responses
# --------------------------------------------------------------------- #
@dataclass
class JobAccepted(Message):
    """A job entered the queue; ``job_id`` names it for :class:`CancelJob`.
    The terminal reply follows on the same connection when it finishes."""

    job_id: str = ""

    kind: ClassVar[str] = "job_accepted"


@dataclass
class RunCompleted(Message):
    """Terminal reply of a single-circuit job: the full run record."""

    job_id: str = ""
    result: Optional[RunResult] = field(default=None, metadata=_RESULT)

    kind: ClassVar[str] = "run_result"


@dataclass
class SweepCompleted(Message):
    """Terminal reply of a sweep job: one run record per task, in task
    order."""

    job_id: str = ""
    results: List[RunResult] = field(default_factory=list,
                                     metadata=_RESULTS)

    kind: ClassVar[str] = "sweep_result"


@dataclass
class ProbabilityReply(Message):
    """Terminal reply of a :class:`QueryProbability` job."""

    job_id: str = ""
    probability: float = 0.0
    engine: str = ""

    kind: ClassVar[str] = "probability"


@dataclass
class SessionOpened(Message):
    """A session is live (its ``|0>`` state is pinned in the warm pool)."""

    session_id: str = ""
    engine: str = ""
    num_qubits: int = 0

    kind: ClassVar[str] = "session_opened"


@dataclass
class SessionClosed(Message):
    """A session was closed after ``appends`` successful appends."""

    session_id: str = ""
    appends: int = 0

    kind: ClassVar[str] = "session_closed"


@dataclass
class StatsReply(Message):
    """One admin snapshot: queue gauges, session count, uptime and the
    merged counter bag (see ``docs/perf-counters.md``)."""

    stats: Dict[str, Any] = field(default_factory=dict)

    kind: ClassVar[str] = "stats"


@dataclass
class SessionList(Message):
    """Live-session summaries (id, engine, width, cumulative gate count,
    append count, idle seconds)."""

    sessions: List[Dict[str, Any]] = field(default_factory=list)

    kind: ClassVar[str] = "session_list"


@dataclass
class HealthReply(Message):
    """Degradation snapshot: ``state`` (``"ok"`` or ``"draining"``), queue
    depth/capacity, running-job and worker-liveness gauges, live session
    count and uptime.  ``workers_alive < workers`` marks a degraded pool
    (possible only if worker-crash isolation itself failed).

    The checkpoint gauges (all defaulted, so the wire stays compatible
    with peers predating them): ``checkpointed_sessions`` counts session
    snapshot files currently on disk, ``restored_sessions`` how many this
    process rehydrated at startup, and ``checkpoint_age_seconds`` the time
    since the last snapshot write (``-1`` when this process has not
    written one — including when checkpointing is off)."""

    state: str = "ok"
    queue_depth: int = 0
    queue_capacity: int = 0
    running: int = 0
    workers: int = 0
    workers_alive: int = 0
    sessions: int = 0
    uptime_seconds: float = 0.0
    checkpointed_sessions: int = 0
    restored_sessions: int = 0
    checkpoint_age_seconds: float = -1.0

    kind: ClassVar[str] = "health_reply"


@dataclass
class CancelReply(Message):
    """Outcome of a :class:`CancelJob`: ``cancelled`` (was queued, never
    ran), ``cancelling`` (running; stops at the next gate boundary),
    ``finished`` (already done) or ``unknown``."""

    job_id: str = ""
    outcome: str = "unknown"

    kind: ClassVar[str] = "cancel_result"


@dataclass
class ErrorReply(Message):
    """Structured failure reply.  ``code`` is machine-readable
    (``queue_full``, ``draining``, ``unknown_session``,
    ``too_many_sessions``, ``bad_request``, ``version_mismatch``,
    ``cancelled``, ``internal``; clients synthesise ``connection_lost``
    locally when the transport drops); ``details`` carries code-specific
    context such as queue depth."""

    code: str = "internal"
    message: str = ""
    details: Dict[str, Any] = field(default_factory=dict)

    kind: ClassVar[str] = "error"


def _registry(*classes: Type[Message]) -> Dict[str, Type[Message]]:
    return {cls.kind: cls for cls in classes}


#: Request kinds the server accepts, keyed by ``kind`` tag.
REQUEST_TYPES: Dict[str, Type[Message]] = _registry(
    SubmitRun, SubmitSweep, QueryProbability, OpenSession,
    AppendToSession, CloseSession, ServerStatsRequest, ListSessions,
    HealthRequest, CancelJob, WatchRequest)

#: Response kinds a client may receive, keyed by ``kind`` tag.
RESPONSE_TYPES: Dict[str, Type[Message]] = _registry(
    JobAccepted, RunCompleted, SweepCompleted, ProbabilityReply,
    SessionOpened, SessionClosed, StatsReply, SessionList, HealthReply,
    CancelReply, ErrorReply)


# --------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------- #
def encode_message(message: Message, msg_id: Optional[str] = None,
                   in_reply_to: Optional[str] = None) -> bytes:
    """One wire line: the envelope (kind, version, correlation ids) with the
    message payload flattened in, JSON-encoded, newline-terminated."""
    envelope: Dict[str, Any] = {"kind": message.kind, "v": PROTOCOL_VERSION}
    if msg_id is not None:
        envelope["id"] = msg_id
    if in_reply_to is not None:
        envelope["in_reply_to"] = in_reply_to
    envelope.update(message.payload())
    return json.dumps(envelope, separators=(",", ":")).encode("utf-8") + b"\n"


def _decode_line(line: bytes,
                 registry: Dict[str, Type[Message]]) -> Tuple[Message, Dict[str, Any]]:
    try:
        data = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable message line: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError("message line is not a JSON object")
    try:
        version = data.get("v")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol version {version!r} "
                f"(this peer speaks {PROTOCOL_VERSION})", "version_mismatch")
        kind = data.get("kind")
        cls = registry.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ProtocolError(f"unknown message kind {kind!r}")
        return cls.from_payload(data), data
    except ProtocolError as exc:
        exc.msg_id = data.get("id")
        raise


def decode_request(line: bytes) -> Tuple[Message, Dict[str, Any]]:
    """Parse one request line into its typed message plus the raw envelope
    (the envelope keeps ``id`` for correlating the reply)."""
    return _decode_line(line, REQUEST_TYPES)


def decode_response(line: bytes) -> Tuple[Message, Dict[str, Any]]:
    """Parse one response line into its typed message plus the raw envelope
    (the envelope keeps ``in_reply_to`` for demultiplexing)."""
    return _decode_line(line, RESPONSE_TYPES)


__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Message",
    "SubmitRun",
    "SubmitSweep",
    "QueryProbability",
    "OpenSession",
    "AppendToSession",
    "CloseSession",
    "ServerStatsRequest",
    "ListSessions",
    "HealthRequest",
    "CancelJob",
    "WatchRequest",
    "JobAccepted",
    "RunCompleted",
    "SweepCompleted",
    "ProbabilityReply",
    "SessionOpened",
    "SessionClosed",
    "StatsReply",
    "SessionList",
    "HealthReply",
    "CancelReply",
    "ErrorReply",
    "REQUEST_TYPES",
    "RESPONSE_TYPES",
    "encode_message",
    "decode_request",
    "decode_response",
    "circuit_to_wire",
    "circuit_from_wire",
    "result_to_wire",
    "result_from_wire",
    "limits_to_wire",
    "limits_from_wire",
]
