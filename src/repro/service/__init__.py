"""repro.service — the persistent asynchronous simulation server.

The service turns the in-process front door into a long-lived daemon:
clients speak newline-delimited JSON (:mod:`repro.service.protocol`) over
TCP or a unix socket, a bounded priority queue
(:mod:`repro.service.scheduler`) feeds a worker pool so the asyncio loop
never blocks on a BDD apply, and server-side sessions
(:mod:`repro.service.sessions`) attach appends to warm
:class:`~repro.cache.sessions.SessionPool` state so incremental circuit
growth resumes instead of replaying.  :mod:`repro.service.server` hosts
it all (``repro-serve``), :mod:`repro.service.client` provides the sync
and asyncio clients, and :mod:`repro.service.watch` (``repro-watch``) is
the live admin console.
"""

from repro.service.client import (
    AsyncClient,
    Client,
    ServiceError,
    make_runner,
    parse_address,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
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
    decode_request,
    decode_response,
    encode_message,
)
from repro.service.scheduler import (
    DrainingError,
    Job,
    JobScheduler,
    QueueFullError,
)
from repro.service.server import BackgroundServer, Server, serve_background
from repro.service.sessions import (
    ServiceSession,
    SessionLimitError,
    SessionRegistry,
)

__all__ = [
    "PROTOCOL_VERSION",
    "AppendToSession",
    "AsyncClient",
    "BackgroundServer",
    "CancelJob",
    "CancelReply",
    "Client",
    "CloseSession",
    "DrainingError",
    "ErrorReply",
    "HealthReply",
    "HealthRequest",
    "Job",
    "JobAccepted",
    "JobScheduler",
    "ListSessions",
    "Message",
    "OpenSession",
    "ProbabilityReply",
    "ProtocolError",
    "QueryProbability",
    "QueueFullError",
    "RunCompleted",
    "Server",
    "ServerStatsRequest",
    "ServiceError",
    "ServiceSession",
    "SessionClosed",
    "SessionLimitError",
    "SessionList",
    "SessionOpened",
    "SessionRegistry",
    "StatsReply",
    "SubmitRun",
    "SubmitSweep",
    "SweepCompleted",
    "WatchRequest",
    "decode_request",
    "decode_response",
    "encode_message",
    "make_runner",
    "parse_address",
    "serve_background",
]
