"""Lockstep pins for the service's single-source verbs and wire fields.

Each request kind, wire field and client verb is written once; these
tests fail when one of them is added on one side only:

* every request kind in ``REQUEST_TYPES`` reaches a dispatch branch of a
  live server;
* every request and response class round-trips through the wire with a
  non-default value in every field;
* ``AsyncClient`` offers every ``Client`` verb except ``watch``, with the
  same signature, and answers the same on one server.
"""

from __future__ import annotations

import asyncio
import dataclasses
import inspect
import json

import pytest

import repro
from repro import Client, QuantumCircuit, ResourceLimits
from repro.service import AsyncClient, serve_background
from repro.service.protocol import (
    REQUEST_TYPES,
    RESPONSE_TYPES,
    AppendToSession,
    CancelJob,
    CancelReply,
    CloseSession,
    ErrorReply,
    HealthReply,
    HealthRequest,
    JobAccepted,
    ListSessions,
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
    decode_request,
    decode_response,
    encode_message,
)

BELL = QuantumCircuit(2, name="bell").h(0).cx(0, 1).measure_all()
LIMITS = ResourceLimits(max_seconds=30.0, max_nodes=10_000,
                        max_dense_qubits=12)


def _requests():
    """One request of every kind, each field off its default."""
    return [
        SubmitRun(BELL, engine="bitslice", limits=LIMITS, shots=8, seed=3,
                  reorder=1, priority=2, idempotency_key="k-run"),
        SubmitSweep([("bitslice", BELL), ("qmdd", BELL)], limits=LIMITS,
                    shots=8, seed=3, reorder=1, priority=2,
                    idempotency_key="k-sweep"),
        QueryProbability(BELL, qubits=[0, 1], values=[1, 1], engine="qmdd",
                         limits=LIMITS, priority=2,
                         idempotency_key="k-query"),
        OpenSession(num_qubits=2, engine="qmdd", limits=LIMITS),
        AppendToSession("s-none", BELL, shots=8, seed=3, priority=2,
                        idempotency_key="k-append"),
        CloseSession("s-none"),
        ServerStatsRequest(),
        ListSessions(),
        HealthRequest(),
        CancelJob("j-none"),
        WatchRequest(interval=0.25, count=1),
    ]


def _responses():
    """One response of every kind, each field off its default."""
    result = repro.run(BELL, shots=8, seed=3)
    return [
        JobAccepted("j1"),
        RunCompleted("j1", result),
        SweepCompleted("j1", [result, result]),
        ProbabilityReply("j1", 0.25, "qmdd"),
        SessionOpened("s1", "qmdd", 3),
        SessionClosed("s1", 4),
        StatsReply({"queue_depth": 1}),
        SessionList([{"session_id": "s1"}]),
        HealthReply("draining", 1, 2, 3, 4, 5, 6, 7.5, 8, 9, 10.5),
        CancelReply("j1", "cancelled"),
        ErrorReply("queue_full", "full", {"depth": 4}),
    ]


def _default(spec):
    if spec.default is not dataclasses.MISSING:
        return spec.default
    if spec.default_factory is not dataclasses.MISSING:
        return spec.default_factory()
    return dataclasses.MISSING


@pytest.mark.parametrize("registry,samples,decode", [
    (REQUEST_TYPES, _requests, decode_request),
    (RESPONSE_TYPES, _responses, decode_response),
], ids=["requests", "responses"])
def test_every_message_round_trips_every_field(registry, samples, decode):
    messages = samples()
    assert sorted(type(message).kind for message in messages) \
        == sorted(registry)
    for message in messages:
        line = encode_message(message, msg_id="c1")
        decoded, envelope = decode(line)
        assert type(decoded) is type(message)
        payload = message.payload()
        for spec in dataclasses.fields(message):
            value = getattr(message, spec.name)
            assert value is not None and value != _default(spec), (
                f"{message.kind}.{spec.name} is at its default")
            assert spec.name in payload and spec.name in envelope
        # Codec fields compare by their encoding, raw fields by value.
        assert json.loads(json.dumps(decoded.payload())) \
            == json.loads(json.dumps(payload))


@pytest.fixture(scope="module")
def server():
    with serve_background(workers=1, queue_depth=16) as background:
        yield background


def test_every_request_kind_reaches_a_dispatch_branch(server):
    """Each kind is handled: the first reply is its own reply kind or a
    structured error other than ``bad_request`` (which is what the
    dispatcher's fall-through answers)."""
    expected = {"submit_run": "job_accepted", "submit_sweep": "job_accepted",
                "query_probability": "job_accepted",
                "open_session": "session_opened",
                "append_to_session": "error", "close_session": "error",
                "server_stats": "stats", "list_sessions": "session_list",
                "health": "health_reply", "cancel_job": "cancel_result",
                "watch": "stats"}
    assert set(expected) == set(REQUEST_TYPES)
    with Client(server.address) as client:
        for request in _requests():
            msg_id = client._send(request)
            while True:
                reply, reply_to = client._read_reply()
                if reply_to == msg_id:
                    break
            assert reply.kind == expected[request.kind], (request.kind, reply)
            if isinstance(reply, ErrorReply):
                assert reply.code == "unknown_session", (request.kind, reply)


def _verbs(cls):
    return {name for name, member in inspect.getmembers(cls, callable)
            if not name.startswith("_")}


def test_async_client_offers_every_client_verb_but_watch():
    sync_verbs = _verbs(Client)
    async_verbs = _verbs(AsyncClient)
    assert "watch" in sync_verbs and "watch" not in async_verbs
    assert sync_verbs - {"watch"} <= async_verbs
    assert async_verbs - sync_verbs == {"connect"}
    for name in sync_verbs - {"watch", "close"}:
        assert (inspect.signature(getattr(Client, name))
                == inspect.signature(getattr(AsyncClient, name))), name


def test_async_client_answers_like_the_sync_client(server):
    """Both clients send the same verbs to one server and get the same
    answers (run records compared without timings)."""
    circuit = QuantumCircuit(3, name="ghz3").h(0).cx(0, 1).cx(1, 2)
    circuit.measure_all()
    tasks = [("bitslice", circuit), ("qmdd", circuit)]
    delta = QuantumCircuit(3, name="delta").x(2)

    def deterministic(answer):
        if isinstance(answer, list):
            return [deterministic(item) for item in answer]
        if hasattr(answer, "to_dict"):
            return answer.to_dict(timings=False)
        return answer

    def script(call):
        answers = {
            "run": call("run", circuit, engine="bitslice", seed=4),
            "run_tasks": call("run_tasks", tasks, shots=16, seed=4),
            "sample": call("sample", circuit, 32, engine="bitslice", seed=4),
            "query_probability": call("query_probability", circuit,
                                      [0, 2], [1, 1], engine="qmdd"),
            "submit": type(call("submit", circuit, engine="bitslice")),
            "cancel": call("cancel", "j-none"),
        }
        session = call("open_session", 3, engine="bitslice")
        answers["append"] = [call("append", session, circuit),
                             call("append", session, delta, shots=8, seed=1)]
        answers["sessions"] = sorted(
            row["gates"] for row in call("sessions")
            if row["session_id"] == session)
        answers["close_session"] = call("close_session", session)
        answers["stats"] = sorted(call("stats"))
        answers["health"] = sorted(call("health"))
        return {name: deterministic(answer)
                for name, answer in answers.items()}

    with Client(server.address) as client:
        sync_answers = script(lambda name, *args, **kwargs:
                              getattr(client, name)(*args, **kwargs))

    async def run_async():
        client = await AsyncClient.connect(server.address)
        loop = asyncio.get_running_loop()
        try:
            def call(name, *args, **kwargs):
                return asyncio.run_coroutine_threadsafe(
                    getattr(client, name)(*args, **kwargs), loop).result()
            return await loop.run_in_executor(None, script, call)
        finally:
            await client.close()

    async_answers = asyncio.run(run_async())
    assert async_answers == sync_answers
    assert sync_answers["cancel"] == "unknown"
    assert sync_answers["close_session"] == 2
    assert sync_answers["submit"] is str
    verbs = _verbs(Client) - {"watch", "close"}
    assert verbs <= set(sync_answers) | {"open_session"}
