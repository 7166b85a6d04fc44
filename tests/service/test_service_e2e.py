"""End-to-end service tests: a real server, real sockets, real traffic.

Every test here starts an actual :func:`repro.serve_background` server and
talks to it over TCP — no mocked transports — covering the acceptance
criteria of the service PR: concurrent wire sweeps byte-identical to local
serial execution, bounded-queue structured rejects, disconnect
cancellation, warm session appends recording prefix hits, and the admin
watch surface.
"""

from __future__ import annotations

import io
import json
import socket
import threading
import time

import pytest

import repro
from repro import Client, QuantumCircuit, ResourceLimits, ServiceError
from repro.engines.frontdoor import run_tasks
from repro.harness.experiments import accuracy_circuit
from repro.service import serve_background
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.server import MIN_WATCH_INTERVAL
from repro.service.watch import format_frame, main as watch_main
from repro.workloads.random_circuits import generate_random_circuit

#: Slow enough (~2 s bit-sliced) to still be running when a cancel or a
#: flood of follow-up submissions arrives.
HEAVY = accuracy_circuit(8, 12)


def _sweep_tasks():
    circuits = [generate_random_circuit(n, seed=90 + n) for n in (4, 5, 6)]
    return [(engine, circuit)
            for circuit in circuits
            for engine in ("bitslice", "qmdd")]


def _deterministic(results):
    return [result.to_dict(timings=False) for result in results]


@pytest.fixture(scope="module")
def server():
    with serve_background(workers=2, queue_depth=16) as background:
        yield background


def test_concurrent_clients_match_local_serial_sweep(server):
    """Eight clients mixing sweeps, single runs and session appends all see
    results byte-identical to local serial execution."""
    tasks = _sweep_tasks()
    single = QuantumCircuit(3, name="single").h(0).cx(0, 1).cx(1, 2)
    single.measure_all()
    expected_sweep = _deterministic(run_tasks(tasks, shots=8, seed=77))
    expected_single = repro.run(single, shots=32,
                                seed=5).to_dict(timings=False)
    base = QuantumCircuit(4, name="warm").h(0).cx(0, 1)
    delta = QuantumCircuit(4, name="delta").cx(1, 2).cx(2, 3)
    expected_append = repro.run(
        base.copy(name="delta").cx(1, 2).cx(2, 3),
        engine="bitslice").to_dict(timings=False)

    failures = []

    def sweep_worker():
        with Client(server.address) as client:
            got = _deterministic(client.run_tasks(tasks, shots=8, seed=77))
            if got != expected_sweep:
                failures.append("sweep mismatch")

    def run_worker():
        with Client(server.address) as client:
            got = client.run(single, shots=32, seed=5).to_dict(timings=False)
            if got != expected_single:
                failures.append("single-run mismatch")

    def session_worker():
        with Client(server.address) as client:
            session_id = client.open_session(4, engine="bitslice")
            first = client.append(session_id, base)
            second = client.append(session_id, delta)
            client.close_session(session_id)
            if first.status != "ok":
                failures.append("append base failed")
            if second.to_dict(timings=False) != expected_append:
                failures.append("append mismatch")

    workers = ([threading.Thread(target=sweep_worker) for _ in range(4)]
               + [threading.Thread(target=run_worker) for _ in range(2)]
               + [threading.Thread(target=session_worker) for _ in range(2)])
    assert len(workers) >= 8
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join(timeout=300)
        assert not thread.is_alive(), "client worker hung"
    assert failures == []


def test_warm_session_appends_record_prefix_hits(server):
    with Client(server.address) as client:
        before = client.stats()["counters"]
        session_id = client.open_session(5, engine="bitslice")
        cumulative_gates = 0
        for index in range(3):
            delta = QuantumCircuit(5, name=f"step{index}")
            delta.h(index).cx(index, index + 1)
            result = client.append(session_id, delta)
            assert result.status == "ok"
            # Every append resumes from the stored state — the first from
            # the pinned |0> prefix at depth 0, later ones deeper.
            assert result.extra.get("resumed_from_depth") == cumulative_gates
            cumulative_gates += 2
        appends = client.close_session(session_id)
        assert appends == 3
        after = client.stats()["counters"]
    assert (after.get("service_session_resume_hits", 0)
            - before.get("service_session_resume_hits", 0)) == 3
    assert (after.get("service_session_gates_saved", 0)
            - before.get("service_session_gates_saved", 0)) == 6
    assert (after.get("prefix_resume_hits", 0)
            - before.get("prefix_resume_hits", 0)) >= 3


def test_concurrent_appends_on_one_session_all_land():
    """Appends in flight together on one session must all commit: the
    base snapshot is taken on the worker under the session lock, so the
    second append extends the first one's result instead of overwriting
    it with a stale dispatch-time base (the lost-update race)."""
    from repro.service.protocol import (AppendToSession, JobAccepted,
                                        RunCompleted)

    with serve_background(workers=1, queue_depth=8) as background:
        with Client(background.address) as client:
            session_id = client.open_session(4, engine="bitslice")
            # Park the single worker on a heavy job, so both appends are
            # dispatched — and held queued — before either one runs.
            blocker = client.submit(HEAVY, engine="bitslice")
            msg_ids = []
            for qubit in (0, 1):
                delta = QuantumCircuit(4, name=f"race{qubit}").x(qubit)
                msg_id = client._send(AppendToSession(session_id, delta))
                client._wait(msg_id, accept=(JobAccepted,))
                msg_ids.append(msg_id)
            client.cancel(blocker)
            for msg_id in msg_ids:
                reply = client._wait(msg_id, accept=(RunCompleted,))
                assert reply.result.status == "ok"
            row = next(r for r in client.sessions()
                       if r["session_id"] == session_id)
            # Both deltas' gates are in the cumulative circuit — neither
            # was dropped by a stale-base overwrite.
            assert row["gates"] == 2
            assert client.close_session(session_id) == 2


def test_watch_interval_is_floored(server):
    """A watch subscriber asking for interval=0 cannot busy-loop the
    server: frames arrive no faster than MIN_WATCH_INTERVAL."""
    with Client(server.address) as client:
        started = time.perf_counter()
        frames = list(client.watch(interval=0.0, count=3))
        elapsed = time.perf_counter() - started
    assert len(frames) == 3
    assert elapsed >= 2 * MIN_WATCH_INTERVAL * 0.9


def test_queue_full_is_a_structured_reject_not_a_hang():
    with serve_background(workers=1, queue_depth=2) as small:
        with Client(small.address) as client:
            accepted = []
            rejected = None
            started = time.perf_counter()
            for _ in range(8):
                try:
                    accepted.append(client.submit(HEAVY, engine="bitslice"))
                except ServiceError as exc:
                    rejected = exc
                    break
            elapsed = time.perf_counter() - started
            assert rejected is not None, "flood never hit the queue bound"
            assert rejected.code == "queue_full"
            assert rejected.details["capacity"] == 2
            assert rejected.details["depth"] == 2
            # The reject is immediate backpressure, not a queue-drain wait.
            assert elapsed < 30
            # 2 queued + the one the worker already picked up (3), or 2 if
            # the flood outran the worker's first dequeue.
            assert len(accepted) in (2, 3)
            for job_id in accepted[1:]:
                client.cancel(job_id)


def test_disconnect_cancels_outstanding_jobs():
    with serve_background(workers=1, queue_depth=8) as background:
        client = Client(background.address)
        client.submit(HEAVY, engine="bitslice")
        client.submit(HEAVY, engine="bitslice")
        client.close()  # vanish with one job running and one queued
        with Client(background.address) as admin:
            deadline = time.time() + 60
            while True:
                counters = admin.stats()["counters"]
                if counters.get("service_disconnect_cancels", 0) >= 2:
                    break
                assert time.time() < deadline, (
                    f"disconnect cancels never recorded: {counters}")
                time.sleep(0.05)
            # The worker must come free again for other clients.
            deadline = time.time() + 60
            while admin.stats()["running"] > 0:
                assert time.time() < deadline, "cancelled job still running"
                time.sleep(0.05)


def test_cancelled_append_releases_the_session_lock(server):
    with Client(server.address) as client:
        session_id = client.open_session(8, engine="bitslice")
        from repro.service.protocol import AppendToSession, JobAccepted

        msg_id = client._send(AppendToSession(session_id, HEAVY))
        accepted = client._wait(msg_id, accept=(JobAccepted,))
        outcome = client.cancel(accepted.job_id)
        assert outcome in ("cancelled", "cancelling")
        # Drain the terminal reply of the cancelled append (an error).
        with pytest.raises(ServiceError) as excinfo:
            client._wait(msg_id, accept=())
        assert excinfo.value.code == "cancelled"
        # The session must not be wedged: a follow-up append succeeds.
        delta = QuantumCircuit(8, name="after-cancel").h(0)
        result = client.append(session_id, delta)
        assert result.status == "ok"
        client.close_session(session_id)


def test_error_codes_unknown_session_and_bad_request(server):
    with Client(server.address) as client:
        with pytest.raises(ServiceError) as excinfo:
            client.append("s999999", QuantumCircuit(2).h(0))
        assert excinfo.value.code == "unknown_session"
        session_id = client.open_session(3)
        with pytest.raises(ServiceError) as excinfo:
            client.append(session_id, QuantumCircuit(5).h(0))  # wrong width
        assert excinfo.value.code == "bad_request"
        client.close_session(session_id)


def test_session_limit_is_a_structured_reject():
    with serve_background(max_sessions=2) as background:
        with Client(background.address) as client:
            ids = [client.open_session(2) for _ in range(2)]
            with pytest.raises(ServiceError) as excinfo:
                client.open_session(2)
            assert excinfo.value.code == "too_many_sessions"
            assert excinfo.value.details["limit"] == 2
            for session_id in ids:
                client.close_session(session_id)


def test_raw_wire_rejects_garbage_and_version_mismatch(server):
    host, port = server.address
    with socket.create_connection((host, port), timeout=30) as raw:
        reader = raw.makefile("rb")
        raw.sendall(b"not json at all\n")
        reply = json.loads(reader.readline())
        assert reply["kind"] == "error"
        assert reply["code"] == "bad_request"
        raw.sendall(json.dumps(
            {"kind": "server_stats", "v": PROTOCOL_VERSION + 5,
             "id": "c1"}).encode() + b"\n")
        reply = json.loads(reader.readline())
        assert reply["kind"] == "error"
        assert reply["code"] == "version_mismatch"


def test_list_sessions_and_stats_surface(server):
    with Client(server.address) as client:
        session_id = client.open_session(4, engine="bitslice")
        rows = client.sessions()
        row = next(r for r in rows if r["session_id"] == session_id)
        assert row["engine"] == "bitslice"
        assert row["num_qubits"] == 4
        stats = client.stats()
        assert stats["queue_capacity"] == 16
        assert stats["live_sessions"] >= 1
        assert stats["uptime_seconds"] > 0
        assert stats["counters"]["service_requests_total"] >= 1
        client.close_session(session_id)


def test_watch_stream_and_cli(server):
    with Client(server.address) as client:
        frames = list(client.watch(interval=0.01, count=3))
    assert len(frames) == 3
    assert all("queue_depth" in frame for frame in frames)
    line = format_frame(frames[-1])
    assert line.startswith("q=")
    assert "sessions=" in line and "prefix_hits=" in line

    host, port = server.address
    out = io.StringIO()
    rc = watch_main(["--connect", f"{host}:{port}", "--interval", "0.01",
                     "--count", "2"], stream=out)
    assert rc == 0
    lines = [l for l in out.getvalue().splitlines() if l]
    assert len(lines) == 2
    assert all(l.startswith("q=") for l in lines)


def test_unix_socket_transport(tmp_path):
    path = str(tmp_path / "repro.sock")
    with serve_background(unix_path=path) as background:
        assert background.address == path
        with Client(f"unix:{path}") as client:
            result = client.run(QuantumCircuit(2, name="ux").h(0).cx(0, 1))
            assert result.status == "ok"


def test_priority_jobs_overtake_the_queue():
    with serve_background(workers=1, queue_depth=8) as background:
        with Client(background.address) as client:
            blocker = client.submit(HEAVY, engine="bitslice")
            quick = QuantumCircuit(2, name="quick").h(0).cx(0, 1)
            low_id = client.submit(quick, priority=0)
            high_id = client.submit(quick, priority=5)
            assert low_id != high_id
            client.cancel(blocker)
            # Terminal replies arrive in completion order: the cancelled
            # blocker's error first, then the high-priority job, then the
            # low-priority one submitted before it.
            completed = []
            while len(completed) < 2:
                message, _ = client._read_reply()
                if message.kind == "run_result":
                    completed.append(message.job_id)
                else:
                    assert message.kind in ("error", "cancel_result")
            assert completed == [high_id, low_id]


BELL = QuantumCircuit(2, name="bell").h(0).cx(0, 1)


@pytest.mark.parametrize("call", [
    lambda client: client.run(BELL, engine="nope"),
    lambda client: client.run_tasks([("bitslice", BELL), ("nope", BELL)]),
    lambda client: client.submit(BELL, engine="nope"),
    lambda client: client.sample(BELL, shots=-1),
    lambda client: client.run(BELL, shots=-1),
    lambda client: client.run_tasks([("bitslice", BELL)], shots=-1),
    lambda client: client.query_probability(BELL, [0], [0], engine="nope"),
    lambda client: client.run(BELL, priority="high"),
    lambda client: client.open_session("2"),
    lambda client: client.run(BELL, shots=4, seed=-5),
    lambda client: client.run_tasks([("bitslice", BELL)], shots=4, seed=-5),
    lambda client: client.sample(BELL, shots=4, seed=-5),
], ids=["run-engine", "sweep-engine", "submit-engine", "sample-shots",
        "run-shots", "sweep-shots", "query-engine", "run-priority-type",
        "session-width-type", "run-seed", "sweep-seed", "sample-seed"])
def test_malformed_job_is_a_bad_request_before_it_is_queued(server, call):
    """An unknown engine, a negative shot count or a field of the wrong
    type is answered ``bad_request`` to the request that sent it, never
    queued and never ``internal`` (nor a dropped connection)."""
    with Client(server.address) as client:
        before = client.stats()["counters"].get("service_jobs_submitted", 0)
        with pytest.raises(ServiceError) as excinfo:
            call(client)
        assert excinfo.value.code == "bad_request"
        after = client.stats()["counters"].get("service_jobs_submitted", 0)
    assert after == before


@pytest.mark.parametrize("options", [{"shots": -1}, {"shots": 4, "seed": -5}],
                         ids=["shots", "seed"])
def test_malformed_append_is_a_bad_request(server, options):
    with Client(server.address) as client:
        session_id = client.open_session(2)
        before = client.stats()["counters"].get("service_jobs_submitted", 0)
        with pytest.raises(ServiceError) as excinfo:
            client.append(session_id, BELL, **options)
        assert excinfo.value.code == "bad_request"
        after = client.stats()["counters"].get("service_jobs_submitted", 0)
        assert after == before
        # The session did not move: a good append still runs on |00>.
        result = client.append(session_id, BELL, shots=8, seed=1)
        assert result.status == "ok"
        assert client.close_session(session_id) == 1


def test_session_with_an_unknown_engine_is_never_opened(server):
    with Client(server.address) as client:
        before = {row["session_id"] for row in client.sessions()}
        with pytest.raises(ServiceError) as excinfo:
            client.open_session(2, engine="nope")
        assert excinfo.value.code == "bad_request"
        assert {row["session_id"] for row in client.sessions()} == before


@pytest.mark.parametrize("engine", ["auto", "bitslice", "qmdd",
                                    "statevector", "stabilizer"])
@pytest.mark.parametrize("qubits,values", [([5], [0]), ([-1], [0]),
                                           ([0, 1], [0])])
def test_malformed_probability_query_is_a_bad_request(server, engine,
                                                      qubits, values):
    with Client(server.address) as client:
        with pytest.raises(ServiceError) as excinfo:
            client.query_probability(BELL, qubits, values, engine=engine)
        assert excinfo.value.code == "bad_request"
        assert client.query_probability(BELL, [0, 1], [1, 1],
                                        engine=engine) == pytest.approx(0.5)


@pytest.mark.parametrize("qubits,values", [([True], [1]), ([0], [True]),
                                           ([0], [2])],
                         ids=["bool-qubit", "bool-value", "value-2"])
def test_probability_query_with_a_bool_or_non_bit_is_never_queued(
        server, qubits, values):
    """A JSON ``true`` in ``qubits`` or ``values`` is refused by the
    protocol, and an outcome value of 2 by the query check, so each is
    answered ``bad_request`` before ``job_accepted``: no job is queued."""
    with Client(server.address) as client:
        before = client.stats()["counters"].get("service_jobs_submitted", 0)
        with pytest.raises(ServiceError) as excinfo:
            client.query_probability(BELL, qubits, values)
        assert excinfo.value.code == "bad_request"
        after = client.stats()["counters"].get("service_jobs_submitted", 0)
    assert after == before


@pytest.mark.parametrize("entry", [{"kind": "h", "targets": [1.0]},
                                   {"kind": "h", "targets": [True]},
                                   {"kind": "cx", "targets": [1], "controls": [0.0]}],
                         ids=["float-target", "bool-target", "float-control"])
def test_circuit_with_a_bool_or_float_qubit_is_never_queued(server, entry):
    """A gate index that is a JSON float or boolean is refused when the
    circuit decodes, so the run is answered ``bad_request`` instead of
    ``job_accepted`` followed by an internal error (a float) or a run keyed
    apart from the same circuit written with ints (a boolean)."""
    with Client(server.address) as client:
        before = client.stats()["counters"].get("service_jobs_submitted", 0)
        host, port = server.address
        with socket.create_connection((host, port), timeout=30) as raw:
            raw.sendall(json.dumps(
                {"kind": "submit_run", "v": PROTOCOL_VERSION, "id": "c1",
                 "engine": "bitslice",
                 "circuit": {"num_qubits": 2, "name": "", "gates": [entry],
                             "measure": [], "num_clbits": 0}}).encode() + b"\n")
            reply = json.loads(raw.makefile("rb").readline())
        assert reply["kind"] == "error"
        assert reply["code"] == "bad_request"
        assert reply["in_reply_to"] == "c1"
        assert "not an integer" in reply["message"]
        after = client.stats()["counters"].get("service_jobs_submitted", 0)
    assert after == before
