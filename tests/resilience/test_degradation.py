"""Graceful degradation: crash isolation, drain, SIGTERM, socket hygiene."""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro import Client, QuantumCircuit, ServiceError
from repro.harness.experiments import accuracy_circuit
from repro.resilience.faults import (
    FAULT_WORKER_LOOP,
    FaultPlan,
    FaultRule,
    active,
)
from repro.resilience.retry import RetryPolicy, connect_with_retry
from repro.service import serve_background

QUICK = QuantumCircuit(2, name="quick").h(0).cx(0, 1)


def test_worker_survives_injected_machinery_crash_and_keeps_serving():
    """The regression pin: a crash in the worker loop *outside* the job's
    own try block fails the claimed job but never kills the thread — the
    single worker keeps serving afterwards."""
    expected = repro.run(QUICK, engine="bitslice").to_dict(timings=False)
    with serve_background(workers=1, queue_depth=8) as background:
        with Client(background.address) as client:
            plan = FaultPlan([FaultRule(FAULT_WORKER_LOOP, on_hit=1)],
                             seed=0)
            with active(plan):
                with pytest.raises(ServiceError) as excinfo:
                    client.run(QUICK, engine="bitslice")
            assert excinfo.value.code == "internal"
            assert plan.fires() == {FAULT_WORKER_LOOP: 1}
            health = client.health()
            assert health["workers_alive"] == health["workers"] == 1
            result = client.run(QUICK, engine="bitslice")
            assert result.to_dict(timings=False) == expected
            counters = client.stats()["counters"]
            assert counters.get("service_worker_crashes", 0) == 1


def test_health_verb_reports_the_degradation_surface():
    with serve_background(workers=2, queue_depth=5) as background:
        with Client(background.address) as client:
            health = client.health()
            assert health["state"] == "ok"
            assert health["queue_depth"] == 0
            assert health["queue_capacity"] == 5
            assert health["running"] == 0
            assert health["workers"] == health["workers_alive"] == 2
            assert health["sessions"] == 0
            assert health["uptime_seconds"] > 0


def test_drain_finishes_in_flight_work_and_rejects_new_submits():
    """SIGTERM semantics, in process: drain stops accepting, lets the
    running job finish under the grace deadline, and reports completion."""
    with serve_background(workers=1, queue_depth=8) as background:
        admin = Client(background.address)
        try:
            # One round trip before the drain: the server has accepted and
            # attached this connection, so it is a pre-drain connection
            # rather than one still in the listener's backlog when the
            # drain closes the listener.
            assert admin.health()["state"] == "ok"
            release = threading.Event()
            started = threading.Event()

            def slow_job(cancel_event):
                started.set()
                assert release.wait(timeout=60)
                return "landed"

            job = background.server.scheduler.submit(slow_job,
                                                     request_kind="test")
            assert started.wait(timeout=30)

            drained = []
            drainer = threading.Thread(
                target=lambda: drained.append(
                    background.drain(grace_seconds=60)))
            drainer.start()
            deadline = time.time() + 30
            while not background.server.scheduler.draining:
                assert time.time() < deadline, "drain never began"
                time.sleep(0.01)
            # The pre-drain connection survives the closed listener; new
            # submissions get the structured drain reject...
            with pytest.raises(ServiceError) as excinfo:
                admin.run(QUICK, engine="bitslice")
            assert excinfo.value.code == "draining"
            # ...while health keeps answering, now reporting the state.
            assert admin.health()["state"] == "draining"
            release.set()
            drainer.join(timeout=90)
            assert not drainer.is_alive()
            assert drained == [True], "drain missed the in-flight job"
            assert job.future.result(timeout=10) == "landed"
            counters = background.server.counters.snapshot()
            assert counters.get("drain_begun", 0) == 1
            assert counters.get("drain_rejects", 0) >= 1
            assert counters.get("drain_deadline_exceeded", 0) == 0
        finally:
            admin.close()


def test_drain_deadline_gives_up_without_hanging():
    with serve_background(workers=1, queue_depth=8) as background:
        release = threading.Event()
        started = threading.Event()

        def stuck_job(cancel_event):
            # Overruns the grace window, but honours its cancel token at
            # the next poll — like a real job at a gate boundary.
            started.set()
            cancel_event.wait(timeout=60)
            release.wait(timeout=1)
            return "late"

        background.server.scheduler.submit(stuck_job, request_kind="test")
        assert started.wait(timeout=30)
        completed = background.drain(grace_seconds=0.2)
        assert completed is False
        counters = background.server.counters.snapshot()
        assert counters.get("drain_deadline_exceeded", 0) == 1
        release.set()


def test_sigterm_drains_in_flight_job_and_removes_unix_socket(tmp_path):
    """End to end: a real ``repro-serve`` process receives SIGTERM while a
    job is in flight — the job completes, the process exits 0, and the
    unix socket is gone."""
    sock_path = str(tmp_path / "serve.sock")
    src = os.path.join(os.path.dirname(repro.__file__), os.pardir)
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.abspath(src)
                         + os.pathsep + env.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service.server", "--unix", sock_path,
         "--workers", "1", "--drain-grace", "60"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    try:
        # Skip interpreter noise (e.g. runpy warnings) before the banner.
        for _ in range(10):
            banner = proc.stdout.readline()
            if "listening" in banner:
                break
        else:
            pytest.fail(f"repro-serve never reported listening: {banner!r}")
        client = connect_with_retry(
            lambda: Client(f"unix:{sock_path}", timeout=120),
            RetryPolicy(max_attempts=10, base_delay=0.05))
        try:
            # ~0.7 s bit-sliced: reliably still in flight when the signal
            # lands a few milliseconds after submission.
            in_flight = accuracy_circuit(7, 10)
            results = []
            runner = threading.Thread(
                target=lambda: results.append(
                    client.run(in_flight, engine="bitslice")))
            runner.start()
            time.sleep(0.15)
            proc.send_signal(signal.SIGTERM)
            runner.join(timeout=120)
            assert not runner.is_alive(), "in-flight run never completed"
            assert len(results) == 1 and results[0].status == "ok"
        finally:
            client.close()
        assert proc.wait(timeout=60) == 0
        assert not os.path.exists(sock_path), "stale unix socket left behind"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


def test_stale_unix_socket_is_replaced_on_start_and_removed_on_stop(tmp_path):
    path = str(tmp_path / "stale.sock")
    # A previous process died without unlinking: the file exists but
    # nobody is listening.
    leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    leftover.bind(path)
    leftover.close()
    assert os.path.exists(path)
    with serve_background(unix_path=path) as background:
        assert background.address == path
        with Client(f"unix:{path}") as client:
            assert client.run(QUICK, engine="bitslice").status == "ok"
    assert not os.path.exists(path)


def test_harness_server_flag_retries_until_the_server_is_up(tmp_path):
    """The ``--server`` satellite: the harness connects with backoff, so a
    server that starts a beat later is tolerated."""
    from repro.harness.__main__ import main as harness_main

    sock_path = str(tmp_path / "late.sock")
    background_holder = []

    def start_late():
        time.sleep(0.4)
        background_holder.append(serve_background(unix_path=sock_path))

    starter = threading.Thread(target=start_late)
    starter.start()
    out_path = str(tmp_path / "tables.txt")
    try:
        rc = harness_main(["accuracy", "--quick", "--server",
                           f"unix:{sock_path}", "--out", out_path])
        assert rc == 0
        assert os.path.getsize(out_path) > 0
    finally:
        starter.join(timeout=30)
        for background in background_holder:
            background.stop()
