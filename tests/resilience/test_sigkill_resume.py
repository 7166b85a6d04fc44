"""SIGKILL chaos: checkpointed work survives real process death.

The acceptance gates of the checkpointing PR, driven through actual
subprocesses killed with ``SIGKILL`` (no atexit, no flush, no mercy):

* a checkpointed + journalled sweep killed mid-grid resumes
  byte-identically — finished tasks replay from the journal, the
  in-flight task restores its per-gate snapshot;
* a ``repro-serve --checkpoint-dir`` server killed with live sessions
  comes back serving the *same* session ids warm, and closing them
  leaks nothing.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time

import repro
from repro import Client, QuantumCircuit, ServiceError
from repro.engines.frontdoor import run_tasks
from repro.resilience.journal import SweepJournal
from tests.conftest import universal_mix

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

SWEEP_DRIVER = """
import json, sys
from repro.engines.frontdoor import run_tasks
from tests.conftest import universal_mix

journal, ckpt_dir, out = sys.argv[1], sys.argv[2], sys.argv[3]
tasks = [("bitslice", universal_mix(5, seed=s, measure=True))
         for s in (71, 72, 73)]
results = run_tasks(tasks, shots=32, seed=11, journal=journal,
                    checkpoint_every=1, checkpoint_dir=ckpt_dir)
with open(out, "w") as handle:
    json.dump([r.to_dict(timings=False) for r in results], handle,
              sort_keys=True)
reused = sum(1 for r in results if r.extra.get("journal_replayed")
             or r.extra.get("resumed_from_checkpoint"))
print("SWEEP-DONE reused", reused, flush=True)
"""


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"), REPO_ROOT,
                    env.get("PYTHONPATH")) if p)
    return env


def _wait_until(predicate, deadline=30.0, interval=0.005):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(interval)
    return False


def test_sigkilled_checkpointed_sweep_resumes_byte_identically(tmp_path):
    tasks = [("bitslice", universal_mix(5, seed=s, measure=True))
             for s in (71, 72, 73)]
    baseline = [r.to_dict(timings=False)
                for r in run_tasks(tasks, shots=32, seed=11)]
    journal = tmp_path / "journal.jsonl"
    ckpt_dir = tmp_path / "ckpts"
    out = tmp_path / "results.json"
    argv = [sys.executable, "-c", SWEEP_DRIVER, str(journal),
            str(ckpt_dir), str(out)]

    # --- first attempt: SIGKILL at a seeded random point mid-sweep. ---
    victim = subprocess.Popen(argv, env=_subprocess_env(), cwd=REPO_ROOT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    try:
        started = _wait_until(
            lambda: ckpt_dir.is_dir() and any(
                name.endswith(".ckpt") for name in os.listdir(ckpt_dir)))
        time.sleep(random.Random(2026).uniform(0.0, 0.15))
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
    finally:
        if victim.poll() is None:  # pragma: no cover - cleanup guard
            victim.kill()
    assert started, "the sweep never wrote its first checkpoint"
    assert not out.exists(), "SIGKILL landed after the sweep finished; " \
        "shrink the kill delay"
    # Progress the kill left on disk: a journalled task or the in-flight
    # task's checkpoint.  There is none when the kill lands between a
    # finished task's checkpoint removal and its journal record.
    left_progress = (len(SweepJournal(journal)) > 0 or any(
        name.endswith(".ckpt") for name in os.listdir(ckpt_dir)))

    # --- second attempt: same command, runs to completion by resuming. -
    completed = subprocess.run(argv, env=_subprocess_env(), cwd=REPO_ROOT,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert "SWEEP-DONE" in completed.stdout
    assert json.loads(out.read_text()) == baseline
    # The resume really reused that progress.
    if left_progress:
        assert "SWEEP-DONE reused 0" not in completed.stdout
    # Success cleaned up: no checkpoint survives a journalled result.
    assert [n for n in os.listdir(ckpt_dir) if n.endswith(".ckpt")] == []
    lines = [json.loads(line)
             for line in journal.read_text().splitlines()]
    assert sum(1 for record in lines if "result" in record) == len(tasks)


class _ServeProcess:
    """A real ``repro-serve`` child on a unix socket."""

    def __init__(self, sock, ckpt_dir):
        self.sock = str(sock)
        self.proc = subprocess.Popen(
            [sys.executable, "-c",
             "from repro.service.server import main; import sys; "
             "sys.exit(main(sys.argv[1:]))",
             "--unix", self.sock, "--checkpoint-dir", str(ckpt_dir),
             "--workers", "1"],
            env=_subprocess_env(), cwd=REPO_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)

    def wait_ready(self):
        assert _wait_until(self._responds), "server never became ready"

    def _responds(self):
        if self.proc.poll() is not None:
            raise AssertionError(
                f"repro-serve exited early: {self.proc.stdout.read()}")
        if not os.path.exists(self.sock):
            return False
        try:
            with Client(f"unix:{self.sock}", timeout=5.0) as client:
                return client.health()["state"] == "ok"
        except (ServiceError, OSError):
            return False

    def sigkill(self):
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)

    def shutdown(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover - guard
                self.proc.kill()
                self.proc.wait(timeout=30)


def test_sigkilled_server_serves_prerestart_session_warm(tmp_path):
    sock = tmp_path / "repro.sock"
    ckpt_dir = tmp_path / "ckpts"
    base = QuantumCircuit(4, name="base").h(0).cx(0, 1)
    delta = QuantumCircuit(4, name="delta").cx(1, 2).cx(2, 3)
    tail = QuantumCircuit(4, name="tail").t(0).h(3)

    first = _ServeProcess(sock, ckpt_dir)
    try:
        first.wait_ready()
        with Client(f"unix:{sock}") as client:
            session_id = client.open_session(4, engine="bitslice")
            assert client.append(session_id, base).status == "ok"
            assert client.append(session_id, delta).status == "ok"
            assert client.health()["checkpointed_sessions"] == 1
        first.sigkill()
    finally:
        first.shutdown()
    # SIGKILL left the on-disk state exactly as the last append wrote it.
    assert sorted(os.listdir(ckpt_dir / "sessions")) \
        == [f"{session_id}.ckpt"]

    second = _ServeProcess(sock, ckpt_dir)
    try:
        second.wait_ready()  # start() replaces the stale socket file
        cumulative = base.copy(name="tail")
        for gate in delta.gates:
            cumulative.append(gate)
        for gate in tail.gates:
            cumulative.append(gate)
        expected = repro.run(cumulative,
                             engine="bitslice").to_dict(timings=False)
        with Client(f"unix:{sock}") as client:
            assert client.health()["restored_sessions"] == 1
            rows = client.sessions()
            assert [row["session_id"] for row in rows] == [session_id]
            assert rows[0]["appends"] == 2
            result = client.append(session_id, tail)
            assert result.status == "ok"
            assert (result.extra["resumed_from_depth"]
                    == base.num_gates + delta.num_gates)
            assert result.to_dict(timings=False) == expected
            assert client.close_session(session_id) == 3
            assert client.sessions() == []
        assert os.listdir(ckpt_dir / "sessions") == []  # zero leaked
    finally:
        second.shutdown()
