"""``repro.run(..., checkpoint_every=...)``: crash, resume, byte-identity.

The front-door face of the checkpointing tentpole: a checkpointed run
that dies mid-circuit resumes from its last snapshot and produces a
``to_dict(timings=False)`` **byte-identical** to an uninterrupted run —
fixed-seed sampled counts included; a corrupt checkpoint is skipped (the
run goes cold), never fatal; sweeps thread one checkpoint per task (its
index plus the state part of its run key) and resume prefers restore
over re-execution.
"""

from __future__ import annotations

import json
import os

import pytest

import repro
from repro import JobCancelledError, QuantumCircuit
from repro.cache import run_key
from repro.engines import frontdoor
from repro.engines.frontdoor import (
    checkpoint_file,
    derive_task_seed,
    run_sweep,
    run_tasks,
)
from repro.engines.limits import ResourceLimits
from repro.engines.registry import create_engine, engine_capabilities
from repro.exceptions import UnsupportedGateError
from repro.resilience.journal import SweepJournal
from repro.snapshot import snapshot_info
from repro.workloads.random_circuits import generate_random_circuit
from tests.conftest import universal_mix

#: Static, sampled: the byte-identity claim must cover seeded counts.
CIRCUIT = universal_mix(4, seed=21, measure=True)


class FireAfter:
    """A cancel token that trips after N polls — a deterministic 'crash'
    at a gate boundary (the limit enforcer polls once per instruction)."""

    def __init__(self, after: int):
        self.after = after
        self.calls = 0

    def is_set(self) -> bool:
        self.calls += 1
        return self.calls > self.after


def det(result) -> str:
    return json.dumps(result.to_dict(timings=False), sort_keys=True)


def ckpt_files(directory):
    return sorted(p for p in os.listdir(directory) if p.endswith(".ckpt"))


def test_uninterrupted_checkpointed_run_is_byte_identical(tmp_path):
    cold = repro.run(CIRCUIT, engine="bitslice", shots=64, seed=5)
    hot = repro.run(CIRCUIT, engine="bitslice", shots=64, seed=5,
                    checkpoint_every=1, checkpoint_dir=tmp_path)
    assert det(hot) == det(cold)
    assert hot.extra["checkpoints_written"] >= 1
    assert "resumed_from_checkpoint" not in hot.extra
    # The run reached ok: its checkpoint is a stale prefix, removed.
    assert ckpt_files(tmp_path) == []


def test_crashed_run_resumes_byte_identically(tmp_path):
    baseline = det(repro.run(CIRCUIT, engine="bitslice", shots=64, seed=5))
    with pytest.raises(JobCancelledError):
        repro.run(CIRCUIT, engine="bitslice", shots=64, seed=5,
                  cancel=FireAfter(6), checkpoint_every=1,
                  checkpoint_dir=tmp_path)
    files = ckpt_files(tmp_path)
    assert len(files) == 1, "the crash must leave exactly one checkpoint"
    info = snapshot_info(tmp_path / files[0])
    assert info["kind"] == "simulator"
    resumed = repro.run(CIRCUIT, engine="bitslice", shots=64, seed=5,
                        checkpoint_every=1, checkpoint_dir=tmp_path)
    assert resumed.extra["resumed_from_checkpoint"] >= 1
    assert det(resumed) == baseline
    assert ckpt_files(tmp_path) == []  # discarded after the ok finish


def test_corrupt_checkpoint_is_skipped_never_fatal(tmp_path):
    baseline = det(repro.run(CIRCUIT, engine="bitslice", shots=64, seed=5))
    with pytest.raises(JobCancelledError):
        repro.run(CIRCUIT, engine="bitslice", shots=64, seed=5,
                  cancel=FireAfter(6), checkpoint_every=1,
                  checkpoint_dir=tmp_path)
    victim = tmp_path / ckpt_files(tmp_path)[0]
    blob = bytearray(victim.read_bytes())
    blob[len(blob) // 2] ^= 0x40
    victim.write_bytes(bytes(blob))
    recovered = repro.run(CIRCUIT, engine="bitslice", shots=64, seed=5,
                          checkpoint_every=1, checkpoint_dir=tmp_path)
    assert recovered.extra["checkpoint_corrupt_skipped"] == 1
    assert "resumed_from_checkpoint" not in recovered.extra
    assert det(recovered) == baseline


def test_stale_checkpoint_of_another_circuit_is_ignored(tmp_path):
    other = universal_mix(4, seed=99, measure=True)
    with pytest.raises(JobCancelledError):
        repro.run(other, engine="bitslice", cancel=FireAfter(6),
                  checkpoint_every=1, checkpoint_dir=tmp_path / "other")
    [stale] = ckpt_files(tmp_path / "other")
    # Plant the other circuit's checkpoint at this run's derived path, so
    # only the fingerprint check inside the file can tell them apart.
    state = run_key(CIRCUIT, "bitslice", 5, 64, None).state
    target = checkpoint_file(tmp_path, repr(state))
    os.replace(tmp_path / "other" / stale, target)
    baseline = det(repro.run(CIRCUIT, engine="bitslice", shots=64, seed=5))
    result = repro.run(CIRCUIT, engine="bitslice", shots=64, seed=5,
                       checkpoint_every=1, checkpoint_dir=tmp_path)
    assert "resumed_from_checkpoint" not in result.extra
    assert "checkpoint_corrupt_skipped" not in result.extra
    assert result.extra["checkpoints_written"] >= 1
    assert det(result) == baseline


def test_checkpoint_kept_on_timeout_enables_deeper_retry(tmp_path):
    with pytest.raises(JobCancelledError):
        repro.run(CIRCUIT, engine="bitslice", cancel=FireAfter(8),
                  checkpoint_every=1, checkpoint_dir=tmp_path)
    timed_out = repro.run(CIRCUIT, engine="bitslice",
                          limits=ResourceLimits(max_seconds=0.0),
                          checkpoint_every=1, checkpoint_dir=tmp_path)
    assert timed_out.status == "TO"
    # TO keeps the checkpoint: a retry under a real budget resumes.
    assert len(ckpt_files(tmp_path)) == 1
    retried = repro.run(CIRCUIT, engine="bitslice", shots=64, seed=5,
                        checkpoint_every=1, checkpoint_dir=tmp_path)
    assert retried.status == "ok"
    assert retried.extra["resumed_from_checkpoint"] >= 1
    assert ckpt_files(tmp_path) == []


def test_checkpoint_of_a_reordered_run_never_restores_into_a_plain_one(
        tmp_path):
    """Regression: the checkpoint key was the fingerprint alone, so a run
    stopped at MO under ``reorder`` left a snapshot that a plain run
    restored, reporting the reordered run's node counts."""
    circuit = generate_random_circuit(10, 60, seed=5)
    stopped = repro.run(circuit, engine="bitslice", reorder=100,
                        limits=ResourceLimits(max_nodes=200),
                        checkpoint_every=1, checkpoint_dir=tmp_path)
    assert stopped.status == "MO"
    plain = repro.run(circuit, engine="bitslice", checkpoint_every=1,
                      checkpoint_dir=tmp_path)
    assert "resumed_from_checkpoint" not in plain.extra
    assert det(plain) == det(repro.run(circuit, engine="bitslice"))
    # The reordered run's own retry, under a bigger budget, still resumes.
    retried = repro.run(circuit, engine="bitslice", reorder=100,
                        checkpoint_every=1, checkpoint_dir=tmp_path)
    assert retried.extra["resumed_from_checkpoint"] >= 1
    assert det(retried) == det(repro.run(circuit, engine="bitslice",
                                         reorder=100))
    assert ckpt_files(tmp_path) == []


def test_interval_spec_validation(tmp_path):
    for bad in (0, -3, True, False, 0.0, -1.5, (None, None), (0, None),
                (None, 0.0), "hourly", (1, 2, 3)):
        with pytest.raises(ValueError):
            repro.run(CIRCUIT, engine="bitslice", checkpoint_every=bad,
                      checkpoint_dir=tmp_path)
    with pytest.raises(ValueError):
        repro.run(CIRCUIT, engine="bitslice", checkpoint_every=1)
    # Valid forms all run (and clean up after the ok).
    for good in (5, 0.001, (3, None), (None, 0.001), (3, 0.001)):
        result = repro.run(CIRCUIT, engine="bitslice", checkpoint_every=good,
                           checkpoint_dir=tmp_path)
        assert result.status == "ok"
    assert ckpt_files(tmp_path) == []


def test_engines_without_the_capability_degrade_gracefully(tmp_path):
    assert engine_capabilities("bitslice").supports_snapshots
    for engine in ("qmdd", "statevector"):
        assert not engine_capabilities(engine).supports_snapshots
        result = repro.run(CIRCUIT, engine=engine, shots=16, seed=3,
                           checkpoint_every=1, checkpoint_dir=tmp_path)
        assert result.status == "ok"
        assert "checkpoints_written" not in result.extra
    assert ckpt_files(tmp_path) == []


def test_default_engine_snapshot_api_refuses(tmp_path):
    engine = create_engine("qmdd")
    assert engine.export_snapshot(tmp_path / "never.ckpt") is False
    assert not (tmp_path / "never.ckpt").exists()
    with pytest.raises(UnsupportedGateError):
        engine.restore_snapshot(tmp_path / "never.ckpt")


def test_checkpoint_file_is_deterministic_and_sanitised(tmp_path):
    first = checkpoint_file(tmp_path, "task:0|bitslice/abc")
    assert first == checkpoint_file(tmp_path, "task:0|bitslice/abc")
    assert first != checkpoint_file(tmp_path, "task:1|bitslice/abc")
    name = os.path.basename(first)
    assert name.endswith(".ckpt")
    assert "/" not in name and ":" not in name and "|" not in name
    long_key = "x" * 500
    assert len(os.path.basename(checkpoint_file(tmp_path, long_key))) < 120


def test_checkpointed_sweep_resumes_and_cleans_up(tmp_path):
    """The sweep acceptance pin: a killed checkpointed+journalled sweep
    resumes — finished tasks replay from the journal, the interrupted
    task restores its checkpoint — byte-identical to an uninterrupted
    sweep, and success leaves no checkpoint behind."""
    circuits = [universal_mix(4, seed=s, measure=True) for s in (31, 32, 33)]
    tasks = [("bitslice", circuit) for circuit in circuits]
    journal_path = tmp_path / "journal.jsonl"
    ckpt_dir = tmp_path / "ckpts"
    baseline = [det(r) for r in run_tasks(tasks, shots=32, seed=7)]
    # Crash inside task 1: task 0 is journalled, task 1 leaves a
    # checkpoint (universal_mix(4) is 12 gates -> ~13 polls per task).
    with pytest.raises(JobCancelledError):
        run_tasks(tasks, shots=32, seed=7, journal=journal_path,
                  checkpoint_every=1, checkpoint_dir=ckpt_dir,
                  cancel=FireAfter(20))
    journal = SweepJournal(journal_path)
    assert len(journal) == 1
    # The interrupted task's snapshot sits at its deterministic path.
    state = run_key(circuits[1], "bitslice", derive_task_seed(7, 1), 32,
                    None).state
    crashed = checkpoint_file(ckpt_dir, repr((1, *state)))
    assert ckpt_files(ckpt_dir) == [os.path.basename(crashed)]
    resumed = run_tasks(tasks, shots=32, seed=7, journal=journal_path,
                        checkpoint_every=1, checkpoint_dir=ckpt_dir)
    assert [det(r) for r in resumed] == baseline
    assert resumed[0].extra.get("journal_replayed") == 1
    assert resumed[1].extra["resumed_from_checkpoint"] >= 1
    assert ckpt_files(ckpt_dir) == []


@pytest.mark.parametrize("killed", ["before_record", "after_record"])
def test_checkpoint_and_journal_record_survive_a_kill_between_them(
        tmp_path, monkeypatch, killed):
    """A sweep task's checkpoint is removed only after the journal records
    its result.  Killed before the record, the task resumes from its
    checkpoint (the checkpoint used to be gone already, losing both);
    killed after it, the task replays and its leftover checkpoint is
    removed."""
    circuits = [universal_mix(4, seed=s, measure=True) for s in (61, 62)]
    tasks = [("bitslice", circuit) for circuit in circuits]
    journal_path = tmp_path / "journal.jsonl"
    ckpt_dir = tmp_path / "ckpts"
    baseline = [det(r) for r in run_tasks(tasks, shots=32, seed=7)]
    if killed == "before_record":
        original = SweepJournal.record

        def kill(self, key, result):
            if key.startswith("(0,"):
                raise RuntimeError("killed before the journal record")
            original(self, key, result)
        monkeypatch.setattr(SweepJournal, "record", kill)
    else:
        original = frontdoor._store_and_discard

        def kill(request, result, cache, ckpt):
            if request.circuit is circuits[0]:
                raise RuntimeError("killed after the journal record")
            original(request, result, cache, ckpt)
        monkeypatch.setattr(frontdoor, "_store_and_discard", kill)
    with pytest.raises(RuntimeError):
        run_tasks(tasks, shots=32, seed=7, journal=journal_path,
                  checkpoint_every=1, checkpoint_dir=ckpt_dir)
    monkeypatch.undo()
    state = run_key(circuits[0], "bitslice", derive_task_seed(7, 0), 32,
                    None).state
    kept = checkpoint_file(ckpt_dir, repr((0, *state)))
    assert ckpt_files(ckpt_dir) == [os.path.basename(kept)]
    assert len(SweepJournal(journal_path)) == (killed == "after_record")
    resumed = run_tasks(tasks, shots=32, seed=7, journal=journal_path,
                        checkpoint_every=1, checkpoint_dir=ckpt_dir)
    if killed == "before_record":
        assert (resumed[0].extra["resumed_from_checkpoint"]
                == circuits[0].num_gates)
    else:
        assert resumed[0].extra["journal_replayed"] == 1
    assert [det(r) for r in resumed] == baseline
    assert ckpt_files(ckpt_dir) == []


def test_sweep_task_stopped_at_mo_resumes_under_a_bigger_budget(tmp_path):
    """The journal keys on the limits and the checkpoint does not: a
    sweep re-run under a bigger budget re-runs its MO task, from that
    task's checkpoint, instead of replaying the MO."""
    tasks = [("bitslice", generate_random_circuit(10, 60, seed=5)),
             ("bitslice", generate_random_circuit(4, 8, seed=1))]
    journal_path = tmp_path / "journal.jsonl"
    ckpt_dir = tmp_path / "ckpts"
    first = run_tasks(tasks, limits=ResourceLimits(max_nodes=200),
                      journal=journal_path, checkpoint_every=1,
                      checkpoint_dir=ckpt_dir)
    assert [r.status for r in first] == ["MO", "ok"]
    assert len(ckpt_files(ckpt_dir)) == 1
    resumed = run_tasks(tasks, journal=journal_path, checkpoint_every=1,
                        checkpoint_dir=ckpt_dir)
    assert "journal_replayed" not in resumed[0].extra
    assert resumed[0].extra["resumed_from_checkpoint"] >= 1
    assert [det(r) for r in resumed] == [det(r) for r in run_tasks(tasks)]
    assert ckpt_files(ckpt_dir) == []


def test_checkpointed_sweep_parallel_path(tmp_path):
    circuits = [universal_mix(4, seed=s, measure=True) for s in (41, 42)]
    tasks = [("bitslice", circuit) for circuit in circuits]
    baseline = [det(r) for r in run_tasks(tasks, shots=16, seed=2)]
    results = run_tasks(tasks, shots=16, seed=2, jobs=2,
                        journal=tmp_path / "j.jsonl", checkpoint_every=1,
                        checkpoint_dir=tmp_path / "ckpts")
    assert [det(r) for r in results] == baseline
    assert ckpt_files(tmp_path / "ckpts") == []


def test_run_sweep_threads_checkpoint_arguments(tmp_path):
    circuits = [universal_mix(3, seed=s, measure=False) for s in (51, 52)]
    baseline = run_sweep(circuits, engines=("bitslice",))
    swept = run_sweep(circuits, engines=("bitslice",), checkpoint_every=1,
                      checkpoint_dir=tmp_path)
    assert [det(r) for r in swept] == [det(r) for r in baseline]
    assert ckpt_files(tmp_path) == []


def test_run_tasks_checkpoint_every_requires_dir(tmp_path):
    with pytest.raises(ValueError):
        run_tasks([("bitslice", CIRCUIT)], checkpoint_every=1)


def test_dynamic_circuits_run_uncheckpointed(tmp_path):
    """Mid-circuit measurement makes the trajectory collapse-dependent:
    no checkpoint is written, the run itself is unaffected."""
    dynamic = QuantumCircuit(2, name="dynamic").h(0)
    dynamic.measure_mid(0, 0)
    dynamic.x(1)
    result = repro.run(dynamic, engine="bitslice", shots=8, seed=1,
                       checkpoint_every=1, checkpoint_dir=tmp_path)
    assert result.status == "ok"
    assert "checkpoints_written" not in result.extra
    assert ckpt_files(tmp_path) == []
