"""Crash-safe sweep journal: kill a sweep mid-grid, resume byte-identically.

The acceptance gate of the resilience PR lives here: a seeded fault plan
kills a journalled sweep partway, the journal survives (including a
truncated trailing line), and the resumed sweep's deterministic
serialisation is byte-identical to an uninterrupted run — on the serial
and the parallel path alike.
"""

from __future__ import annotations

import json

import pytest

from repro.engines.frontdoor import run_tasks
from repro.engines.limits import ResourceLimits
from repro.resilience.faults import (
    FAULT_JOURNAL_WRITE,
    FAULT_LIMITS_CHECK,
    FaultPlan,
    FaultRule,
    InjectedFault,
    active,
)
from repro.resilience.journal import SweepJournal, open_journal
from repro.workloads.random_circuits import generate_random_circuit


def _tasks(count=4, num_qubits=4, num_gates=8):
    circuits = [generate_random_circuit(num_qubits, num_gates, seed=s)
                for s in range(count)]
    return [("bitslice", circuit) for circuit in circuits]


def _deterministic(results):
    return [result.to_dict(timings=False) for result in results]


def test_round_trip_replay_marker_and_first_writer_wins(tmp_path):
    path = tmp_path / "journal.jsonl"
    tasks = _tasks(count=2)
    results = run_tasks(tasks, shots=8, seed=3, journal=path)
    journal = SweepJournal(path)
    assert len(journal) == 2
    assert journal.skipped_lines == 0
    key = journal.keys()[0]
    replayed = journal.lookup(key)
    assert replayed.extra["journal_replayed"] == 1
    # The marker is provenance, excluded from deterministic serialisation.
    assert replayed.to_dict(timings=False) in _deterministic(results)
    # Re-recording an existing key (or a replayed result) is a no-op.
    journal.record(key, results[0])
    journal.record("fresh-key", replayed)  # replayed results never re-journal
    assert "fresh-key" not in journal
    assert "entries" in journal.dump()


def test_truncated_trailing_line_is_skipped_not_fatal(tmp_path):
    path = tmp_path / "journal.jsonl"
    run_tasks(_tasks(count=3), shots=4, seed=1, journal=path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:25])
    journal = SweepJournal(path)
    assert len(journal) == 2
    assert journal.skipped_lines == 1


def test_corrupt_result_payload_reruns_the_task(tmp_path):
    path = tmp_path / "journal.jsonl"
    tasks = _tasks(count=2)
    baseline = _deterministic(run_tasks(tasks, shots=4, seed=2))
    run_tasks(tasks, shots=4, seed=2, journal=path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[0]["result"] = {"nonsense": True}
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    journal = SweepJournal(path)
    assert len(journal) == 1 and journal.skipped_lines == 1
    resumed = run_tasks(tasks, shots=4, seed=2, journal=journal)
    assert _deterministic(resumed) == baseline


def test_killed_sweep_resumes_byte_identically_serial(tmp_path):
    """The acceptance pin: a seeded fault kills the sweep mid-grid; the
    journalled resume reproduces the uninterrupted run byte for byte."""
    path = tmp_path / "journal.jsonl"
    tasks = _tasks(count=4, num_gates=8)
    baseline = _deterministic(run_tasks(tasks, shots=8, seed=5))
    # Each of these tasks hits limits.check 13 times (post-prepare poll +
    # one per instruction); ordinal 20 lands inside task 1, so exactly one
    # task is journalled before the "crash".
    plan = FaultPlan([FaultRule(FAULT_LIMITS_CHECK, on_hit=20)], seed=0)
    with active(plan):
        with pytest.raises(InjectedFault):
            run_tasks(tasks, shots=8, seed=5, journal=path)
    assert plan.fires() == {FAULT_LIMITS_CHECK: 1}
    journal = SweepJournal(path)
    assert 0 < len(journal) < len(tasks)
    completed_before = len(journal)
    resumed = run_tasks(tasks, shots=8, seed=5, journal=path)
    assert _deterministic(resumed) == baseline
    replayed = sum(1 for r in resumed if r.extra.get("journal_replayed"))
    assert replayed == completed_before


def test_killed_sweep_resumes_byte_identically_parallel(tmp_path):
    path = tmp_path / "journal.jsonl"
    tasks = _tasks(count=4)
    baseline = _deterministic(run_tasks(tasks, shots=8, seed=5))
    plan = FaultPlan([FaultRule(FAULT_LIMITS_CHECK, on_hit=20)], seed=0)
    with active(plan):
        with pytest.raises(InjectedFault):
            run_tasks(tasks, shots=8, seed=5, journal=path)
    resumed = run_tasks(tasks, shots=8, seed=5, jobs=2, journal=path)
    assert _deterministic(resumed) == baseline
    # A second resume replays everything — nothing recomputes.
    again = run_tasks(tasks, shots=8, seed=5, jobs=2, journal=path)
    assert _deterministic(again) == baseline
    assert all(r.extra.get("journal_replayed") for r in again)


def test_terminal_statuses_are_journalled_and_replayed(tmp_path):
    """A timeout under the limits is as deterministic as an ok — it is
    journalled and a resume replays it instead of re-timing-out."""
    path = tmp_path / "journal.jsonl"
    tasks = _tasks(count=2)
    limits = ResourceLimits(max_seconds=0.0)
    first = run_tasks(tasks, limits=limits, journal=path)
    assert all(result.status == "TO" for result in first)
    resumed = run_tasks(tasks, limits=limits, journal=path)
    assert all(r.extra.get("journal_replayed") for r in resumed)
    assert _deterministic(resumed) == _deterministic(first)


def test_journal_write_fault_never_corrupts_previous_entries(tmp_path):
    path = tmp_path / "journal.jsonl"
    tasks = _tasks(count=3)
    baseline = _deterministic(run_tasks(tasks, shots=4, seed=7))
    plan = FaultPlan([FaultRule(FAULT_JOURNAL_WRITE, on_hit=2)], seed=0)
    with active(plan):
        with pytest.raises(InjectedFault):
            run_tasks(tasks, shots=4, seed=7, journal=path)
    journal = SweepJournal(path)
    assert len(journal) == 1 and journal.skipped_lines == 0
    resumed = run_tasks(tasks, shots=4, seed=7, journal=path)
    assert _deterministic(resumed) == baseline


def test_journal_key_separates_index_seed_and_circuit(tmp_path):
    path = tmp_path / "journal.jsonl"
    circuit = generate_random_circuit(3, 6, seed=0)
    other = generate_random_circuit(3, 6, seed=1)
    run_tasks([("bitslice", circuit)] * 2, journal=path)
    # The index keeps two identical tasks of one sweep apart.
    assert len(SweepJournal(path)) == 2
    for tasks, request in (([("bitslice", other)] * 2, {}),
                           ([("qmdd", circuit)] * 2, {}),
                           ([("bitslice", circuit)] * 2, {"shots": 8}),
                           ([("bitslice", circuit)] * 2,
                            {"shots": 8, "seed": 5})):
        resumed = run_tasks(tasks, journal=path, **request)
        assert not any(r.extra.get("journal_replayed") for r in resumed)


def test_timeout_is_not_replayed_under_a_bigger_budget(tmp_path):
    """Regression: the journal key left the limits out, so a TO recorded
    under a tiny budget replayed as TO into a re-run with a real one."""
    path = tmp_path / "journal.jsonl"
    tasks = _tasks(count=2)
    first = run_tasks(tasks, limits=ResourceLimits(max_seconds=0.0),
                      journal=path)
    assert all(result.status == "TO" for result in first)
    budget = ResourceLimits(max_seconds=60.0)
    rerun = run_tasks(tasks, limits=budget, journal=path)
    assert [r.status for r in rerun] == ["ok", "ok"]
    assert not any(r.extra.get("journal_replayed") for r in rerun)
    assert (_deterministic(rerun)
            == _deterministic(run_tasks(tasks, limits=budget)))


def test_auto_task_rekeys_when_limits_change_its_engine(tmp_path):
    """Regression: the journal keyed ``auto`` tasks on the requested
    engine, so a result of the dense engine replayed into a re-run whose
    limits make ``auto`` resolve to the bit-sliced engine."""
    path = tmp_path / "journal.jsonl"
    tasks = [("auto", generate_random_circuit(5, 10, seed=s))
             for s in range(2)]
    first = run_tasks(tasks, shots=8, seed=3, journal=path)
    assert [r.engine for r in first] == ["statevector"] * 2
    narrow = ResourceLimits(max_dense_qubits=4)
    rerun = run_tasks(tasks, shots=8, seed=3, limits=narrow, journal=path)
    assert [r.engine for r in rerun] == ["bitslice"] * 2
    assert not any(r.extra.get("journal_replayed") for r in rerun)
    assert (_deterministic(rerun)
            == _deterministic(run_tasks(tasks, shots=8, seed=3,
                                        limits=narrow)))


def test_manifest_of_an_older_version_reruns(tmp_path):
    """A line of another schema version is skipped, never misread under
    the current key layout: its task simply reruns."""
    path = tmp_path / "journal.jsonl"
    tasks = _tasks(count=2)
    baseline = _deterministic(run_tasks(tasks, shots=4, seed=4,
                                        journal=path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps({**record, "v": 1}) + "\n"
                            for record in records))
    journal = SweepJournal(path)
    assert len(journal) == 0 and journal.skipped_lines == 2
    resumed = run_tasks(tasks, shots=4, seed=4, journal=journal)
    assert not any(r.extra.get("journal_replayed") for r in resumed)
    assert _deterministic(resumed) == baseline


def test_open_journal_coercions(tmp_path):
    assert open_journal(None) is None
    journal = SweepJournal(tmp_path / "j.jsonl")
    assert open_journal(journal) is journal
    assert isinstance(open_journal(tmp_path / "j2.jsonl"), SweepJournal)


def test_complete_final_line_without_newline_is_kept(tmp_path):
    """Regression: a crash after the final record's bytes but before its
    newline used to drop a *complete* entry.  A parseable unterminated
    final line now loads like any other record."""
    path = tmp_path / "journal.jsonl"
    run_tasks(_tasks(count=2), shots=4, seed=6, journal=path)
    text = path.read_text()
    assert text.endswith("\n")
    path.write_text(text.rstrip("\n"))  # the torn-newline crash shape
    journal = SweepJournal(path)
    assert len(journal) == 2
    assert journal.skipped_lines == 0
    resumed = run_tasks(_tasks(count=2), shots=4, seed=6, journal=path)
    assert all(r.extra.get("journal_replayed") for r in resumed)


def test_append_after_unterminated_line_never_fuses_records(tmp_path):
    """Appends are newline-safe: recording into a journal whose last line
    lacks its newline first repairs the termination, so the new record
    never concatenates onto the previous one."""
    path = tmp_path / "journal.jsonl"
    tasks = _tasks(count=3)
    baseline = _deterministic(run_tasks(tasks, shots=4, seed=8))
    run_tasks(tasks[:2], shots=4, seed=8, journal=path)
    path.write_text(path.read_text().rstrip("\n"))
    resumed = run_tasks(tasks, shots=4, seed=8, journal=path)
    assert _deterministic(resumed) == baseline
    # All three records load back individually — nothing fused.
    journal = SweepJournal(path)
    assert len(journal) == 3
    assert journal.skipped_lines == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        json.loads(line)
