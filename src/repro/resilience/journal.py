"""Crash-safe sweep journal: an append-only manifest of completed tasks.

A Table VI-scale sweep that dies at task 180 of 200 should not redo the
first 179.  The journal is the recovery mechanism: when
:func:`repro.engines.frontdoor.run_tasks` runs with ``journal=``, every
terminal task result is appended to a JSONL manifest as one self-contained
line — ``{"v": 2, "key": ..., "result": <RunResult.to_wire()>}``.  The
front door builds the key from the task's index and its run key
(:func:`repro.cache.result_cache.run_key`: circuit fingerprint, resolved
engine, seed, shots, reorder and limits), so a journalled result is
replayed only into a task that would reproduce it.  A resumed sweep
reloads the manifest, replays journalled results verbatim (marked
``journal_replayed`` in their provenance extras) and only executes the
tasks that are missing.  Because the replayed payload is the lossless
wire form, the resumed sweep's ``to_dict(timings=False)`` output is
byte-identical to an uninterrupted run.

Crash-safety invariants:

* **Append-only, one line per record** — a crash mid-write can only damage
  the final line, never a completed one.
* Each record is flushed *and fsynced* before the runner reports the task
  complete, so a journalled task genuinely survives power loss.
* Loading tolerates a truncated or garbled trailing line (the interrupted
  write) by skipping it — the task simply reruns.  A final line whose JSON
  is *complete* but merely lacks its trailing newline (the crash happened
  between the payload write and the newline reaching disk) is a valid
  record and is kept; appends are newline-safe, terminating such a line
  before writing so the next record never glues onto it.  Lines of another
  schema version are skipped the same way, so a manifest written under an
  older key layout reruns its tasks instead of being misread.
* Editing the task list or the limits between runs invalidates exactly the
  tasks whose key changed; the ``index`` component keeps repeated
  identical tasks in one sweep distinct.

The journal deliberately records *every* terminal status — a ``TO`` under
given limits is as deterministic as an ``ok`` and equally not worth
recomputing; under other limits the key differs and the task runs again.
Delete the manifest (or pass a fresh path) to force reruns.
"""

from __future__ import annotations

import io
import json
import os
import threading
from typing import Dict, Optional, Union

from repro.engines.result import RunResult

#: Journal record schema version (``v`` field of every line).
JOURNAL_VERSION = 2


class SweepJournal:
    """The append-only completed-task manifest backing crash-safe sweeps.

    Opening a journal loads every intact record from ``path`` (a missing
    file is an empty journal); :meth:`record` appends, fsyncing each line;
    :meth:`lookup` rebuilds a journalled :class:`RunResult`.  Thread-safe —
    the parallel sweep path records from future callbacks.
    """

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._entries: Dict[str, dict] = {}
        self._skipped_lines = 0
        self._load()

    def _load(self) -> None:
        try:
            handle = open(self.path, "r", encoding="utf-8")
        except FileNotFoundError:
            return
        with handle:
            # Iterating lines keeps a final line that lacks its trailing
            # newline: completeness is judged by the JSON parse below, not
            # by the terminator — a record whose newline never reached disk
            # is still a finished record.
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    if record.get("v") != JOURNAL_VERSION:
                        raise ValueError("unknown journal version")
                    key = record["key"]
                    if not isinstance(key, str):
                        raise ValueError("non-string journal key")
                    # Validate eagerly so a corrupt record is discovered
                    # at load time (and rerun), not mid-replay.
                    RunResult.from_wire(record["result"])
                except (ValueError, KeyError, TypeError, AttributeError):
                    # A truncated/garbled line — almost always the final
                    # line of a crashed run.  Skip it; the task reruns.
                    self._skipped_lines += 1
                    continue
                self._entries[key] = record["result"]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def skipped_lines(self) -> int:
        """Undecodable lines dropped at load (truncated trailing writes)."""
        return self._skipped_lines

    def lookup(self, key: str) -> Optional[RunResult]:
        """The journalled result for ``key``, rebuilt fresh on every call
        (callers may mutate results), with ``journal_replayed`` marked in
        its provenance extras; ``None`` when the task is not journalled."""
        with self._lock:
            payload = self._entries.get(key)
        if payload is None:
            return None
        result = RunResult.from_wire(payload)
        result.extra["journal_replayed"] = 1
        return result

    def record(self, key: str, result: RunResult) -> None:
        """Append ``result`` under ``key`` (first writer wins — replayed or
        duplicate completions are not re-journalled), flushing and fsyncing
        so the record survives an immediate crash."""
        if result.extra.get("journal_replayed"):
            return
        payload = result.to_wire()
        # The provenance extras are run-shaped noise (cache hits, live-node
        # gauges); strip the replay marker defensively should one leak in.
        payload["extra"] = {k: v for k, v in payload["extra"].items()
                            if k != "journal_replayed"}
        with self._lock:
            if key in self._entries:
                return
            from repro.resilience.faults import FAULT_JOURNAL_WRITE, maybe_fire
            maybe_fire(FAULT_JOURNAL_WRITE)
            self._append_line(json.dumps({"v": JOURNAL_VERSION, "key": key,
                                          "result": payload},
                                         sort_keys=True))
            self._entries[key] = payload

    def _append_line(self, text: str) -> None:
        """Append one record line, flushed and fsynced.

        Newline-safe: when a crashed writer left the file's final line
        unterminated, the missing newline is written first, so a complete
        trailing record is preserved instead of being garbled by this
        append (the load path accepts such a line as a valid record).
        """
        payload = text.encode("utf-8") + b"\n"
        try:
            with open(self.path, "rb") as tail:
                tail.seek(0, os.SEEK_END)
                if tail.tell():
                    tail.seek(-1, os.SEEK_END)
                    if tail.read(1) != b"\n":
                        payload = b"\n" + payload
        except FileNotFoundError:
            pass
        with open(self.path, "ab") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())

    def keys(self):
        """The journalled task keys (a snapshot list)."""
        with self._lock:
            return list(self._entries)

    def dump(self, stream: Optional[io.TextIOBase] = None) -> str:
        """Human-oriented summary line (used by ``--journal`` verbose
        logging): entry count, skipped lines, path."""
        text = (f"journal {self.path}: {len(self._entries)} entries"
                + (f", {self._skipped_lines} skipped lines" if self._skipped_lines else ""))
        if stream is not None:
            stream.write(text + "\n")
        return text


def open_journal(journal: Union[None, str, os.PathLike, SweepJournal]) -> Optional[SweepJournal]:
    """Coerce the ``journal=`` argument of ``run_tasks``/``run_sweep`` —
    ``None``, a path, or an existing :class:`SweepJournal` — to a journal
    instance (or ``None`` when journalling is off)."""
    if journal is None or isinstance(journal, SweepJournal):
        return journal
    return SweepJournal(journal)


__all__ = [
    "JOURNAL_VERSION",
    "SweepJournal",
    "open_journal",
]
