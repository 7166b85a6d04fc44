"""A bounded, thread-safe LRU cache of completed :class:`RunResult` records.

Production traffic against a simulator is repetitive: the same circuit
shapes re-run with identical parameters.  Because every engine here is
deterministic at fixed seed, the :class:`~repro.engines.result.RunResult`
of a completed run can be replayed *verbatim* for a later identical
request — cache hits are provably identical to cold runs, pinned by the
byte-identity tests in ``tests/cache/``.

Every key is a :class:`RunKey` built by :func:`run_key`, the one place
that decides what counts as "the same run":

``(fingerprint, engine, seed, shots, reorder, limits)``

* ``fingerprint`` — the canonical circuit fingerprint
  (:func:`repro.cache.circuit_fingerprint`),
* ``engine`` — the *resolved* canonical engine name (aliases collapse onto
  their target; ``"auto"`` requests key on whatever the selector picked),
* ``seed`` / ``shots`` — the sampling request (unseeded sampling is never
  cached: replaying one draw would silently freeze fresh randomness),
* ``reorder`` — the normalised reordering threshold (reordering changes
  node-count statistics),
* ``limits`` — the TO/MO budget triple: a run that finished under a 60 s
  budget may legitimately time out under a 1 s one, so serving it from
  cache would fabricate a result the cold run cannot produce.

The front door derives every other key from this one.  The sweep journal
keys each task on its index plus the run key
(:mod:`repro.resilience.journal`), so a result is replayed only under the
limits and the resolved engine that produced it.  Checkpoints key on
:attr:`RunKey.state` — fingerprint, engine and reorder, what the engine's
state after the gates depends on — with the task index in front in
sweeps; budgets stay out, so a run stopped at TO/MO resumes from its
checkpoint under a bigger budget.

Entries are bounded both by count and by (approximate, serialised) bytes;
eviction is least-recently-used.  All public methods are thread-safe.  The
``counters`` bag exposes ``result_cache_hits`` / ``result_cache_misses`` /
``result_cache_evictions`` / ``result_cache_stores`` and the
``result_cache_bytes`` / ``result_cache_entries`` gauges.
"""

from __future__ import annotations

import copy
import json
import threading
from collections import OrderedDict
from typing import Dict, NamedTuple, Optional, Tuple, Union

from repro.cache.fingerprint import circuit_fingerprint
from repro.circuit.circuit import QuantumCircuit
from repro.engines.base import DEFAULT_AUTO_REORDER_THRESHOLD
from repro.engines.limits import ResourceLimits
from repro.engines.result import STATUS_OK, STATUS_UNSUPPORTED, RunResult
from repro.perf.counters import PerfCounters

#: Outcome classes that are deterministic re-runnable facts about a
#: (circuit, engine, seed, shots, reorder, limits) tuple.  TO/MO/crash
#: outcomes depend on wall-clock scheduling and check cadence, so they are
#: recomputed every time rather than cached.
CACHEABLE_STATUSES = frozenset({STATUS_OK, STATUS_UNSUPPORTED})


class RunKey(NamedTuple):
    """The identity of one run request (see the module docstring)."""

    fingerprint: str
    engine: str
    seed: Optional[int]
    shots: Optional[int]
    reorder: Optional[int]
    limits: Tuple[Optional[float], Optional[int], int]

    @property
    def state(self) -> Tuple[str, str, Optional[int]]:
        """The state part ``(fingerprint, engine, reorder)``: what the
        engine's state after the gates depends on, and so the identity of
        a checkpoint.  The sampling request acts after the gates, and the
        budgets only decide where a run stops."""
        return self.fingerprint, self.engine, self.reorder


def normalise_reorder(reorder: Union[bool, int, None]) -> Optional[int]:
    """The reordering request as a canonical threshold (``None`` = off).

    Mirrors the front door's interpretation: ``True`` means the default
    threshold, ``False``/``None`` mean off, an integer is used directly —
    so ``reorder=True`` and ``reorder=25_000`` share a cache key exactly
    when the default threshold is 25 000.
    """
    if reorder is None or reorder is False:
        return None
    if reorder is True:
        return DEFAULT_AUTO_REORDER_THRESHOLD
    return int(reorder)


def cacheable_request(shots: Optional[int], seed: Optional[int]) -> bool:
    """True when a request's outputs are deterministic enough to memoise:
    no sampling at all, or sampling under a fixed seed.  An unseeded
    ``shots=`` request wants fresh randomness per call; caching it would
    replay one draw forever."""
    return shots is None or seed is not None


def run_key(circuit: QuantumCircuit, engine: str,
            seed: Optional[int], shots: Optional[int],
            reorder: Union[bool, int, None],
            limits: Optional[ResourceLimits] = None) -> RunKey:
    """The :class:`RunKey` of one run request (see the module docstring).

    ``engine`` must already be resolved to a canonical engine name (the
    front door resolves aliases and ``"auto"`` before keying).
    """
    limits = limits or ResourceLimits()
    return RunKey(circuit_fingerprint(circuit), engine, seed, shots,
                  normalise_reorder(reorder),
                  (limits.max_seconds, limits.max_nodes,
                   limits.max_dense_qubits))


def _estimate_entry_bytes(result: RunResult) -> int:
    """Approximate retained size of one entry: the length of its full JSON
    serialisation (cheap, deterministic, and proportional to the real
    footprint, which is dominated by ``counts`` and ``extra``)."""
    return len(json.dumps(result.to_dict(timings=True), sort_keys=True,
                          default=str))


class ResultCache:
    """Bounded thread-safe LRU cache of finished run results.

    Parameters
    ----------
    max_entries:
        Entry-count bound (least-recently-used eviction past it).
    max_bytes:
        Approximate byte bound over the serialised entries; entries are
        evicted LRU-first until the total fits.  A single result larger
        than the bound is simply not stored.
    """

    def __init__(self, max_entries: int = 256,
                 max_bytes: int = 32 * 1024 * 1024):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[RunKey, Tuple[RunResult, int]]" = OrderedDict()
        self._total_bytes = 0
        #: Hit / miss / eviction / store counters plus size gauges.
        self.counters = PerfCounters()

    # ------------------------------------------------------------------ #
    # lookup / store
    # ------------------------------------------------------------------ #
    def lookup(self, key: RunKey) -> Optional[RunResult]:
        """The cached result for ``key``, or ``None``.

        Hits return a deep copy (callers may mutate their result freely)
        with ``extra["cache_hit"] = 1`` added — a provenance marker that the
        deterministic serialisation ``to_dict(timings=False)`` excludes, so
        a hit stays byte-identical to the cold run it replays.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.counters.add("result_cache_misses")
                return None
            self._entries.move_to_end(key)
            self.counters.add("result_cache_hits")
            result = copy.deepcopy(entry[0])
        result.extra["cache_hit"] = 1
        return result

    def store(self, key: RunKey, result: RunResult) -> bool:
        """Insert ``result`` under ``key``; returns True when stored.

        Non-cacheable outcomes (see :data:`CACHEABLE_STATUSES`) and results
        larger than the byte bound are rejected.  The stored copy is
        stripped of provenance markers so a future hit replays the cold
        run, not the hit-of-a-hit.
        """
        if result.status not in CACHEABLE_STATUSES:
            return False
        kept = copy.deepcopy(result)
        kept.extra.pop("cache_hit", None)
        size = _estimate_entry_bytes(kept)
        if size > self.max_bytes:
            return False
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._total_bytes -= previous[1]
            self._entries[key] = (kept, size)
            self._total_bytes += size
            self.counters.add("result_cache_stores")
            while (len(self._entries) > self.max_entries
                   or self._total_bytes > self.max_bytes):
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self._total_bytes -= evicted_size
                self.counters.add("result_cache_evictions")
        return True

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: RunKey) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def total_bytes(self) -> int:
        """Approximate serialised size of all retained entries."""
        with self._lock:
            return self._total_bytes

    def hit_rate(self) -> float:
        """Lifetime hit rate of :meth:`lookup` calls."""
        return self.counters.rate("result_cache_hits", "result_cache_misses")

    def stats(self) -> Dict[str, float]:
        """Counter snapshot plus the size gauges and the lifetime hit rate."""
        snapshot = self.counters.snapshot()
        with self._lock:
            snapshot["result_cache_entries"] = len(self._entries)
            snapshot["result_cache_bytes"] = self._total_bytes
        snapshot["result_cache_hit_rate"] = self.hit_rate()
        return snapshot

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._total_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ResultCache(entries={len(self)}, "
                f"bytes={self.total_bytes}/{self.max_bytes})")


__all__ = ["CACHEABLE_STATUSES", "ResultCache", "RunKey",
           "cacheable_request", "normalise_reorder", "run_key"]
