"""Substrate performance instrumentation: counters, spans and reports.

The :class:`~repro.bdd.manager.BddManager` maintains raw counters (computed
table hits / misses per operation, unique-table probes, GC pauses, peak live
nodes) and exposes them through ``perf_stats()``.  This module turns those
raw snapshots into something a harness can use:

* :class:`PerfCounters` — a plain accumulating counter bag with JSON export,
  usable by any subsystem that wants named numeric counters;
* :func:`diff_stats` — the delta between two ``perf_stats()`` snapshots,
  with hit rates recomputed from the diffed hits / misses (gauges such as
  ``live_nodes`` report the *after* value);
* :class:`SubstrateSpan` / :func:`substrate_span` — a context manager that
  snapshots a manager on entry and exit and exposes the per-span delta plus
  wall-clock time, so callers can attribute substrate work to a region
  ("this gate", "this benchmark row");
* :func:`stats_to_json` — stable JSON export for regression tracking.
"""

from __future__ import annotations

import json
import time
from typing import Dict, IO, Iterable, Mapping, Optional, Union

from repro.bdd.manager import OP_NAMES

#: Snapshot keys that are point-in-time gauges, not monotone counters; a
#: span reports their value at exit instead of a meaningless difference.
GAUGE_KEYS = frozenset({
    "live_nodes",
    "peak_live_nodes",
    "unique_size",
    "cache_generation",
    # Node counts of the *most recent* reorder, not monotone totals.
    "reorder_nodes_before",
    "reorder_nodes_after",
})

Number = Union[int, float]


class PerfCounters:
    """A named bag of accumulating numeric counters.

    Lightweight by design: the hot path is ``add`` (a dict upsert).  The bag
    merges, snapshots and serialises; it never loses precision (integers stay
    integers until a float is mixed in).
    """

    __slots__ = ("_counts",)

    def __init__(self, initial: Optional[Mapping[str, Number]] = None):
        self._counts: Dict[str, Number] = dict(initial) if initial else {}

    def add(self, name: str, amount: Number = 1) -> None:
        """Increment ``name`` by ``amount`` (creating it at zero)."""
        counts = self._counts
        counts[name] = counts.get(name, 0) + amount

    def update(self, values: Mapping[str, Number]) -> None:
        """Add every entry of ``values`` into the bag."""
        counts = self._counts
        for name, amount in values.items():
            counts[name] = counts.get(name, 0) + amount

    def get(self, name: str, default: Number = 0) -> Number:
        """Current value of ``name`` (``default`` when absent)."""
        return self._counts.get(name, default)

    def rate(self, hits_name: str, misses_name: str) -> float:
        """Hit rate computed from a hits / misses counter pair (0.0 when
        neither has been touched).  The result-cache and session-pool
        counters (``result_cache_*``, ``prefix_*``) report their
        effectiveness through this, mirroring how the substrate's
        ``cache_*_hit_rate`` entries are derived from raw pairs."""
        hits = self._counts.get(hits_name, 0)
        lookups = hits + self._counts.get(misses_name, 0)
        return hits / lookups if lookups else 0.0

    def snapshot(self) -> Dict[str, Number]:
        """A copy of the current counter values."""
        return dict(self._counts)

    def reset(self) -> None:
        """Drop every counter."""
        self._counts.clear()

    def merge(self, other: "PerfCounters") -> "PerfCounters":
        """Accumulate ``other`` into ``self`` and return ``self``."""
        self.update(other._counts)
        return self

    def to_json(self, indent: int = 2) -> str:
        """Counters as a stable (sorted-key) JSON object."""
        return json.dumps(self._counts, indent=indent, sort_keys=True)

    def __len__(self) -> int:
        return len(self._counts)

    def __getitem__(self, name: str) -> Number:
        return self._counts[name]

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def __repr__(self) -> str:
        return f"PerfCounters({self._counts!r})"


def _recompute_hit_rates(stats: Dict[str, Number]) -> None:
    """Overwrite every ``cache_*_hit_rate`` entry from the hit / miss pairs
    present in ``stats`` (diffed rates are meaningless otherwise)."""
    for name in OP_NAMES:
        hits = stats.get(f"cache_{name}_hits", 0)
        misses = stats.get(f"cache_{name}_misses", 0)
        lookups = hits + misses
        stats[f"cache_{name}_hit_rate"] = hits / lookups if lookups else 0.0
    hits = stats.get("cache_hits", 0)
    misses = stats.get("cache_misses", 0)
    lookups = hits + misses
    stats["cache_hit_rate"] = hits / lookups if lookups else 0.0


def diff_stats(before: Mapping[str, Number],
               after: Mapping[str, Number]) -> Dict[str, Number]:
    """Delta between two ``perf_stats()`` snapshots.

    Counters are subtracted, gauges take the ``after`` value, and hit rates
    are recomputed from the diffed hits / misses so the result describes the
    interval itself.
    """
    delta: Dict[str, Number] = {}
    for key, after_value in after.items():
        if key in GAUGE_KEYS:
            delta[key] = after_value
        elif key.endswith("_hit_rate"):
            continue  # recomputed below
        else:
            delta[key] = after_value - before.get(key, 0)
    _recompute_hit_rates(delta)
    return delta


class SubstrateSpan:
    """Context manager attributing substrate work to a region of code.

    Usage::

        with substrate_span(manager) as span:
            ...  # BDD work
        span.stats             # per-span counter deltas + hit rates
        span.elapsed_seconds   # wall-clock time of the region

    ``stats`` is ``None`` while the span is still open.  Spans nest freely
    (each holds its own entry snapshot) and are cheap: two ``perf_stats()``
    snapshots per span, no per-operation overhead.
    """

    __slots__ = ("manager", "stats", "elapsed_seconds", "_entry", "_started")

    def __init__(self, manager):
        self.manager = manager
        self.stats: Optional[Dict[str, Number]] = None
        self.elapsed_seconds = 0.0
        self._entry: Optional[Dict[str, Number]] = None
        self._started = 0.0

    def __enter__(self) -> "SubstrateSpan":
        self._entry = self.manager.perf_stats()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.elapsed_seconds = time.perf_counter() - self._started
        self.stats = diff_stats(self._entry, self.manager.perf_stats())
        self.stats["elapsed_seconds"] = self.elapsed_seconds
        return None


def substrate_span(manager) -> SubstrateSpan:
    """Open a :class:`SubstrateSpan` over ``manager`` (see class docs)."""
    return SubstrateSpan(manager)


def stats_to_json(stats: Mapping[str, Number], indent: int = 2) -> str:
    """Stable JSON dump of a stats mapping (sorted keys)."""
    return json.dumps(dict(stats), indent=indent, sort_keys=True)


def save_stats(stats: Mapping[str, Number],
               destination: Union[str, IO[str]]) -> None:
    """Write :func:`stats_to_json` to a path or an open text handle."""
    payload = stats_to_json(stats)
    if hasattr(destination, "write"):
        destination.write(payload)  # type: ignore[union-attr]
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(payload)


def merge_span_stats(spans: Iterable[Mapping[str, Number]]) -> Dict[str, Number]:
    """Accumulate several span stats into one (rates recomputed at the end)."""
    total = PerfCounters()
    for stats in spans:
        total.update({key: value for key, value in stats.items()
                      if not key.endswith("_hit_rate") and key not in GAUGE_KEYS})
    merged = total.snapshot()
    _recompute_hit_rates(merged)
    return merged
