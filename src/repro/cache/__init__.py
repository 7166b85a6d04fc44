"""Cross-run amortisation: fingerprints, result memoisation, prefix reuse.

Production traffic is repetitive — the same GHZ/adder/QAOA shapes re-run
with different shot counts or a few appended gates — yet a plain
``repro.run()`` rebuilds every manager from ``|0>`` per call.  This package
amortises that work across requests, exploiting the paper's headline
property: the exact omega-algebra representation makes every state and
every fixed-seed result bit-reproducible, so a cached result or a resumed
prefix is *provably identical* to a cold run (pinned by the byte-identity
tests in ``tests/cache/``).

Three layers, usable independently:

* :func:`circuit_fingerprint` — a stable content hash over the normalised
  gate list (SWAPs expanded, names ignored, measurement layout included);
* :class:`ResultCache` — a bounded thread-safe LRU of finished
  :class:`~repro.engines.result.RunResult` records, keyed on
  :func:`run_key` (the run identity journals and checkpoints share),
  plugged into ``repro.run(..., cache=...)`` and the sweep executors;
* :class:`SessionPool` — retained bit-sliced session states (slice roots +
  manager) that ``repro.run(..., sessions=...)`` resumes from when an
  incoming circuit extends a retained gate-sequence prefix, instead of
  replaying from ``|0>``.

See ``docs/caching.md`` for the fingerprint spec, the eviction policies and
the prefix-resume exactness argument.
"""

# The one place that settles the import order of the two packages: the
# cache modules import ``repro.engines.base``, whose package imports the
# front door, which imports the cache modules.  Resolving the engines
# package first lets ``import repro.cache...`` be a process's first import.
import repro.engines  # noqa: F401
from repro.cache.fingerprint import (
    FINGERPRINT_VERSION,
    circuit_fingerprint,
    gate_token,
    gate_tokens,
)
from repro.cache.result_cache import (
    CACHEABLE_STATUSES,
    ResultCache,
    RunKey,
    cacheable_request,
    normalise_reorder,
    run_key,
)
from repro.cache.sessions import SessionLease, SessionPool

__all__ = [
    "CACHEABLE_STATUSES",
    "FINGERPRINT_VERSION",
    "ResultCache",
    "RunKey",
    "SessionLease",
    "SessionPool",
    "cacheable_request",
    "circuit_fingerprint",
    "gate_token",
    "gate_tokens",
    "normalise_reorder",
    "run_key",
]
