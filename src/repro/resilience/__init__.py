"""repro.resilience — fault injection, retry/backoff, and crash-safe sweeps.

The robustness layer of the reproduction: deterministic chaos
(:mod:`repro.resilience.faults`), classified retries with decorrelated
jitter (:mod:`repro.resilience.retry`), and the append-only sweep journal
that lets a killed grid resume byte-identically
(:mod:`repro.resilience.journal`).  The graceful-degradation half —
worker-crash isolation, SIGTERM drain, the ``health`` verb — lives in
:mod:`repro.service`, instrumented through the fault points defined here.
"""

from repro._exports import lazy_exports

# Where each public name lives, imported on first access (PEP 562): the
# limit checks import :mod:`~repro.resilience.faults` on every run, and
# that must not load :mod:`~repro.resilience.retry` (asyncio) or
# :mod:`~repro.resilience.journal`.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.resilience.faults": (
        "FAULT_CLIENT_RECV", "FAULT_CLIENT_SEND", "FAULT_JOURNAL_WRITE",
        "FAULT_LIMITS_CHECK", "FAULT_POINTS", "FAULT_SERVER_SEND",
        "FAULT_SESSION_APPEND", "FAULT_WORKER_JOB", "FAULT_WORKER_LOOP",
        "FaultPlan", "FaultRule", "InjectedFault", "active", "current_plan",
        "install", "maybe_fire", "uninstall"),
    "repro.resilience.journal": ("JOURNAL_VERSION", "SweepJournal",
                                 "open_journal"),
    "repro.resilience.retry": ("RETRYABLE_CODES", "RetryGaveUp",
                               "RetryPolicy", "connect_with_retry",
                               "is_retryable"),
})

__all__ = [
    "FAULT_CLIENT_RECV",
    "FAULT_CLIENT_SEND",
    "FAULT_JOURNAL_WRITE",
    "FAULT_LIMITS_CHECK",
    "FAULT_POINTS",
    "FAULT_SERVER_SEND",
    "FAULT_SESSION_APPEND",
    "FAULT_WORKER_JOB",
    "FAULT_WORKER_LOOP",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "JOURNAL_VERSION",
    "RETRYABLE_CODES",
    "RetryGaveUp",
    "RetryPolicy",
    "SweepJournal",
    "active",
    "connect_with_retry",
    "current_plan",
    "install",
    "is_retryable",
    "maybe_fire",
    "open_journal",
    "uninstall",
]
