"""Bounded priority job queue driving a thread worker pool.

The server's asyncio loop must never block on a BDD apply, so every
simulation request becomes a :class:`Job` executed on one of the
scheduler's worker threads; the loop awaits the job's
:class:`concurrent.futures.Future` (via ``asyncio.wrap_future``) and stays
responsive for stats, cancellation and new submissions in the meantime.

Three properties are load-bearing:

* **Bounded depth with structured backpressure.**  ``max_depth`` caps the
  number of *queued* (not yet running) jobs; a submission beyond the cap
  raises :class:`QueueFullError` immediately — the caller gets a typed
  reject carrying depth and capacity, never an unbounded latency tail.
* **Priorities with FIFO ties.**  Higher ``priority`` dequeues first;
  equal priorities run in submission order (a monotone sequence number
  breaks heap ties), so the default-priority traffic is strictly FIFO.
* **Cooperative cancellation.**  Every job owns a ``threading.Event``
  cancel token.  Cancelling a *queued* job concludes it instantly (its
  future raises :class:`~repro.exceptions.JobCancelledError`; the job
  function never runs).  Cancelling a *running* job sets the token, which
  :meth:`repro.engines.limits.LimitEnforcer.check` polls between gates —
  the run unwinds through the same ``finally`` blocks as a timeout, so
  session leases and locks are always released.

Determinism note: the scheduler never re-derives seeds or splits work —
a sweep job runs its whole task list serially inside one job function
(:func:`repro.engines.frontdoor.run_tasks` derives the per-task seeds),
which is what keeps wire sweeps byte-identical to local ``run_sweep()``.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from typing import Callable, Dict, List, Optional

from repro.exceptions import JobCancelledError, SimulationError
from repro.perf.counters import PerfCounters
from repro.resilience.faults import FAULT_WORKER_JOB, FAULT_WORKER_LOOP, maybe_fire

#: How many finished job ids :meth:`JobScheduler.cancel` can still
#: classify as ``"finished"``; ids older than the newest this many decay
#: to ``"unknown"`` (bounded memory beats a perfect answer for ancient
#: ids).  Membership checks are O(1) — a set mirrors the eviction deque.
FINISHED_IDS_CAP = 1024

#: Job lifecycle states.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_CANCELLED = "cancelled"
JOB_FAILED = "failed"


class QueueFullError(SimulationError):
    """Submission rejected: the bounded job queue is at capacity.

    This is the scheduler's structured backpressure signal — the server
    maps it to an ``error`` reply with code ``queue_full`` (carrying
    ``depth`` and ``capacity``) instead of letting requests pile up into
    an unbounded latency tail.
    """

    def __init__(self, depth: int, capacity: int):
        super().__init__(f"job queue full ({depth}/{capacity} queued)")
        self.depth = depth
        self.capacity = capacity


class DrainingError(SimulationError):
    """Submission rejected: the scheduler is draining for shutdown.

    Distinct from :class:`QueueFullError` so clients can classify it — a
    draining server is about to disappear, so the right reaction is to
    retry *elsewhere* (or after the replacement comes up), not to back off
    and re-submit to the same queue.  The server maps it to an ``error``
    reply with code ``draining``.
    """

    def __init__(self):
        super().__init__("server is draining; not accepting new jobs")


class Job:
    """One scheduled unit of work: the job function, its cancel token and
    the future the submitter awaits.

    ``fn`` is called as ``fn(cancel_event)`` on a worker thread; its return
    value resolves :attr:`future`, an exception rejects it
    (:class:`~repro.exceptions.JobCancelledError` marks the job cancelled
    rather than failed).
    """

    __slots__ = ("job_id", "request_kind", "priority", "fn", "future",
                 "cancel_event", "submitted_at", "started_at", "state")

    def __init__(self, job_id: str, fn: Callable, request_kind: str,
                 priority: int):
        self.job_id = job_id
        self.request_kind = request_kind
        self.priority = priority
        self.fn = fn
        self.future: Future = Future()
        self.cancel_event = threading.Event()
        self.submitted_at = time.perf_counter()
        self.started_at: Optional[float] = None
        self.state = JOB_QUEUED


class JobScheduler:
    """Bounded priority queue plus a fixed pool of worker threads.

    ``max_depth`` bounds the queued backlog (running jobs do not count),
    ``workers`` sizes the thread pool, and ``counters`` (a shared
    :class:`~repro.perf.counters.PerfCounters`) accumulates the
    ``service_jobs_*`` / ``service_queue_*`` series.  All methods are
    thread-safe.
    """

    def __init__(self, max_depth: int = 32, workers: int = 2,
                 counters: Optional[PerfCounters] = None):
        if max_depth < 1:
            raise ValueError("max_depth must be positive")
        if workers < 1:
            raise ValueError("workers must be positive")
        self.max_depth = max_depth
        self.workers = workers
        self.counters = counters if counters is not None else PerfCounters()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._heap: List[tuple] = []
        self._jobs: Dict[str, Job] = {}
        self._finished: set = set()
        self._finished_order: deque = deque()
        self._seq = itertools.count()
        self._ids = itertools.count(1)
        self._threads: List[threading.Thread] = []
        self._stopping = False
        self._draining = False
        self._running = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the worker threads (idempotent)."""
        with self._lock:
            if self._threads:
                return
            self._stopping = False
            threads = [threading.Thread(target=self._worker,
                                        name=f"repro-service-worker-{index}",
                                        daemon=True)
                       for index in range(self.workers)]
            self._threads = threads
        for thread in threads:
            thread.start()

    def stop(self, cancel_pending: bool = True) -> None:
        """Stop the pool: cancel every queued job (unless told otherwise),
        signal running jobs' cancel tokens, and join the workers."""
        with self._not_empty:
            self._stopping = True
            if cancel_pending:
                for _, _, job in self._heap:
                    if job.state == JOB_QUEUED:
                        self._conclude_cancelled_locked(
                            job, "cancelled: scheduler stopping")
                self._heap.clear()
            for job in self._jobs.values():
                job.cancel_event.set()
            self._not_empty.notify_all()
        for thread in self._threads:
            thread.join(timeout=30)
        self._threads = []

    def begin_drain(self) -> None:
        """Enter drain mode: reject new submissions with
        :class:`DrainingError` while queued and running jobs keep
        executing.  The graceful-shutdown sequence is ``begin_drain()`` →
        :meth:`wait_idle` → :meth:`stop`."""
        with self._lock:
            self._draining = True

    @property
    def draining(self) -> bool:
        """True between :meth:`begin_drain` and :meth:`stop`."""
        return self._draining

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is queued or running (True), or ``timeout``
        seconds elapse first (False).  Polling, not signalled — this runs
        on the drain path where tens of milliseconds are irrelevant."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                if not self._jobs and self._running == 0:
                    return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.02)

    def alive_workers(self) -> int:
        """Worker threads currently alive — the health probe's liveness
        gauge (the hardened loop keeps this equal to ``workers`` even
        through injected machinery crashes)."""
        return sum(1 for thread in self._threads if thread.is_alive())

    # ------------------------------------------------------------------ #
    # submission / cancellation
    # ------------------------------------------------------------------ #
    def submit(self, fn: Callable, request_kind: str = "job",
               priority: int = 0) -> Job:
        """Enqueue ``fn`` (called as ``fn(cancel_event)`` on a worker).

        Raises :class:`QueueFullError` when the queued backlog is at
        ``max_depth`` — the structured reject, never a hang —
        :class:`DrainingError` during a graceful drain, and
        ``RuntimeError`` after :meth:`stop`.
        """
        with self._not_empty:
            if self._stopping:
                raise RuntimeError("scheduler is stopped")
            if self._draining:
                self.counters.add("drain_rejects")
                raise DrainingError()
            depth = self._queued_depth_locked()
            if depth >= self.max_depth:
                self.counters.add("service_queue_rejects")
                raise QueueFullError(depth, self.max_depth)
            job = Job(f"j{next(self._ids)}", fn, request_kind, priority)
            heapq.heappush(self._heap, (-priority, next(self._seq), job))
            self._jobs[job.job_id] = job
            self.counters.add("service_jobs_submitted")
            self._not_empty.notify()
            return job

    def cancel(self, job_id: str) -> str:
        """Cancel a job by id; returns the outcome.

        ``"cancelled"``: the job was still queued and is concluded now
        (its future raises ``JobCancelledError``; the function never
        runs).  ``"cancelling"``: the job is running and its token is
        set — it stops at the next gate boundary.  ``"finished"``: the
        job already completed.  ``"unknown"``: no such id — including
        finished ids older than the newest :data:`FINISHED_IDS_CAP`
        completions, which decay out of the bounded finished-id set.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return "finished" if job_id in self._finished else "unknown"
            if job.state == JOB_QUEUED:
                self._conclude_cancelled_locked(job,
                                                "cancelled while queued")
                return "cancelled"
            job.cancel_event.set()
            return "cancelling"

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def _queued_depth_locked(self) -> int:
        return sum(1 for _, _, job in self._heap
                   if job.state == JOB_QUEUED)

    def queue_depth(self) -> int:
        """Number of queued (not yet running) jobs."""
        with self._lock:
            return self._queued_depth_locked()

    def stats(self) -> Dict[str, int]:
        """Queue gauges for the admin surface: depth, capacity, running
        jobs and worker count."""
        with self._lock:
            return {"queue_depth": self._queued_depth_locked(),
                    "queue_capacity": self.max_depth,
                    "running": self._running,
                    "workers": self.workers}

    # ------------------------------------------------------------------ #
    # worker internals
    # ------------------------------------------------------------------ #
    def _remember_finished_locked(self, job_id: str) -> None:
        self._finished.add(job_id)
        self._finished_order.append(job_id)
        while len(self._finished_order) > FINISHED_IDS_CAP:
            self._finished.discard(self._finished_order.popleft())

    def _conclude_cancelled_locked(self, job: Job, detail: str) -> None:
        job.state = JOB_CANCELLED
        job.cancel_event.set()
        self._jobs.pop(job.job_id, None)
        self._remember_finished_locked(job.job_id)
        self.counters.add("service_jobs_cancelled")
        try:
            job.future.set_exception(JobCancelledError(detail))
        except InvalidStateError:
            pass  # already cancelled from the submitter's side

    def _finish(self, job: Job, state: str) -> None:
        with self._lock:
            self._running -= 1
            job.state = state
            self._jobs.pop(job.job_id, None)
            self._remember_finished_locked(job.job_id)

    def _execute(self, job: Job) -> None:
        """Run one claimed job and conclude it — the only frame allowed to
        resolve ``job.future`` on the happy path."""
        try:
            maybe_fire(FAULT_WORKER_JOB)
            result = job.fn(job.cancel_event)
        except JobCancelledError as exc:
            self._finish(job, JOB_CANCELLED)
            self.counters.add("service_jobs_cancelled")
            job.future.set_exception(exc)
        except BaseException as exc:  # noqa: BLE001 - jobs report all failures
            self._finish(job, JOB_FAILED)
            self.counters.add("service_jobs_failed")
            job.future.set_exception(exc)
        else:
            self._finish(job, JOB_DONE)
            self.counters.add("service_jobs_completed")
            job.future.set_result(result)

    def _crash_job(self, job: Job, exc: BaseException) -> None:
        """Conclude a claimed job whose *worker loop* (not job function)
        crashed: fail it if still live, swallow resolution races."""
        if job.state == JOB_RUNNING:
            self._finish(job, JOB_FAILED)
            self.counters.add("service_jobs_failed")
        try:
            job.future.set_exception(exc)
        except InvalidStateError:
            pass  # already concluded before the machinery crashed

    def _worker(self) -> None:
        while True:
            with self._not_empty:
                while not self._heap and not self._stopping:
                    self._not_empty.wait()
                if not self._heap:
                    return  # stopping with an empty queue
                _, _, job = heapq.heappop(self._heap)
                if job.state != JOB_QUEUED:
                    continue  # cancelled while queued; already concluded
                if not job.future.set_running_or_notify_cancel():
                    # The future was cancelled from the submitter's side
                    # (e.g. its connection vanished before the job started):
                    # conclude without ever running the job function.
                    job.state = JOB_CANCELLED
                    self._jobs.pop(job.job_id, None)
                    self._remember_finished_locked(job.job_id)
                    self.counters.add("service_jobs_cancelled")
                    continue
                job.state = JOB_RUNNING
                job.started_at = time.perf_counter()
                self._running += 1
                self.counters.add("service_queue_wait_seconds",
                                  job.started_at - job.submitted_at)
            # Worker-crash isolation: anything that escapes outside the
            # job's own try/except — including the FAULT_WORKER_LOOP
            # injection point — fails the claimed job but never kills the
            # thread, so one poisoned request cannot shrink the pool.
            try:
                maybe_fire(FAULT_WORKER_LOOP)
                self._execute(job)
            except BaseException as exc:  # noqa: BLE001 - loop must survive
                self.counters.add("service_worker_crashes")
                self._crash_job(job, exc)


__all__ = ["FINISHED_IDS_CAP", "JOB_QUEUED", "JOB_RUNNING", "JOB_DONE",
           "JOB_CANCELLED", "JOB_FAILED", "DrainingError", "Job",
           "JobScheduler", "QueueFullError"]
