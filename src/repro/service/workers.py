"""The worker pool: threads draining the job queue through the pipeline.

Each worker thread loops claim → execute → complete/fail:

* execution goes through :func:`repro.service.api.execute_job` with the
  worker's own connection to the shared SQLite experiment store, so every
  allocation is a read-through cache access — a job whose cells are
  already stored completes with **zero allocator invocations** (the e2e
  tests assert this via the ``store.hit``/``store.miss`` counters);
* each job runs under a fresh :class:`~repro.telemetry.Tracer` bound as
  the thread's ambient tracer (the binding is thread-local, so concurrent
  workers never cross-talk), wrapped in a ``service:job`` span; the job's
  snapshot is folded into the pool's :class:`ServiceTelemetry` aggregate
  afterwards;
* a :class:`~repro.errors.ReproError` is a *deterministic* domain failure
  — the job fails terminally (retrying would fail identically); any other
  exception is presumed transient and retries with backoff until the
  queue dead-letters it.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Union

from repro.errors import ReproError, ServiceError
from repro.service.api import execute_job
from repro.service.queue import JobQueue
from repro.store.base import open_store
from repro.telemetry.tracer import Tracer, use_tracer

#: seconds an idle worker sleeps before polling the queue again (an
#: enqueue wakes it sooner).
POLL_INTERVAL = 0.05


class ServiceTelemetry:
    """Thread-safe telemetry aggregate shared by the queue, pool and server.

    Looks enough like a tracer (``enabled``/``count``/``gauge``/``span``)
    for the :class:`JobQueue` counters to land here directly, and absorbs
    per-job :class:`~repro.telemetry.TraceSnapshot`\\ s — folding their
    counters (``store.hit``, ``store.miss``, per-backend store counters)
    and closed-span durations into running totals that ``GET /v1/stats``
    serves.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._span_seconds: Dict[str, float] = {}
        self._span_counts: Dict[str, int] = {}

    # -- tracer-shaped surface ----------------------------------------- #
    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def span(self, name: str, category: str = "span", **attrs: Any) -> "_AggregateSpan":
        return _AggregateSpan(self, name)

    # -- aggregation ---------------------------------------------------- #
    def record_span(self, name: str, seconds: float) -> None:
        with self._lock:
            self._span_seconds[name] = self._span_seconds.get(name, 0.0) + seconds
            self._span_counts[name] = self._span_counts.get(name, 0) + 1

    def absorb_snapshot(self, snapshot: Any) -> None:
        """Fold one job tracer's snapshot into the running totals."""
        with self._lock:
            for name, value in snapshot.counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in snapshot.gauges.items():
                self._gauges[name] = float(value)
            for event in snapshot.events:
                if event.closed:
                    self._span_seconds[event.name] = (
                        self._span_seconds.get(event.name, 0.0) + event.duration
                    )
                    self._span_counts[event.name] = self._span_counts.get(event.name, 0) + 1

    def stats(self) -> Dict[str, Any]:
        """JSON-serializable totals for ``GET /v1/stats``."""
        with self._lock:
            return {
                "counters": {k: self._counters[k] for k in sorted(self._counters)},
                "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
                "span_seconds": {
                    k: round(self._span_seconds[k], 6) for k in sorted(self._span_seconds)
                },
                "span_counts": {k: self._span_counts[k] for k in sorted(self._span_counts)},
            }

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)


class _AggregateSpan:
    """Span handle recording a wall-clock duration into the aggregate."""

    __slots__ = ("_telemetry", "_name", "_start")

    def __init__(self, telemetry: ServiceTelemetry, name: str) -> None:
        self._telemetry = telemetry
        self._name = name
        self._start = time.perf_counter()

    def set(self, **attrs: Any) -> "_AggregateSpan":
        return self

    def __enter__(self) -> "_AggregateSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._telemetry.record_span(self._name, time.perf_counter() - self._start)
        return False


class WorkerPool:
    """``workers`` threads draining a :class:`JobQueue` (see module docs)."""

    def __init__(
        self,
        queue: JobQueue,
        store_path: Union[str, Any],
        *,
        workers: int = 2,
        telemetry: Optional[ServiceTelemetry] = None,
    ) -> None:
        self.queue = queue
        self.store_path = str(store_path)
        self.telemetry = telemetry if telemetry is not None else ServiceTelemetry()
        self._num_workers = workers
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._wake = threading.Condition()

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        if self._threads:
            raise ServiceError("worker pool already started")
        self._stop.clear()
        for index in range(self._num_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(f"worker-{index}",),
                name=f"repro-service-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def notify(self) -> None:
        """Wake sleeping workers (called after each enqueue)."""
        with self._wake:
            self._wake.notify_all()

    def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool.

        With ``drain`` (the default), workers finish the jobs they hold —
        claimed jobs reach a terminal or retryable state rather than being
        abandoned as ``running``.  Pending jobs stay pending: durability,
        not loss — a restarted server claims them again.
        """
        self._stop.set()
        self.notify()
        for thread in self._threads:
            thread.join(timeout=timeout if drain else 0.2)
        self._threads = []

    @property
    def running(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    @property
    def workers(self) -> int:
        """The configured worker-thread count (0 = accept-only mode)."""
        return self._num_workers

    # ------------------------------------------------------------------ #
    def _worker_loop(self, worker_name: str) -> None:
        # One store connection per thread: SQLite connections are not
        # thread-safe to share, but concurrent connections to one WAL file
        # are exactly the store's multi-writer contract.
        store = open_store(self.store_path)
        try:
            while not self._stop.is_set():
                job = self.queue.claim(worker_name)
                if job is None:
                    with self._wake:
                        self._wake.wait(timeout=POLL_INTERVAL)
                    continue
                self._run_one(job, store)
        finally:
            store.close()

    def _run_one(self, job: Any, store: Any) -> None:
        tracer = Tracer()
        outcome: Any = None
        error: Optional[BaseException] = None
        with use_tracer(tracer):
            with tracer.span(
                "service:job",
                category="service",
                job=job.id,
                allocator=job.payload.get("allocator", ""),
                attempt=job.attempts,
            ):
                try:
                    outcome = execute_job(job.payload, store)
                except BaseException as exc:  # noqa: BLE001 - triaged below
                    error = exc
        self.telemetry.absorb_snapshot(tracer.snapshot())
        try:
            if error is None:
                store.flush()
                self.queue.complete(job.id, outcome)
            elif isinstance(error, ReproError):
                self.queue.fail(job.id, f"{type(error).__name__}: {error}", retryable=False)
            else:
                self.queue.fail(
                    job.id,
                    "".join(
                        traceback.format_exception_only(type(error), error)
                    ).strip(),
                    retryable=True,
                )
        except ReproError:
            # The job changed state under us (e.g. recover() raced a slow
            # worker); the queue's refusal is the correct outcome — drop it.
            pass
        if error is not None and not isinstance(error, Exception):
            raise error  # re-raise KeyboardInterrupt/SystemExit after bookkeeping
