"""Durable SQLite-backed job queue of the allocation service.

One database file, one ``jobs`` table (WAL-journaled, so enqueues and
claims survive a killed server and concurrent readers never block the
writer).  The operations mirror the job lifecycle documented in
:mod:`repro.service.jobs`:

* :meth:`JobQueue.enqueue` — insert a ``pending`` job, idempotently: a
  ``job_key`` that is already pending/running/done returns the existing job
  instead of queueing duplicate work (failed/dead keys *do* re-enqueue, so
  a fixed input can be resubmitted);
* :meth:`JobQueue.claim` — atomically pick the ready pending job of the
  least-recently-served *client* (round-robin fairness, so a mega-sweep's
  batch flood cannot starve interactive submitters), breaking ties by
  highest *effective* priority, and mark it running.  Effective priority
  is ``priority + age_seconds / AGING_SECONDS``: a job gains one priority
  level per aging interval it waits, so any fixed-priority flood
  eventually loses to an old low-priority job (no starvation).  Remaining
  ties break on submission order.  The pick-and-mark is a single
  ``UPDATE ... RETURNING`` statement, so two workers (or two server
  processes sharing the file) can never claim the same job;
* :meth:`JobQueue.complete` / :meth:`JobQueue.fail` — finish a running
  job.  Retryable failures re-queue with exponential backoff
  (``RETRY_BACKOFF * 2^(attempts-1)`` seconds) until ``max_attempts`` is
  exhausted, which dead-letters the job;
* :meth:`JobQueue.recover` — called on server startup: re-queues jobs a
  previous process left ``running`` (the crash consumed their attempt).

Telemetry: operations count ``queue.enqueued`` / ``queue.deduped`` /
``queue.claimed`` / ``queue.completed`` / ``queue.retried`` /
``queue.failed`` / ``queue.dead`` / ``queue.recovered`` and claims record a
``queue:claim`` span, into the tracer given at construction (or the
ambient one).

Decode on read: a row's payload and result are JSON text, and a
returned :class:`~repro.service.jobs.Job` decodes them only when a caller
reads :attr:`~repro.service.jobs.Job.payload` or
:attr:`~repro.service.jobs.Job.result`.  Only :meth:`JobQueue.claim`,
which hands the job to a worker, decodes the payload; polls and listings
show the payload's name, allocator, registers and target from the small
``summary`` column written at enqueue.  Queue files created before that
column existed gain it when opened, with every existing row backfilled
once, the way the ``client`` column was added.

The queue is thread-safe: one connection guarded by a lock, so the HTTP
handler threads and the worker pool share a single :class:`JobQueue`.
"""

from __future__ import annotations

import sqlite3
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.errors import QueueError, ServiceError
from repro.service.jobs import (
    DEAD,
    DEDUPE_STATES,
    DONE,
    FAILED,
    JOB_STATES,
    PENDING,
    RUNNING,
    Job,
    dumps_payload,
    loads_payload,
    payload_summary,
)
from repro.telemetry.tracer import current_tracer

#: attempts a job gets when its submission names no ``max_attempts``.
DEFAULT_MAX_ATTEMPTS = 3
#: seconds of waiting worth one priority level in the claim order.
AGING_SECONDS = 30.0
#: base delay of the exponential retry backoff, in seconds.
RETRY_BACKOFF = 0.05

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    seq          INTEGER PRIMARY KEY AUTOINCREMENT,
    id           TEXT    NOT NULL UNIQUE,
    job_key      TEXT    NOT NULL,
    state        TEXT    NOT NULL,
    priority     INTEGER NOT NULL DEFAULT 0,
    attempts     INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL DEFAULT 3,
    not_before   REAL    NOT NULL DEFAULT 0.0,
    created_at   REAL    NOT NULL,
    updated_at   REAL    NOT NULL,
    claimed_by   TEXT,
    payload      TEXT    NOT NULL,
    result       TEXT,
    error        TEXT,
    client       TEXT    NOT NULL DEFAULT '',
    summary      TEXT
);
CREATE TABLE IF NOT EXISTS clients (
    client          TEXT PRIMARY KEY,
    last_claimed_at REAL NOT NULL DEFAULT 0.0
);
CREATE INDEX IF NOT EXISTS jobs_claim_idx ON jobs (state, not_before);
CREATE INDEX IF NOT EXISTS jobs_key_idx ON jobs (job_key, state);
"""

_COLUMNS = (
    "seq, id, job_key, state, priority, attempts, max_attempts, "
    "not_before, created_at, updated_at, claimed_by, payload, result, error, client, summary"
)


def _row_to_job(row: tuple) -> Job:
    (
        seq,
        job_id,
        job_key,
        state,
        priority,
        attempts,
        max_attempts,
        not_before,
        created_at,
        updated_at,
        claimed_by,
        payload,
        result,
        error,
        client,
        summary,
    ) = row
    return Job(
        id=job_id,
        job_key=job_key,
        state=state,
        priority=int(priority),
        attempts=int(attempts),
        max_attempts=int(max_attempts),
        not_before=float(not_before),
        created_at=float(created_at),
        updated_at=float(updated_at),
        seq=int(seq),
        claimed_by=claimed_by,
        client=str(client or ""),
        # A row enqueued by a process that predates the summary column.
        summary=payload_summary(loads_payload(payload)) if summary is None else loads_payload(summary),
        payload_json=payload,
        result_json=result,
        error=error,
    )


class JobQueue:
    """Durable, idempotent, priority+aging job queue in one SQLite file.

    Parameters
    ----------
    path:
        Database file (created if missing, parents included).
    clock:
        Epoch-seconds time source (injectable for deterministic tests).
    tracer:
        Telemetry sink for the ``queue.*`` counters and ``queue:claim``
        span; defaults to the ambient tracer per call.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        clock: Callable[[], float] = time.time,
        tracer: Optional[Any] = None,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._tracer = tracer
        self._lock = threading.Lock()
        # One connection shared across the HTTP handler and worker threads,
        # serialized by the lock (SQLite would otherwise reject cross-thread
        # use of a connection).
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA busy_timeout=5000")
        self._conn.executescript(_SCHEMA)
        # Queue files created before per-client fairness existed lack the
        # client column (CREATE TABLE IF NOT EXISTS never adds one); migrate
        # in place so old queues keep working with the fair claim order.
        columns = {row[1] for row in self._conn.execute("PRAGMA table_info(jobs)")}
        if "client" not in columns:
            self._conn.execute("ALTER TABLE jobs ADD COLUMN client TEXT NOT NULL DEFAULT ''")
        # Likewise the summary column, and each existing row's summary is
        # backfilled from its payload once, one payload in memory at a time.
        if "summary" not in columns:
            self._conn.execute("BEGIN")
            self._conn.execute("ALTER TABLE jobs ADD COLUMN summary TEXT")
            for (seq,) in self._conn.execute("SELECT seq FROM jobs").fetchall():
                (payload,) = self._conn.execute("SELECT payload FROM jobs WHERE seq=?", (seq,)).fetchone()
                self._conn.execute(
                    "UPDATE jobs SET summary=? WHERE seq=?",
                    (dumps_payload(payload_summary(loads_payload(payload))), seq),
                )
        self._conn.commit()

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def tracer(self) -> Any:
        return self._tracer if self._tracer is not None else current_tracer()

    def _now(self, now: Optional[float]) -> float:
        return self._clock() if now is None else float(now)

    def _get_locked(self, job_id: str) -> Optional[Job]:
        row = self._conn.execute(
            f"SELECT {_COLUMNS} FROM jobs WHERE id=?", (job_id,)
        ).fetchone()
        return _row_to_job(row) if row is not None else None

    # ------------------------------------------------------------------ #
    # lifecycle operations
    # ------------------------------------------------------------------ #
    def enqueue(
        self,
        payload: Dict[str, Any],
        *,
        job_key: str,
        priority: int = 0,
        max_attempts: Optional[int] = None,
        client: str = "",
        now: Optional[float] = None,
    ) -> tuple:
        """Insert a pending job; returns ``(job, deduped)``.

        Idempotency: when ``job_key`` already has a pending, running or
        done job, that job is returned with ``deduped=True`` and nothing is
        inserted (``queue.deduped`` counts it).  Failed and dead jobs do
        not dedupe — resubmitting after a failure queues a fresh attempt.

        ``client`` tags the job for per-client fairness (see
        :meth:`claim`); untagged jobs share the ``""`` client.
        """
        stamp = self._now(now)
        attempts = DEFAULT_MAX_ATTEMPTS if max_attempts is None else int(max_attempts)
        if attempts < 1:
            raise ServiceError(f"max_attempts must be >= 1, got {max_attempts}")
        tracer = self.tracer()
        with self._lock:
            placeholders = ",".join("?" for _ in DEDUPE_STATES)
            row = self._conn.execute(
                f"SELECT {_COLUMNS} FROM jobs WHERE job_key=? AND state IN ({placeholders})"
                " ORDER BY seq DESC LIMIT 1",
                (job_key, *DEDUPE_STATES),
            ).fetchone()
            if row is not None:
                if tracer.enabled:
                    tracer.count("queue.deduped")
                return _row_to_job(row), True
            row = self._conn.execute(
                "INSERT INTO jobs (id, job_key, state, priority, attempts, max_attempts,"
                " not_before, created_at, updated_at, payload, client, summary)"
                " VALUES (?, ?, ?, ?, 0, ?, 0.0, ?, ?, ?, ?, ?)"
                f" RETURNING {_COLUMNS}",
                (uuid.uuid4().hex[:16], job_key, PENDING, int(priority), attempts, stamp, stamp,
                 dumps_payload(payload), str(client or ""), dumps_payload(payload_summary(payload))),
            ).fetchone()
            self._conn.commit()
        job = _row_to_job(row)
        if tracer.enabled:
            tracer.count("queue.enqueued")
        return job, False

    def claim(
        self,
        worker: str,
        *,
        now: Optional[float] = None,
    ) -> Optional[Job]:
        """Atomically claim the best ready pending job (or return ``None``).

        Claim order is *fair across clients first*: the client served
        longest ago (never-served clients count as the epoch) wins, then —
        within that client's jobs — effective priority
        ``priority + age/AGING_SECONDS`` descending, then submission order.
        With every job under one client this degenerates to the historical
        priority+aging order.  A sweep flooding thousands of batch jobs
        therefore alternates with an interactive submitter instead of
        starving it, whatever priorities the flood claims for itself.

        The pick, the mark and the fairness-clock update happen under one
        lock and commit, so concurrent claimers (threads or separate server
        processes on the same file) never double-claim.
        """
        stamp = self._now(now)
        tracer = self.tracer()
        span = (
            tracer.span("queue:claim", category="queue", worker=worker)
            if tracer.enabled
            else None
        )
        try:
            with self._lock:
                row = self._conn.execute(
                    "UPDATE jobs SET state=?, claimed_by=?, attempts=attempts+1, updated_at=?"
                    " WHERE seq = ("
                    "   SELECT j.seq FROM jobs j"
                    "   LEFT JOIN clients c ON c.client = j.client"
                    "   WHERE j.state=? AND j.not_before <= ?"
                    "   ORDER BY COALESCE(c.last_claimed_at, 0.0) ASC,"
                    "     j.priority + (? - j.created_at) / ? DESC, j.seq ASC LIMIT 1"
                    " ) AND state=?"
                    f" RETURNING {_COLUMNS}",
                    (RUNNING, worker, stamp, PENDING, stamp, stamp, AGING_SECONDS, PENDING),
                ).fetchone()
                job = _row_to_job(row) if row is not None else None
                if job is not None:
                    self._conn.execute(
                        "INSERT INTO clients (client, last_claimed_at) VALUES (?, ?)"
                        " ON CONFLICT(client) DO UPDATE"
                        " SET last_claimed_at=excluded.last_claimed_at",
                        (job.client, stamp),
                    )
                self._conn.commit()
            if job is not None:
                # The one read that decodes the payload: the worker runs it.
                _ = job.payload
        finally:
            if span is not None:
                span.set(claimed=job.id if row is not None else "")
                span.__exit__(None, None, None)
        if job is not None and tracer.enabled:
            tracer.count("queue.claimed")
        return job

    def complete(
        self,
        job_id: str,
        result: Dict[str, Any],
        *,
        now: Optional[float] = None,
    ) -> Job:
        """Transition a running job to ``done`` with its result."""
        stamp = self._now(now)
        with self._lock:
            row = self._conn.execute(
                "UPDATE jobs SET state=?, result=?, error=NULL, updated_at=?"
                f" WHERE id=? AND state=? RETURNING {_COLUMNS}",
                (DONE, dumps_payload(result), stamp, job_id, RUNNING),
            ).fetchone()
            self._conn.commit()
            if row is None:
                job = self._get_locked(job_id)
                raise QueueError(
                    f"cannot complete job {job_id!r}: "
                    + ("unknown job" if job is None else f"state is {job.state!r}, not running")
                )
        job = _row_to_job(row)
        tracer = self.tracer()
        if tracer.enabled:
            tracer.count("queue.completed")
        return job

    def fail(
        self,
        job_id: str,
        error: str,
        *,
        retryable: bool = True,
        now: Optional[float] = None,
    ) -> Job:
        """Record a failed attempt of a running job.

        Non-retryable failures (deterministic domain errors) terminate the
        job as ``failed`` immediately.  Retryable ones re-queue it with
        exponential backoff — ``RETRY_BACKOFF * 2^(attempts-1)`` seconds —
        until ``max_attempts`` claims have been spent, which dead-letters
        the job as ``dead``.
        """
        stamp = self._now(now)
        with self._lock:
            job = self._get_locked(job_id)
            if job is None:
                raise QueueError(f"cannot fail job {job_id!r}: unknown job")
            if job.state != RUNNING:
                raise QueueError(
                    f"cannot fail job {job_id!r}: state is {job.state!r}, not running"
                )
            if not retryable:
                new_state, not_before, outcome = FAILED, job.not_before, "failed"
            elif job.attempts >= job.max_attempts:
                new_state, not_before, outcome = DEAD, job.not_before, "dead"
            else:
                backoff = RETRY_BACKOFF * (2 ** (job.attempts - 1))
                new_state, not_before, outcome = PENDING, stamp + backoff, "retried"
            self._conn.execute(
                "UPDATE jobs SET state=?, not_before=?, error=?, claimed_by=NULL, updated_at=?"
                " WHERE id=?",
                (new_state, not_before, str(error), stamp, job_id),
            )
            self._conn.commit()
            job = self._get_locked(job_id)
        tracer = self.tracer()
        if tracer.enabled:
            tracer.count(f"queue.{outcome}")
        return job

    def recover(self, *, now: Optional[float] = None) -> List[Job]:
        """Re-queue jobs a dead process left ``running`` (startup repair).

        The interrupted claim keeps its consumed attempt, so a job that
        crashes the server repeatedly still dead-letters after
        ``max_attempts`` rather than crash-looping forever.
        """
        stamp = self._now(now)
        with self._lock:
            rows = self._conn.execute(
                "UPDATE jobs SET state=?, claimed_by=NULL, updated_at=?"
                f" WHERE state=? RETURNING {_COLUMNS}",
                (PENDING, stamp, RUNNING),
            ).fetchall()
            self._conn.commit()
        jobs = [_row_to_job(row) for row in rows]
        tracer = self.tracer()
        if jobs and tracer.enabled:
            tracer.count("queue.recovered", len(jobs))
        return jobs

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._get_locked(job_id)

    def list_jobs(self, state: Optional[str] = None, limit: int = 100) -> List[Job]:
        """Jobs newest-first, optionally filtered by state."""
        if state is not None and state not in JOB_STATES:
            raise ServiceError(
                f"unknown job state {state!r}; expected one of {list(JOB_STATES)}"
            )
        with self._lock:
            if state is None:
                rows = self._conn.execute(
                    f"SELECT {_COLUMNS} FROM jobs ORDER BY seq DESC LIMIT ?", (int(limit),)
                ).fetchall()
            else:
                rows = self._conn.execute(
                    f"SELECT {_COLUMNS} FROM jobs WHERE state=? ORDER BY seq DESC LIMIT ?",
                    (state, int(limit)),
                ).fetchall()
        return [_row_to_job(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        """Queue depth per state (every state present, zero included)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state"
            ).fetchall()
        counts = {state: 0 for state in JOB_STATES}
        counts.update({state: int(n) for state, n in rows})
        return counts

    def __len__(self) -> int:
        with self._lock:
            return int(self._conn.execute("SELECT COUNT(*) FROM jobs").fetchone()[0])

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        with self._lock:
            self._conn.commit()
            self._conn.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
