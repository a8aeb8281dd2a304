"""Job model of the allocation service: states and the job value object.

A *job* is one allocation request travelling through the durable queue
(:mod:`repro.service.queue`).  Its lifecycle::

                 enqueue            claim              complete
    (submitted) ────────> pending ────────> running ────────────> done
                             ^                │
                             │   fail (retryable, attempts left)
                             └────────────────┤  not_before = now + backoff
                                              │
                                              ├─ fail (non-retryable) ──> failed
                                              └─ fail (attempts
                                                 exhausted) ────────────> dead

* ``pending`` — waiting to be claimed (possibly delayed by a retry
  backoff, see :attr:`Job.not_before`);
* ``running`` — claimed by a worker; a server killed mid-run leaves jobs
  here, and :meth:`~repro.service.queue.JobQueue.recover` re-queues them on
  the next startup (the crash consumes the attempt);
* ``done`` — completed, :attr:`Job.result` holds the outcome;
* ``failed`` — a *deterministic* domain failure
  (:class:`~repro.errors.ReproError`): retrying would fail identically, so
  the job terminates immediately with :attr:`Job.error` set;
* ``dead`` — the dead-letter state: an unexpected (presumed transient)
  failure recurred until ``max_attempts`` was exhausted.

States only ever move left-to-right in the diagram; ``done``, ``failed``
and ``dead`` are terminal.

A job row stores its payload and result as JSON text.  A batch payload
runs to megabytes, and polls and listings read rows far more often than a
worker runs them, so a :class:`Job` decodes :attr:`Job.payload` and
:attr:`Job.result` only when a caller first reads them.  What a listing
shows of the payload (:data:`SUMMARY_FIELDS`) is stored beside it as
:attr:`Job.summary`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: job lifecycle states (see the module docstring for the transitions).
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
DEAD = "dead"

JOB_STATES: Tuple[str, ...] = (PENDING, RUNNING, DONE, FAILED, DEAD)
#: states a job never leaves.
TERMINAL_STATES: Tuple[str, ...] = (DONE, FAILED, DEAD)
#: states that make a later submission of the same work a duplicate —
#: ``failed``/``dead`` jobs do *not* dedupe, so a fixed input can be
#: resubmitted after a failure.
DEDUPE_STATES: Tuple[str, ...] = (PENDING, RUNNING, DONE)
#: the payload fields :meth:`Job.to_dict` shows, kept in :attr:`Job.summary`.
SUMMARY_FIELDS: Tuple[str, ...] = ("name", "allocator", "registers", "target")


@dataclass(frozen=True)
class Job:
    """One queued allocation request (a row of the queue database)."""

    #: opaque job identifier (stable across restarts).
    id: str
    #: idempotency key: the digest of the job's cache cells + options (see
    #: :func:`repro.service.api.job_key`).  Submitting the same key while a
    #: previous job for it is pending/running/done returns that job.
    job_key: str
    state: str
    #: scheduling priority (higher claims first); age adds to it over time
    #: so old low-priority jobs cannot starve (see ``JobQueue.claim``).
    priority: int
    #: claim count so far (a crash while running consumes the attempt).
    attempts: int
    #: claims after which a retryable failure turns ``dead``.
    max_attempts: int
    #: epoch seconds before which the job must not be claimed (retry backoff).
    not_before: float
    created_at: float
    updated_at: float
    #: monotonically increasing submission order (claim tie-breaker).
    seq: int = 0
    claimed_by: Optional[str] = None
    #: submitting client name, used for the queue's per-client fairness:
    #: claims round-robin across clients (least-recently-served first), so a
    #: mega-sweep flooding thousands of batch jobs cannot starve interactive
    #: submissions.  The default ``""`` groups untagged submissions into one
    #: shared client, which degenerates to the pre-fairness claim order.
    client: str = ""
    #: the payload's :data:`SUMMARY_FIELDS` (see :func:`payload_summary`),
    #: written beside the payload at enqueue so reads never decode it.
    summary: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: the stored submission payload (validated by :mod:`repro.service.api`)
    #: as JSON text; :attr:`payload` decodes it.
    payload_json: str = "{}"
    #: the stored result of a ``done`` job as JSON text; :attr:`result`
    #: decodes it.
    result_json: Optional[str] = None
    #: the failure message of a ``failed``/``dead`` job (or the error of the
    #: most recent attempt while retries are still pending).
    error: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @functools.cached_property
    def payload(self) -> Dict[str, Any]:
        """The submission payload, decoded on first read."""
        return loads_payload(self.payload_json)

    @functools.cached_property
    def result(self) -> Optional[Dict[str, Any]]:
        """The outcome of a ``done`` job (see ``api.execute_job``), decoded
        on first read."""
        return None if self.result_json is None else loads_payload(self.result_json)

    def to_dict(self, *, include_result: bool = True) -> Dict[str, Any]:
        """JSON form served by ``GET /v1/jobs/<id>`` (and the CLI)."""
        out: Dict[str, Any] = {
            "id": self.id,
            "job_key": self.job_key,
            "state": self.state,
            "priority": self.priority,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "not_before": self.not_before,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "claimed_by": self.claimed_by,
            "client": self.client,
            "name": self.summary.get("name"),
            "allocator": self.summary.get("allocator"),
            "registers": self.summary.get("registers"),
            "target": self.summary.get("target"),
            "error": self.error,
        }
        if include_result:
            out["result"] = self.result
        return out


def dumps_payload(payload: Dict[str, Any]) -> str:
    """Canonical JSON used for queue storage (sorted keys, compact)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def loads_payload(text: str) -> Any:
    """Decode a stored payload or result (the inverse of :func:`dumps_payload`)."""
    return json.loads(text)


def payload_summary(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The :data:`SUMMARY_FIELDS` of a payload (``None`` where absent)."""
    return {field: payload.get(field) for field in SUMMARY_FIELDS}
