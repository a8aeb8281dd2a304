"""Unit tests of the durable job queue (states, ordering, durability)."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.errors import QueueError, ServiceError
from repro.service import jobs
from repro.service.jobs import DEAD, DONE, FAILED, PENDING, RUNNING, dumps_payload
from repro.service.queue import AGING_SECONDS, RETRY_BACKOFF, JobQueue
from repro.telemetry import Tracer


class FakeClock:
    """A manually advanced time source for deterministic scheduling tests."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def queue(tmp_path):
    clock = FakeClock()
    q = JobQueue(tmp_path / "q.sqlite", clock=clock)
    q.clock = clock  # expose for tests
    yield q
    q.close()


def _enqueue(q, key, **kwargs):
    job, deduped = q.enqueue({"name": key}, job_key=key, **kwargs)
    return job, deduped


# ---------------------------------------------------------------------- #
# lifecycle
# ---------------------------------------------------------------------- #
def test_enqueue_claim_complete(queue):
    job, deduped = _enqueue(queue, "k1")
    assert not deduped
    assert job.state == PENDING and job.attempts == 0

    claimed = queue.claim("w0")
    assert claimed.id == job.id
    assert claimed.state == RUNNING
    assert claimed.attempts == 1
    assert claimed.claimed_by == "w0"
    assert queue.claim("w1") is None  # nothing else pending

    done = queue.complete(job.id, {"answer": 42})
    assert done.state == DONE
    assert done.result == {"answer": 42}


def test_dedupe_on_pending_running_done_but_not_failed(queue):
    job, _ = _enqueue(queue, "k1")
    _, deduped = _enqueue(queue, "k1")
    assert deduped  # pending dedupes

    claimed = queue.claim("w0")
    _, deduped = _enqueue(queue, "k1")
    assert deduped  # running dedupes

    queue.complete(claimed.id, {})
    again, deduped = _enqueue(queue, "k1")
    assert deduped and again.id == job.id  # done dedupes, returns the result

    # A *failed* job does not dedupe: resubmission queues fresh work.
    job2, _ = _enqueue(queue, "k2")
    queue.claim("w0")
    queue.fail(job2.id, "parse error", retryable=False)
    assert queue.get(job2.id).state == FAILED
    job3, deduped = _enqueue(queue, "k2")
    assert not deduped and job3.id != job2.id


def test_retry_backoff_then_dead_letter(queue):
    job, _ = _enqueue(queue, "k1", max_attempts=3)
    clock = queue.clock

    first = queue.claim("w0")
    failed = queue.fail(job.id, "transient", retryable=True)
    assert failed.state == PENDING
    assert failed.not_before == clock.now + RETRY_BACKOFF * 2**0

    assert queue.claim("w0") is None  # backoff holds the job back
    clock.advance(1.5 * RETRY_BACKOFF)
    second = queue.claim("w0")
    assert second is not None and second.attempts == 2
    failed = queue.fail(job.id, "transient again", retryable=True)
    assert failed.state == PENDING
    assert failed.not_before == clock.now + RETRY_BACKOFF * 2**1

    clock.advance(2.5 * RETRY_BACKOFF)
    third = queue.claim("w0")
    assert third.attempts == 3
    dead = queue.fail(job.id, "still broken", retryable=True)
    assert dead.state == DEAD
    assert dead.error == "still broken"
    assert queue.claim("w0") is None
    assert first.id == second.id == third.id


def test_invalid_transitions_raise(queue):
    job, _ = _enqueue(queue, "k1")
    with pytest.raises(QueueError):
        queue.complete(job.id, {})  # pending, not running
    with pytest.raises(QueueError):
        queue.fail(job.id, "boom")
    with pytest.raises(QueueError):
        queue.complete("nope", {})
    queue.claim("w0")
    queue.complete(job.id, {})
    with pytest.raises(QueueError):
        queue.complete(job.id, {})  # already done


# ---------------------------------------------------------------------- #
# scheduling: priority + aging
# ---------------------------------------------------------------------- #
def test_priority_order_and_fifo_tiebreak(queue):
    low, _ = _enqueue(queue, "low", priority=0)
    high, _ = _enqueue(queue, "high", priority=5)
    also_high, _ = _enqueue(queue, "also-high", priority=5)

    assert queue.claim("w").id == high.id  # highest priority first
    assert queue.claim("w").id == also_high.id  # FIFO among equals
    assert queue.claim("w").id == low.id


def test_aging_prevents_starvation(tmp_path):
    clock = FakeClock()
    q = JobQueue(tmp_path / "q.sqlite", clock=clock)
    old_low, _ = q.enqueue({}, job_key="old-low", priority=0)
    # Five aging intervals later the low-priority job has aged 5 levels...
    clock.advance(5 * AGING_SECONDS)
    fresh_high, _ = q.enqueue({}, job_key="fresh-high", priority=3)
    # ...so it outranks a freshly submitted priority-3 job.
    assert q.claim("w").id == old_low.id
    assert q.claim("w").id == fresh_high.id
    q.close()


# ---------------------------------------------------------------------- #
# decode on read
# ---------------------------------------------------------------------- #
def test_only_claim_decodes_the_stored_payload(queue, monkeypatch):
    """Polls, listings, enqueues (new and deduplicated) and completions
    leave the stored payload and result undecoded; a claim decodes the
    payload once, for the worker."""
    decoded = []
    original = jobs.loads_payload

    def recording(text):
        decoded.append(text)
        return original(text)

    for loaded in [module for name, module in sys.modules.items() if name.split(".")[0] == "repro"]:
        if getattr(loaded, "loads_payload", None) is original:
            monkeypatch.setattr(loaded, "loads_payload", recording)

    payload = {"kind": "graph", "name": "big", "allocator": "NL", "registers": 4, "target": None,
               "graph": {"vertices": [{"id": f"v{i}", "weight": 1.0} for i in range(500)]}}
    result = {"functions": [{"spilled": [f"v{i}" for i in range(250)]}]}
    stored = {dumps_payload(payload), dumps_payload(result)}

    job, deduped = queue.enqueue(payload, job_key="k")
    again, deduped_again = queue.enqueue(payload, job_key="k")
    assert (deduped, deduped_again, again.id) == (False, True, job.id)
    polled = queue.get(job.id).to_dict()
    listed = [listed.to_dict(include_result=False) for listed in queue.list_jobs()]
    assert (polled["name"], polled["registers"], listed[0]["allocator"]) == ("big", 4, "NL")
    assert stored.isdisjoint(decoded)

    claimed = queue.claim("w0")
    assert decoded.count(dumps_payload(payload)) == 1
    assert claimed.payload == payload
    assert decoded.count(dumps_payload(payload)) == 1  # decoded once, at the claim

    done = queue.complete(job.id, result)
    done.to_dict(include_result=False)
    queue.get(job.id).to_dict(include_result=False)
    queue.list_jobs(state=DONE)
    assert dumps_payload(result) not in decoded
    assert done.result == result
    assert queue.get(job.id).to_dict()["result"] == result


# ---------------------------------------------------------------------- #
# durability
# ---------------------------------------------------------------------- #
def test_queue_survives_reopen_and_recovers_running(tmp_path):
    path = tmp_path / "q.sqlite"
    q1 = JobQueue(path)
    pending, _ = q1.enqueue({}, job_key="pending-one")
    running, _ = q1.enqueue({}, job_key="running-one")
    claimed = q1.claim("w0")
    q1.close()  # simulated crash: job left running on disk

    q2 = JobQueue(path)
    recovered = q2.recover()
    assert [job.id for job in recovered] == [claimed.id]
    state = {job.job_key: job.state for job in q2.list_jobs()}
    assert state == {"pending-one": PENDING, "running-one": PENDING}
    # The interrupted claim kept its consumed attempt.
    assert q2.get(claimed.id).attempts == 1
    q2.close()


def test_counts_and_counters(tmp_path):
    tracer = Tracer()
    q = JobQueue(tmp_path / "q.sqlite", tracer=tracer)
    a, _ = q.enqueue({}, job_key="a")
    q.enqueue({}, job_key="a")  # deduped
    b, _ = q.enqueue({}, job_key="b", max_attempts=1)
    q.claim("w")
    q.complete(a.id, {})
    q.claim("w")
    q.fail(b.id, "boom", retryable=True)  # attempts exhausted -> dead

    assert q.counts() == {"pending": 0, "running": 0, "done": 1, "failed": 0, "dead": 1}
    assert tracer.counters["queue.enqueued"] == 2
    assert tracer.counters["queue.deduped"] == 1
    assert tracer.counters["queue.claimed"] == 2
    assert tracer.counters["queue.completed"] == 1
    assert tracer.counters["queue.dead"] == 1
    assert len(tracer.snapshot().find("queue:claim")) == 2
    q.close()


def test_concurrent_claims_never_double_claim(tmp_path):
    q = JobQueue(tmp_path / "q.sqlite")
    for index in range(40):
        q.enqueue({}, job_key=f"job-{index}")
    claimed: list = []
    lock = threading.Lock()

    def worker(name):
        while True:
            job = q.claim(name)
            if job is None:
                return
            with lock:
                claimed.append(job.id)

    threads = [threading.Thread(target=worker, args=(f"w{i}",)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(claimed) == 40
    assert len(set(claimed)) == 40  # every job claimed exactly once
    q.close()


def test_validation_errors(tmp_path):
    q = JobQueue(tmp_path / "q.sqlite")
    with pytest.raises(ServiceError):
        q.enqueue({}, job_key="k", max_attempts=0)
    with pytest.raises(ServiceError):
        q.list_jobs(state="bogus")
    q.close()
