"""End-to-end service tests: the PR's acceptance criteria.

* every example submitted over HTTP completes with results byte-identical
  to a direct ``Pipeline.run``;
* resubmitting against a warmed store performs **zero** allocator calls
  (asserted via the ``store.hit``/``store.miss`` telemetry counters);
* killing a server mid-queue loses no pending jobs, and jobs left
  ``running`` are re-claimed on restart.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.ir.parser import parse_module
from repro.pipeline import Pipeline
from repro.service import AllocationService, ServiceClient
from repro.service.api import deterministic_summary

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples" / "ir").glob("*.ir"))

ALLOCATOR = "NL"
REGISTERS = 4
TARGET = "st231"


def _submission(path: Path) -> dict:
    return {
        "ir": path.read_text(),
        "name": path.stem,
        "allocator": ALLOCATOR,
        "registers": REGISTERS,
        "target": TARGET,
    }


def _direct_functions(path: Path) -> list:
    """What Pipeline.run (storeless) computes for one example module."""
    pipeline = Pipeline.from_spec(
        {"allocator": ALLOCATOR, "registers": REGISTERS, "target": TARGET}
    )
    module = parse_module(path.read_text(), name=path.stem)
    return [deterministic_summary(pipeline.run(f).summary()) for f in module]


def _wait_all_done(service: AllocationService, job_ids, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    jobs = {}
    while time.monotonic() < deadline:
        jobs = {job_id: service.job(job_id) for job_id in job_ids}
        if all(job.terminal for job in jobs.values()):
            return jobs
        time.sleep(0.02)
    states = {job_id: job.state for job_id, job in jobs.items()}
    raise AssertionError(f"jobs did not finish within {timeout}s: {states}")


@pytest.mark.skipif(not EXAMPLES, reason="no example IR corpus checked out")
def test_submit_over_http_matches_pipeline_and_warm_runs_hit_cache(tmp_path):
    store = tmp_path / "cells.sqlite"
    expected = {path.stem: _direct_functions(path) for path in EXAMPLES}

    # -- cold pass: submit every example over the wire ------------------- #
    with AllocationService(store, tmp_path / "q1.sqlite", workers=2) as service:
        client = ServiceClient(service.url)
        assert client.health() == {"status": "ok"}
        ids = {}
        for path in EXAMPLES:
            response = client.submit(_submission(path))
            assert response["deduped"] is False
            ids[path.stem] = response["job"]["id"]
        for name, job_id in ids.items():
            job = client.wait(job_id, timeout=60.0)
            assert job["state"] == "done", job["error"]
            assert job["result"]["functions"] == expected[name]
            assert job["result"]["meta"]["cache"]["hit"] == 0
        cold_stats = client.stats()
        assert cold_stats["cache"]["miss"] > 0
        assert cold_stats["queue"]["done"] == len(EXAMPLES)
        # Submitting an already-done job dedupes instead of re-queueing.
        again = client.submit(_submission(EXAMPLES[0]))
        assert again["deduped"] is True
        assert again["job"]["id"] == ids[EXAMPLES[0].stem]

    # -- warm pass: fresh queue, same store -> zero allocator calls ------ #
    with AllocationService(store, tmp_path / "q2.sqlite", workers=2) as service:
        client = ServiceClient(service.url)
        ids = {p.stem: client.submit(_submission(p))["job"]["id"] for p in EXAMPLES}
        for name, job_id in ids.items():
            job = client.wait(job_id, timeout=60.0)
            assert job["state"] == "done"
            meta = job["result"]["meta"]
            assert meta["cache"]["miss"] == 0, f"warm job {name} invoked an allocator"
            assert meta["cache"]["hit"] == len(expected[name])
            # Byte-identical to both the cold pass and the direct pipeline.
            assert json.dumps(job["result"]["functions"], sort_keys=True) == json.dumps(
                expected[name], sort_keys=True
            )
        warm_stats = client.stats()
        assert warm_stats["cache"]["miss"] == 0
        assert warm_stats["cache"]["hit"] == sum(len(v) for v in expected.values())


@pytest.mark.skipif(len(EXAMPLES) < 2, reason="needs at least two examples")
def test_kill_mid_queue_loses_nothing(tmp_path):
    store = tmp_path / "cells.sqlite"
    queue_path = tmp_path / "queue.sqlite"

    # Accept-only server (no workers): jobs pile up pending, and we claim
    # one manually to simulate dying mid-execution.
    first = AllocationService(store, queue_path, workers=0).start()
    client = ServiceClient(first.url)
    ids = [client.submit(_submission(path))["job"]["id"] for path in EXAMPLES]
    stuck = first.queue.claim("doomed-worker")
    assert stuck is not None and stuck.id in ids
    # Kill without draining: the claimed job stays `running` on disk.
    first.shutdown(drain=False)
    from repro.service import JobQueue

    with JobQueue(queue_path) as probe:
        states = {job.id: job.state for job in probe.list_jobs()}
    assert states[stuck.id] == "running"
    assert sum(1 for s in states.values() if s == "pending") == len(EXAMPLES) - 1

    # Restart with workers: recovery re-queues the running job, everything
    # completes, nothing lost or duplicated.
    second = AllocationService(store, queue_path, workers=2).start()
    try:
        assert [job.id for job in second.recovered] == [stuck.id]
        jobs = _wait_all_done(second, ids)
        assert all(job.state == "done" for job in jobs.values())
        assert len(second.queue) == len(EXAMPLES)  # no duplicates appeared
        # The re-claimed job's interrupted attempt was not forgotten.
        assert jobs[stuck.id].attempts == 2
    finally:
        second.shutdown()


def test_failed_job_reports_error_and_allows_resubmit(tmp_path):
    bad = {"ir": "func @broken( {", "name": "broken"}
    with AllocationService(tmp_path / "c.sqlite", tmp_path / "q.sqlite", workers=1) as service:
        client = ServiceClient(service.url)
        # Malformed IR fails *at submit time* (the key is computed from the
        # problems), so the API rejects it with 400 rather than queueing.
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            client.submit(bad)
        # Unknown endpoints and jobs are clean errors too.
        with pytest.raises(ServiceError):
            client.job("no-such-job")
        assert client.jobs() == []


def test_nan_weight_graph_is_http_400_and_queues_nothing(tmp_path):
    """``json.loads`` accepts a ``NaN`` literal; the graph check must not."""
    from repro.errors import ServiceError
    from repro.graphs.io import graph_to_dict
    from tests.conftest import build_paper_figure4_graph

    document = graph_to_dict(build_paper_figure4_graph(), name="fig4")
    document["vertices"][0]["weight"] = float("nan")
    with AllocationService(tmp_path / "c.sqlite", tmp_path / "q.sqlite", workers=1) as service:
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError, match="HTTP 400.*NaN weight"):
            client.submit({"graph": document, "registers": 2, "allocator": ALLOCATOR})
        assert client.jobs() == []
        assert len(service.queue) == 0


@pytest.mark.parametrize("limit", ["-1", "0", "abc", "2.5"])
def test_listing_limit_below_one_or_not_an_integer_is_http_400(tmp_path, limit):
    """SQLite reads a negative ``LIMIT`` as no limit: ``limit=-1`` must not
    list every job."""
    import urllib.error
    import urllib.request

    with AllocationService(tmp_path / "c.sqlite", tmp_path / "q.sqlite", workers=0) as service:
        client = ServiceClient(service.url)
        for registers in (2, 3, 4):
            client.submit({"ir": "func @f(%a) {\nentry:\n  ret %a\n}\n", "registers": registers})
        assert len(client.jobs(limit=2)) == 2
        with pytest.raises(urllib.error.HTTPError) as raised:
            urllib.request.urlopen(f"{service.url}/v1/jobs?limit={limit}", timeout=30)
        assert raised.value.code == 400
        assert json.loads(raised.value.read()) == {
            "error": f"field 'limit' must be an integer >= 1, got {limit!r}"
        }


def test_cli_jobs_limit_below_one_is_one_error_line(tmp_path, capsys):
    from repro.cli import main

    with AllocationService(tmp_path / "c.sqlite", tmp_path / "q.sqlite", workers=0) as service:
        ServiceClient(service.url).submit({"ir": "func @f(%a) {\nentry:\n  ret %a\n}\n", "registers": 2})
        assert main(["jobs", "--url", service.url, "--limit", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("repro-alloc: error: ")
    assert "field 'limit' must be an integer >= 1, got '-1'" in lines[0]


def test_malformed_graph_documents_are_http_400_on_jobs_and_batches(tmp_path):
    """Each malformed graph JSON gets a typed 400 on both POST endpoints,
    never a dropped connection, and queues nothing."""
    import urllib.error
    import urllib.request

    from tests.conftest import MALFORMED_GRAPH_DOCUMENTS

    with AllocationService(tmp_path / "c.sqlite", tmp_path / "q.sqlite", workers=0) as service:
        for name, document in sorted(MALFORMED_GRAPH_DOCUMENTS.items()):
            member = {"graph": document, "registers": 2, "allocator": ALLOCATOR}
            for path, body in (("/v1/jobs", member), ("/v1/batches", {"jobs": [member]})):
                request = urllib.request.Request(
                    f"{service.url}{path}",
                    data=json.dumps(body).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                with pytest.raises(urllib.error.HTTPError) as raised:
                    urllib.request.urlopen(request, timeout=30)
                assert raised.value.code == 400, (name, path)
                error = json.loads(raised.value.read())["error"]
                assert "invalid submission: " in error, (name, path, error)
        assert len(service.queue) == 0
