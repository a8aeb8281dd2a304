"""Batch submissions (``POST /v1/batches``) and per-client queue fairness.

* :func:`normalize_batch` validation and the batch idempotency key
  (order-insensitive over member keys);
* :func:`execute_job` recursion over batch members, with the new
  ``records`` payload every member result carries;
* shared graph problems: members with the same graph build it once for
  the key and once at execution, with keys and results unchanged;
* the graph table: a batch posted inline and as a table shares one key and
  one stored form, which holds each distinct graph once; a batch row queued
  in the form without a table still runs to the same results; every
  malformed table or index is a typed error (HTTP 400 over the wire);
* end-to-end batch over HTTP: one queue job, claimed as a unit, member
  results in submission order;
* per-client fairness: a flood from one client cannot starve another
  client's single job;
* schema migration: a queue database created before the ``client`` column
  existed opens and claims cleanly, and one created before the ``summary``
  column serves the same job JSON.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import time

import pytest

from repro.errors import ServiceError
from repro.graphs import chordal
from repro.graphs.generators import random_chordal_graph, random_interval_graph
from repro.graphs.io import graph_to_dict
from repro.service import api
from repro.service.api import (
    MAX_BATCH_JOBS,
    execute_job,
    job_key,
    normalize_batch,
    normalize_submission,
)
from repro.service.jobs import DONE, PENDING, dumps_payload
from repro.service.queue import JobQueue
from repro.service.server import AllocationService
from repro.service.client import ServiceClient
from repro.store import open_store
from tests.conftest import count_calls

IR = """\
func @f(%a, %b) {
entry:
  %t = add %a, %b
  ret %t
}
"""


def _member(name="m", allocator="NL", registers=4):
    return {"ir": IR, "name": name, "allocator": allocator, "registers": registers}


# ---------------------------------------------------------------------- #
# validation + keys
# ---------------------------------------------------------------------- #
def test_normalize_batch_validates_shape():
    with pytest.raises(ServiceError, match="JSON object"):
        normalize_batch([_member()])
    with pytest.raises(ServiceError, match="unknown batch field"):
        normalize_batch({"jobs": [_member()], "allocator": "NL"})
    with pytest.raises(ServiceError, match="non-empty list"):
        normalize_batch({"jobs": []})
    with pytest.raises(ServiceError, match="exceeds the limit"):
        normalize_batch({"jobs": [_member()] * (MAX_BATCH_JOBS + 1)})
    with pytest.raises(ServiceError, match="batch member 1"):
        normalize_batch({"jobs": [_member(), {"ir": "", "registers": 4}]})
    with pytest.raises(ServiceError, match="queue control"):
        normalize_batch({"jobs": [{**_member(), "priority": 3}]})


def test_normalize_batch_carries_batch_level_controls():
    payload = normalize_batch(
        {"jobs": [_member()], "name": "sweep-00", "client": "sweep", "priority": 2}
    )
    assert payload["kind"] == "batch"
    assert payload["name"] == "sweep-00"
    assert payload["client"] == "sweep"
    assert payload["priority"] == 2
    assert [m["name"] for m in payload["jobs"]] == ["m"]


def test_batch_job_key_is_member_order_insensitive():
    a = normalize_batch({"jobs": [_member("x"), _member("y", registers=2)]})
    b = normalize_batch({"jobs": [_member("y", registers=2), _member("x")]})
    assert job_key(a) == job_key(b)
    c = normalize_batch({"jobs": [_member("x")]})
    assert job_key(a) != job_key(c)


def test_submission_client_field_normalizes():
    payload = normalize_submission({**_member(), "client": "cli"})
    assert payload["client"] == "cli"
    assert normalize_submission(_member())["client"] == ""


# ---------------------------------------------------------------------- #
# execution
# ---------------------------------------------------------------------- #
def test_execute_batch_recurses_members_and_aggregates_meta(tmp_path):
    payload = normalize_batch({"jobs": [_member("a"), _member("b", registers=2)]})
    with open_store(tmp_path / "cells.sqlite") as store:
        result = execute_job(payload, store)
    assert [m["name"] for m in result["jobs"]] == ["a", "b"]
    assert result["meta"]["jobs"] == 2
    for member in result["jobs"]:
        assert member["functions"], "member result must carry function summaries"
        assert member["records"], "member result must carry records"
        for record in member["records"]:
            assert record["runtime_seconds"] == 0.0
    total = sum(member["meta"]["cache"]["miss"] for member in result["jobs"])
    assert result["meta"]["cache"]["miss"] == total


def test_single_job_results_now_carry_records(tmp_path):
    payload = normalize_submission(_member())
    with open_store(tmp_path / "cells.sqlite") as store:
        result = execute_job(payload, store)
    assert len(result["records"]) == len(result["functions"])
    record = result["records"][0]
    assert record["allocator"] == "NL"
    assert record["num_registers"] == 4


# ---------------------------------------------------------------------- #
# shared graph problems
# ---------------------------------------------------------------------- #
def _graph_batch_body(table=False):
    """Twelve graph members over two graphs, interleaved: each graph under
    NL and BFPL at R = 2, 3 and 4.  The second graph carries intervals.
    With ``table``, the graphs travel once in ``"graphs"`` and the members
    index them."""
    first = graph_to_dict(random_chordal_graph(18, rng=3), name="first")
    graph, intervals = random_interval_graph(16, rng=5, span=40, max_length=10)
    second = graph_to_dict(graph, name="second")
    wire = [[str(v), start, end] for v, (start, end) in sorted(intervals.items(), key=lambda item: str(item[0]))]
    members = []
    for registers in (2, 3, 4):
        for allocator in ("NL", "BFPL"):
            members.append({"graph": 0 if table else first, "registers": registers, "allocator": allocator})
            members.append(
                {"graph": 1 if table else second, "intervals": wire, "registers": registers, "allocator": allocator}
            )
    body = {"jobs": members, "name": "shared"}
    if table:
        body["graphs"] = [first, second]
    return body


def _graph_batch():
    return normalize_batch(_graph_batch_body())


#: the key of ``_graph_batch()``.  The second graph's intervals name their
#: registers bare (``v0``), which the service reads as ``%v0`` — the register
#: the IR prints that way — so they digest like ``ServiceBackend``'s names.
GRAPH_BATCH_KEY = "31d66b059ffb39d8c28a5b0cc850c2ada7611defc3938089e1c085127da835f9"


def test_batch_builds_each_distinct_graph_once_per_phase(tmp_path, monkeypatch):
    payload = _graph_batch()
    builds = count_calls(monkeypatch, api, "graph_from_dict")
    mcs = count_calls(monkeypatch, chordal, "maximum_cardinality_search")
    job_key(payload)
    assert (builds["n"], mcs["n"]) == (2, 0)
    with open_store(tmp_path / "cells.sqlite") as store:
        result = execute_job(payload, store)
    assert (builds["n"], mcs["n"]) == (4, 2)
    assert result["meta"]["cache"] == {"hit": 0, "miss": 12, "off": 0}


def test_shared_problems_keep_the_batch_key_and_member_results(tmp_path):
    payload = _graph_batch()
    assert job_key(payload) == GRAPH_BATCH_KEY
    with open_store(tmp_path / "batch.sqlite") as store:
        batch = execute_job(payload, store)
    for position, member in enumerate(payload["jobs"]):
        with open_store(tmp_path / f"alone-{position}.sqlite") as store:
            alone = execute_job({**member, "graph": payload["graphs"][member["graph"]]}, store)
        shared = batch["jobs"][position]
        assert shared["name"] == member["name"]
        assert (shared["functions"], shared["records"]) == (alone["functions"], alone["records"])


def test_malformed_member_graph_keeps_its_submit_error():
    document = graph_to_dict(random_chordal_graph(6, rng=1), name="g")
    broken = {**document, "edges": document["edges"] + [["g0", "nowhere"]]}
    payload = normalize_batch(
        {"jobs": [{"graph": document, "registers": 2}, {"graph": broken, "registers": 2}]}
    )
    with pytest.raises(ServiceError, match=r"^invalid submission: edge \('g0', 'nowhere'\) references unknown vertex$"):
        job_key(payload)


# ---------------------------------------------------------------------- #
# the graph table
# ---------------------------------------------------------------------- #
def _graph_documents(payload):
    return dumps_payload(payload).count('"repro-interference-graph"')


def test_inline_and_table_batches_share_the_key_and_the_stored_form():
    inline = _graph_batch()
    tabled = normalize_batch(_graph_batch_body(table=True))
    assert job_key(inline) == job_key(tabled) == GRAPH_BATCH_KEY
    assert tabled == inline
    assert [graph["name"] for graph in tabled["graphs"]] == ["first", "second"]
    assert [member["graph"] for member in tabled["jobs"]] == [0, 1] * 6
    assert _graph_documents(tabled) == 2


def test_equal_table_entries_and_inline_graphs_share_one_entry():
    body = _graph_batch_body(table=True)
    first, second = body["graphs"]
    # A copy of ``first`` in the table and an inline copy of ``second``.
    body["graphs"].append(json.loads(json.dumps(first)))
    body["jobs"][0]["graph"] = 2
    body["jobs"][1]["graph"] = json.loads(json.dumps(second))
    payload = normalize_batch(body)
    assert payload == _graph_batch()
    assert _graph_documents(payload) == 2


#: SHA-256 of the queue payload ``normalize_batch(_graph_batch_body())``
#: wrote before payloads carried a graph table: every member inline.
UNTABLED_FORM_DIGEST = "827fb094e981b4f27792405e8a1df7522274f50ad9491e4159618b7f92782c9a"


def _untabled_form(payload):
    """``payload`` with each member's graph inline again and no table."""
    graphs = payload["graphs"]
    jobs = [{**member, "graph": graphs[member["graph"]]} if member["kind"] == "graph" else member
            for member in payload["jobs"]]
    return {**{field: value for field, value in payload.items() if field != "graphs"}, "jobs": jobs}


def _run_queued(service, payload, key):
    job, _ = service.queue.enqueue(payload, job_key=key, client="legacy")
    service.pool.notify()
    deadline = time.monotonic() + 60.0
    while not service.job(job.id).terminal:
        assert time.monotonic() < deadline, "queued batch did not finish"
        time.sleep(0.02)
    return service.job(job.id)


def test_batch_row_queued_without_a_table_runs_like_its_table_form(tmp_path):
    payload = _graph_batch()
    legacy = _untabled_form(payload)
    assert hashlib.sha256(dumps_payload(legacy).encode("utf-8")).hexdigest() == UNTABLED_FORM_DIGEST
    assert job_key(legacy) == GRAPH_BATCH_KEY
    results = []
    for form, queued in (("table", payload), ("legacy", legacy)):
        service = AllocationService(tmp_path / f"{form}.sqlite", workers=1, port=0)
        service.pool.start()
        try:
            job = _run_queued(service, queued, form)
        finally:
            service.shutdown()
        assert job.state == DONE, job.error
        results.append([(m["name"], m["functions"], m["records"]) for m in job.result["jobs"]])
    assert results[0] == results[1]
    assert len(results[0]) == 12


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda body: body.update(graphs={"0": body["graphs"][0]}), 'batch field "graphs" must be a list'),
        (lambda body: body["graphs"].append([]), "batch graph entry 2 must be a graph-JSON object, got list"),
        (lambda body: body["jobs"][3].update(graph=True), r'batch member 3: field "graph" must be .* got True'),
        (lambda body: body["jobs"][3].update(graph="1"), r"batch member 3: field \"graph\" must be .* got '1'"),
        (lambda body: body["jobs"][3].update(graph=1.0), r'batch member 3: field "graph" must be .* got 1\.0'),
        (lambda body: body["jobs"][3].update(graph=-1), r'batch member 3: graph index -1 is out of range for "graphs" of length 2'),
        (lambda body: body["jobs"][3].update(graph=2), r'batch member 3: graph index 2 is out of range for "graphs" of length 2'),
        (lambda body: body["graphs"].append(body["graphs"][0]), "batch graph entry 2 is referenced by no member"),
    ],
    ids=["graphs-not-a-list", "entry-not-an-object", "index-bool", "index-string", "index-float",
         "index-negative", "index-out-of-range", "entry-unreferenced"],
)
def test_malformed_graph_tables_are_typed_errors(change, message):
    body = _graph_batch_body(table=True)
    change(body)
    with pytest.raises(ServiceError, match=message):
        normalize_batch(body)


def test_a_single_job_takes_no_graph_index():
    with pytest.raises(ServiceError, match=r'field "graph" is an index into a batch\'s "graphs" table'):
        normalize_submission({"graph": 0, "registers": 2})


def test_members_resolved_from_the_table_keep_their_checks():
    body = _graph_batch_body(table=True)
    del body["jobs"][4]["registers"]
    with pytest.raises(ServiceError, match=r'^batch member 4: graph submissions require an explicit "registers" count$'):
        normalize_batch(body)
    body = _graph_batch_body(table=True)
    body["graphs"][1] = {**body["graphs"][1], "edges": [["v0", "nowhere"]]}
    with pytest.raises(ServiceError, match=r"^invalid submission: edge \('v0', 'nowhere'\) references unknown vertex$"):
        job_key(normalize_batch(body))


def test_graph_table_errors_are_http_400(tmp_path):
    service = AllocationService(tmp_path / "cells.sqlite", workers=0, port=0).start()
    try:
        client = ServiceClient(service.url)
        body = _graph_batch_body(table=True)
        body["jobs"][5]["graph"] = 7
        with pytest.raises(ServiceError, match=r'HTTP 400: batch member 5: graph index 7 is out of range'):
            client.submit_batch(body)
        with pytest.raises(ServiceError, match=r"HTTP 400: field \"graph\" is an index"):
            client.submit({"graph": 0, "registers": 2})
        assert sum(service.queue.counts().values()) == 0
    finally:
        service.shutdown()


# ---------------------------------------------------------------------- #
# end-to-end over HTTP
# ---------------------------------------------------------------------- #
def test_batch_over_http_runs_as_one_job_and_dedupes(tmp_path):
    service = AllocationService(tmp_path / "cells.sqlite", workers=1, port=0).start()
    try:
        client = ServiceClient(service.url)
        body = {
            "jobs": [_member("a"), _member("b", registers=2)],
            "name": "batch-e2e",
            "client": "sweep",
        }
        response = client.submit_batch(body)
        assert not response["deduped"]
        job = client.wait(response["job"]["id"], timeout=60.0)
        assert job["state"] == "done"
        assert job["client"] == "sweep"
        assert [m["name"] for m in job["result"]["jobs"]] == ["a", "b"]

        # Same members, different order: the batch key collides and dedupes.
        reordered = {"jobs": [_member("b", registers=2), _member("a")], "client": "sweep"}
        again = client.submit_batch(reordered)
        assert again["deduped"]
        assert again["job"]["id"] == response["job"]["id"]
    finally:
        service.shutdown()


def test_malformed_batch_is_http_400(tmp_path):
    service = AllocationService(tmp_path / "cells.sqlite", workers=0, port=0).start()
    try:
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError, match="HTTP 400"):
            client.submit_batch({"jobs": []})
    finally:
        service.shutdown()


# ---------------------------------------------------------------------- #
# per-client fairness
# ---------------------------------------------------------------------- #
def test_claims_round_robin_across_clients(tmp_path):
    queue = JobQueue(tmp_path / "q.sqlite")
    try:
        for index in range(10):
            queue.enqueue(
                {"name": f"sweep-{index}"}, job_key=f"s{index}", client="mega-sweep"
            )
        queue.enqueue({"name": "interactive"}, job_key="i0", client="alice")
        # Despite ten earlier sweep jobs, alice's single submission is
        # claimed second — least-recently-served client first.
        first = queue.claim("w0")
        second = queue.claim("w0")
        clients = {first.client, second.client}
        assert clients == {"mega-sweep", "alice"}
    finally:
        queue.close()


def test_single_client_queue_degenerates_to_submission_order(tmp_path):
    queue = JobQueue(tmp_path / "q.sqlite")
    try:
        for index in range(4):
            queue.enqueue({"name": f"j{index}"}, job_key=f"k{index}")
        order = [queue.claim("w0").payload["name"] for _ in range(4)]
        assert order == ["j0", "j1", "j2", "j3"]
    finally:
        queue.close()


def test_flooding_client_cannot_starve_interactive_client(tmp_path):
    queue = JobQueue(tmp_path / "q.sqlite")
    try:
        for index in range(6):
            queue.enqueue({"name": f"s{index}"}, job_key=f"s{index}", client="sweep")
        for index in range(2):
            queue.enqueue({"name": f"i{index}"}, job_key=f"i{index}", client="cli")
        claimed = [queue.claim("w0") for _ in range(4)]
        by_client = [job.client for job in claimed]
        # Strict alternation while both clients have pending jobs.
        assert by_client == ["sweep", "cli", "sweep", "cli"]
    finally:
        queue.close()


# ---------------------------------------------------------------------- #
# schema migration
# ---------------------------------------------------------------------- #
def test_pre_client_queue_database_migrates(tmp_path):
    """A queue DB written before the client column existed opens cleanly."""
    path = tmp_path / "old.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE jobs (
            seq INTEGER PRIMARY KEY AUTOINCREMENT,
            id TEXT NOT NULL UNIQUE,
            job_key TEXT NOT NULL,
            state TEXT NOT NULL,
            priority INTEGER NOT NULL DEFAULT 0,
            attempts INTEGER NOT NULL DEFAULT 0,
            max_attempts INTEGER NOT NULL DEFAULT 3,
            not_before REAL NOT NULL DEFAULT 0,
            created_at REAL NOT NULL,
            updated_at REAL NOT NULL,
            claimed_by TEXT,
            payload TEXT NOT NULL,
            result TEXT,
            error TEXT
        );
        """
    )
    now = time.time()
    conn.execute(
        "INSERT INTO jobs (id, job_key, state, created_at, updated_at, payload)"
        " VALUES ('old-1', 'k-old', ?, ?, ?, '{\"name\": \"legacy\"}')",
        (PENDING, now, now),
    )
    conn.commit()
    conn.close()

    queue = JobQueue(path)
    try:
        assert queue.get("old-1").to_dict()["name"] == "legacy"
        job = queue.claim("w0")
        assert job is not None
        assert job.id == "old-1"
        assert job.client == ""
        queue.complete(job.id, {"ok": True})
    finally:
        queue.close()


#: the ``jobs`` table of queue files written before the ``summary`` column.
PRE_SUMMARY_SCHEMA = """
CREATE TABLE jobs (
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
    client       TEXT    NOT NULL DEFAULT ''
);
"""


def test_pre_summary_queue_database_serves_the_same_job_json(tmp_path):
    """Rows written before the summary column gain it on open and serve the
    job JSON the parent schema served."""
    path = tmp_path / "old.sqlite"
    single = normalize_submission({"ir": IR, "name": "single", "registers": 3})
    batch = normalize_batch({"jobs": [_member("a"), _member("b", registers=2)], "name": "sweep-00"})
    result = {"functions": [], "records": [], "meta": {"cache": {"hit": 1}}}
    conn = sqlite3.connect(path)
    conn.executescript(PRE_SUMMARY_SCHEMA)
    conn.executemany(
        "INSERT INTO jobs (id, job_key, state, attempts, created_at, updated_at, claimed_by, payload, result, client)"
        " VALUES (?, ?, ?, ?, 10.0, 11.0, ?, ?, ?, ?)",
        [
            ("single-1", "k1", DONE, 1, "worker-0", dumps_payload(single), dumps_payload(result), "cli"),
            ("batch-1", "k2", PENDING, 0, None, dumps_payload(batch), None, "sweep"),
        ],
    )
    conn.commit()
    conn.close()

    common = {"priority": 0, "max_attempts": 3, "not_before": 0.0, "created_at": 10.0,
              "updated_at": 11.0, "error": None}
    expected = {
        "single-1": {**common, "id": "single-1", "job_key": "k1", "state": DONE, "attempts": 1,
                     "claimed_by": "worker-0", "client": "cli", "name": "single", "allocator": "NL",
                     "registers": 3, "target": "st231", "result": result},
        "batch-1": {**common, "id": "batch-1", "job_key": "k2", "state": PENDING, "attempts": 0,
                    "claimed_by": None, "client": "sweep", "name": "sweep-00", "allocator": None,
                    "registers": None, "target": None, "result": None},
    }
    for _ in range(2):  # the first open migrates, the second finds nothing to do
        queue = JobQueue(path)
        try:
            for job_id, served in expected.items():
                assert queue.get(job_id).to_dict() == served
            listing = [job.to_dict(include_result=False) for job in queue.list_jobs()]
            assert listing == [
                {k: v for k, v in expected[job_id].items() if k != "result"}
                for job_id in ("batch-1", "single-1")
            ]
        finally:
            queue.close()
    with sqlite3.connect(path) as conn:
        summaries = dict(conn.execute("SELECT id, summary FROM jobs"))
        # A process that predates the column, sharing the file, inserts no summary.
        conn.execute(
            "INSERT INTO jobs (id, job_key, state, created_at, updated_at, payload)"
            " VALUES ('late-1', 'k3', ?, 12.0, 12.0, ?)",
            (PENDING, dumps_payload(single)),
        )
    assert sorted(summaries) == ["batch-1", "single-1"]
    assert None not in summaries.values()
    queue = JobQueue(path)
    try:
        late = queue.get("late-1").to_dict(include_result=False)
        assert (late["name"], late["allocator"], late["registers"]) == ("single", "NL", 3)
    finally:
        queue.close()
