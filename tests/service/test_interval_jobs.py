"""Graph jobs that carry live intervals: the linear scans run on the service.

``ServiceBackend`` sends each corpus problem's intervals with its graph,
registers written as the IR prints them (``%x``).  The service must read
each wire name back as the register it names, so LS and BLS members
allocate exactly like the local runner, and a bare name (``x``) is the same
register under the same job key.
"""

from __future__ import annotations

import pytest

from repro.experiments.backends import ServiceBackend
from repro.experiments.runner import run_cells
from repro.service.api import execute_job, job_key, normalize_submission
from repro.service.client import ServiceClient
from repro.service.server import AllocationService
from repro.store import open_store
from repro.store.base import record_from_dict
from repro.workloads.corpus import build_corpus

CELLS = [(4, "LS"), (4, "BLS"), (8, "LS"), (8, "BLS")]

#: ``job_key`` of the (R=4, LS) member of specjvm98/jess/fn0 (seed 2013,
#: scale 0.1), computed before the service decoded interval names.
JESS_LS_KEY = "1cb810a3ce2a19dfa921f4c02be45db149e5d6fdab6b29a3c233d609c9c2c9cb"


@pytest.fixture(scope="module")
def problems():
    return build_corpus("specjvm98", seed=2013, scale=0.1).problems


def _members(problem, cells):
    return ServiceBackend(["http://localhost:1"])._submissions(problem, cells)


def _outcome(record):
    return (
        record.allocator,
        record.num_registers,
        record.spill_cost,
        record.num_spilled,
        record.spilled,
        record.stats,
    )


def test_linear_scan_members_allocate_like_run_cells(problems, tmp_path):
    with open_store(tmp_path / "cells.sqlite") as store:
        for problem in problems:
            assert problem.intervals
            expected = [_outcome(record) for record in run_cells(problem, CELLS)]
            served = []
            for body in _members(problem, CELLS):
                result = execute_job(normalize_submission(body), store)
                (record,) = result["records"]
                served.append(_outcome(record_from_dict(record)))
            assert served == expected, problem.name


def test_linear_scan_member_key_is_unchanged(problems):
    (jess,) = [problem for problem in problems if problem.name == "specjvm98/jess/fn0"]
    (body,) = _members(jess, [(4, "LS")])
    assert all(name.startswith("%") for name, _, _ in body["intervals"])
    assert job_key(normalize_submission(body)) == JESS_LS_KEY


def test_bare_and_percent_interval_names_share_one_key(problems):
    (body,) = _members(problems[0], [(4, "BLS")])
    bare = {**body, "intervals": [[name.removeprefix("%"), start, end] for name, start, end in body["intervals"]]}
    assert bare["intervals"] != body["intervals"]
    assert job_key(normalize_submission(bare)) == job_key(normalize_submission(body))


def test_linear_scan_member_over_http_ends_done(problems, tmp_path):
    (body,) = _members(problems[0], [(4, "LS")])
    service = AllocationService(tmp_path / "cells.sqlite", workers=1, port=0).start()
    try:
        client = ServiceClient(service.url)
        response = client.submit(body)
        job = client.wait(response["job"]["id"], timeout=60.0)
        assert job["state"] == "done", job["error"]
        assert job["attempts"] == 1
        (record,) = job["result"]["records"]
        assert record["allocator"] == "LS"
    finally:
        service.shutdown()
