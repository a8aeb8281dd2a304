"""Request validation, idempotency keys and job execution.

This module is the service's domain layer — everything the HTTP front end
(:mod:`repro.service.server`) and the worker pool
(:mod:`repro.service.workers`) do to a job body happens here, so it is
directly testable without sockets.

A submission body (``POST /v1/jobs``) is JSON with either

* ``"ir"`` — textual IR (a module; every function in it is allocated), or
* ``"graph"`` — a graph-JSON document (one pre-built interference graph,
  ``"registers"`` required since there is no target to default from),

plus the knobs ``allocator`` (registry name or alias), ``target``,
``registers``, ``ssa``, ``opt``, ``name``, and the queue controls
``priority`` / ``max_attempts``.

Idempotency contract
--------------------
:func:`job_key` digests the *cache cells* a submission resolves to — the
sorted ``(problem_digest, allocator, allocator_version, R)`` keys of PR 2's
store contract, plus the lowering options that shaped them — **at submit
time**.  Two submissions that allocate the same problems with the same
allocator/version/R therefore collide on the key even if the IR text
differs cosmetically (renamed module, reordered functions), and the queue
returns the existing pending/running/done job instead of re-queueing.  The
same cell keys drive the store lookup when the job runs, so a job whose
cells are already cached completes without invoking an allocator at all.

Batches (``POST /v1/batches``)
------------------------------
A batch body may carry a graph table, ``"graphs": [<graph-JSON>, ...]``,
and a member's ``"graph"`` may then be an integer index into it instead of
an inline document, so a sweep batch of one instance's cells sends that
instance's graph once.  Every member is validated with its resolved graph,
exactly like a single job.  The queued payload holds one table too
(:func:`graph_table`): each distinct graph once, in order of first
reference, inline member graphs hoisted into it and equal documents sharing
one entry; its members hold indices.  A batch queued before the table
existed (inline graphs, no table) is read through the same helper when it
is claimed, so it runs to the same results.

A batch key digests the sorted member keys, which digest the cells the
members resolve to, so a batch posted inline and as a table shares one key.
A single job goes through the same member code as a batch of one.  Graph
members with the same table entry, name and intervals share one
:class:`AllocationProblem`: it is built once and cloned per register count
with :meth:`~repro.alloc.problem.AllocationProblem.with_registers`, once
for the key at submit and once at execution.  Its digest, elimination order
and cliques are therefore computed once per distinct graph, not once per
member.  IR members run the front end per member.

:func:`execute_job` returns ``result["functions"]`` built from the
*deterministic* subset of each pipeline summary (timings and per-stage
stats stripped), so a warm re-run and ``Pipeline.run`` produce
byte-identical function payloads; the volatile measurements live under
``result["meta"]``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.alloc.base import get_allocator
from repro.alloc.problem import AllocationProblem
from repro.analysis.live_ranges import LiveInterval
from repro.errors import ReproError, ServiceError
from repro.graphs.io import graph_from_dict
from repro.ir.parser import parse_module
from repro.ir.values import VirtualRegister
from repro.pipeline.engine import Pipeline
from repro.pipeline.passes import allocate_cell_key
from repro.pipeline.spec import PipelineSpec

#: the submit-time key format tag (bump on any change to the digest layout).
JOB_KEY_VERSION = "repro-service-job/1"

#: hard cap on member submissions per ``POST /v1/batches`` body.
MAX_BATCH_JOBS = 1024

#: summary() fields that vary run-to-run; everything else is deterministic.
_VOLATILE_SUMMARY_FIELDS = ("timings", "stage_stats")

#: front-end-only chain used to materialize problems at submit time.
_FRONT_END_STAGES = ("liveness", "interference", "extract")

_ALLOWED_FIELDS = {
    "ir",
    "graph",
    "name",
    "allocator",
    "target",
    "registers",
    "ssa",
    "opt",
    "priority",
    "max_attempts",
    "client",
    "intervals",
}

_BATCH_ALLOWED_FIELDS = {"jobs", "graphs", "name", "client", "priority", "max_attempts"}


def _require_bool(body: Dict[str, Any], field: str, default: bool) -> bool:
    value = body.get(field, default)
    if not isinstance(value, bool):
        raise ServiceError(f"field {field!r} must be a boolean, got {value!r}")
    return value


def _require_int(body: Dict[str, Any], field: str) -> Optional[int]:
    value = body.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(f"field {field!r} must be an integer, got {value!r}")
    return value


def normalize_submission(body: Any) -> Dict[str, Any]:
    """Validate a ``POST /v1/jobs`` body into the canonical queue payload.

    Raises :class:`ServiceError` on any malformed field (the front end
    renders it as HTTP 400).  The returned payload carries the canonical
    allocator registry name (aliases resolved), so jobs submitted as
    ``"layered"`` and ``"NL"`` share cache cells and idempotency keys.
    """
    if not isinstance(body, dict):
        raise ServiceError(f"submission must be a JSON object, got {type(body).__name__}")
    unknown = sorted(set(body) - _ALLOWED_FIELDS)
    if unknown:
        raise ServiceError(
            f"unknown submission field(s) {unknown}; known fields: {sorted(_ALLOWED_FIELDS)}"
        )
    has_ir = "ir" in body
    has_graph = "graph" in body
    if has_ir == has_graph:
        raise ServiceError('submission needs exactly one of "ir" or "graph"')

    try:
        allocator = get_allocator(str(body.get("allocator", "NL")))
    except ReproError as error:
        raise ServiceError(str(error)) from None
    except KeyError as error:
        raise ServiceError(str(error.args[0]) if error.args else str(error)) from None

    registers = _require_int(body, "registers")
    if registers is not None and registers < 0:
        raise ServiceError(f"negative register count {registers}")
    priority = _require_int(body, "priority") or 0
    max_attempts = _require_int(body, "max_attempts")
    if max_attempts is not None and max_attempts < 1:
        raise ServiceError(f"max_attempts must be >= 1, got {max_attempts}")

    payload: Dict[str, Any] = {
        "allocator": allocator.name,
        "registers": registers,
        "ssa": _require_bool(body, "ssa", True),
        "opt": _require_bool(body, "opt", True),
        "priority": priority,
        "max_attempts": max_attempts,
        "client": str(body.get("client", "")),
    }
    if has_ir:
        if "intervals" in body:
            raise ServiceError('field "intervals" is only valid with graph submissions')
        ir = body["ir"]
        if not isinstance(ir, str) or not ir.strip():
            raise ServiceError('field "ir" must be a non-empty string of textual IR')
        payload["kind"] = "ir"
        payload["ir"] = ir
        payload["target"] = str(body.get("target", "st231"))
        payload["name"] = str(body.get("name", "module"))
    else:
        graph = body["graph"]
        if isinstance(graph, int) and not isinstance(graph, bool):
            raise ServiceError(
                'field "graph" is an index into a batch\'s "graphs" table; '
                "a single job must carry the graph-JSON object"
            )
        if not isinstance(graph, dict):
            raise ServiceError('field "graph" must be a graph-JSON object')
        if registers is None:
            raise ServiceError('graph submissions require an explicit "registers" count')
        if "target" in body:
            raise ServiceError("graph submissions take no target (raw-problem contract)")
        payload["kind"] = "graph"
        payload["graph"] = graph
        payload["target"] = None
        payload["name"] = str(body.get("name", graph.get("name") or "problem"))
        intervals = _normalized_intervals(body.get("intervals"))
        if intervals is not None:
            payload["intervals"] = intervals
    return payload


def listing_limit(raw: str) -> int:
    """Validate the ``limit`` query field of a ``GET /v1/jobs`` listing.

    It must be an integer of at least 1: SQLite reads a negative ``LIMIT``
    as no limit at all, so ``-1`` would list every job.
    """
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ServiceError(f"field 'limit' must be an integer >= 1, got {raw!r}")
    return limit


def _normalized_intervals(raw: Any) -> Optional[List[List[Any]]]:
    """Validate the optional ``intervals`` field of a graph submission.

    The wire form is ``[[register, start, end], ...]`` — what the
    linear-scan allocator family consumes, and part of the problem digest,
    so a distributed linear-scan sweep keys the same cells as a local one.
    A register is written as the IR prints it (``%x``); a bare name (``x``)
    names the same register.
    """
    if raw is None:
        return None
    if not isinstance(raw, list):
        raise ServiceError('field "intervals" must be a list of [register, start, end] triples')
    out: List[List[Any]] = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ServiceError(
                f'invalid interval {entry!r}: expected a [register, start, end] triple'
            )
        register, start, end = entry
        try:
            out.append([str(register), int(start), int(end)])
        except (TypeError, ValueError):
            raise ServiceError(
                f"invalid interval {entry!r}: start/end must be integers"
            ) from None
    return out


def normalize_batch(body: Any) -> Dict[str, Any]:
    """Validate a ``POST /v1/batches`` body into one batch queue payload.

    A batch is ``{"jobs": [submission, ...]}`` plus the optional graph
    table ``graphs`` and the batch-level ``name``, ``client``, ``priority``
    and ``max_attempts`` (member-level queue controls are rejected — the
    batch is claimed and scheduled as a single unit by one worker, so
    scheduling knobs live on the batch).  A member's ``"graph"`` is an
    inline document or an index into ``graphs``; every table entry must be
    referenced.  The payload holds the table :func:`graph_table` builds.
    """
    if not isinstance(body, dict):
        raise ServiceError(f"batch must be a JSON object, got {type(body).__name__}")
    unknown = sorted(set(body) - _BATCH_ALLOWED_FIELDS)
    if unknown:
        raise ServiceError(
            f"unknown batch field(s) {unknown}; known fields: {sorted(_BATCH_ALLOWED_FIELDS)}"
        )
    jobs = body.get("jobs")
    if not isinstance(jobs, list) or not jobs:
        raise ServiceError('batch field "jobs" must be a non-empty list of submissions')
    if len(jobs) > MAX_BATCH_JOBS:
        raise ServiceError(f"batch of {len(jobs)} jobs exceeds the limit of {MAX_BATCH_JOBS}")
    table = body.get("graphs", [])
    if not isinstance(table, list):
        raise ServiceError('batch field "graphs" must be a list of graph-JSON objects')
    for slot, graph in enumerate(table):
        if not isinstance(graph, dict):
            raise ServiceError(
                f"batch graph entry {slot} must be a graph-JSON object, got {type(graph).__name__}"
            )
    priority = _require_int(body, "priority") or 0
    max_attempts = _require_int(body, "max_attempts")
    if max_attempts is not None and max_attempts < 1:
        raise ServiceError(f"max_attempts must be >= 1, got {max_attempts}")
    referenced: Set[int] = set()
    members: List[Dict[str, Any]] = []
    for position, entry in enumerate(jobs):
        if isinstance(entry, dict):
            controls = sorted({"priority", "max_attempts", "client"} & set(entry))
            if controls:
                raise ServiceError(
                    f"batch member {position} carries queue control(s) {controls}; "
                    "set them on the batch itself"
                )
            index = entry.get("graph")
            if "graph" in entry and not isinstance(index, dict):
                if isinstance(index, bool) or not isinstance(index, int):
                    raise ServiceError(
                        f'batch member {position}: field "graph" must be a graph-JSON object '
                        f'or an integer index into "graphs", got {index!r}'
                    )
                if not 0 <= index < len(table):
                    raise ServiceError(
                        f"batch member {position}: graph index {index} is out of range "
                        f'for "graphs" of length {len(table)}'
                    )
                referenced.add(index)
                entry = {**entry, "graph": table[index]}
        try:
            members.append(normalize_submission(entry))
        except ServiceError as error:
            raise ServiceError(f"batch member {position}: {error}") from None
    unreferenced = sorted(set(range(len(table))) - referenced)
    if unreferenced:
        raise ServiceError(f"batch graph entry {unreferenced[0]} is referenced by no member")
    graphs, members = graph_table(members)
    return {
        "kind": "batch",
        "name": str(body.get("name", "batch")),
        "client": str(body.get("client", "")),
        "priority": priority,
        "max_attempts": max_attempts,
        "graphs": graphs,
        "jobs": members,
    }


def graph_table(members: List[Dict[str, Any]]) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Hoist the members' inline graphs into one table.

    Returns ``(graphs, members)``: each distinct graph document once, in
    order of first reference (the same object or an equal document share
    one entry), and the members with each inline ``"graph"`` replaced by
    its index.  Members without an inline graph are passed through.  The
    batch clients build their ``POST /v1/batches`` tables with it, and the
    service its queued payloads.
    """
    graphs: List[Dict[str, Any]] = []
    hoisted: List[Dict[str, Any]] = []
    for member in members:
        graph = member.get("graph")
        if not isinstance(graph, dict):
            hoisted.append(member)
            continue
        slot = next((i for i, entry in enumerate(graphs) if entry is graph or entry == graph), None)
        if slot is None:
            slot = len(graphs)
            graphs.append(graph)
        hoisted.append({**member, "graph": slot})
    return graphs, hoisted


def _graph_problem(payload: Dict[str, Any], graph: Dict[str, Any]) -> AllocationProblem:
    """Rebuild the :class:`AllocationProblem` of a graph member on ``graph``."""
    intervals = payload.get("intervals")
    return AllocationProblem(
        graph=graph_from_dict(graph),
        num_registers=int(payload["registers"]),
        name=payload["name"],
        intervals=(
            [
                LiveInterval(VirtualRegister(reg.removeprefix("%")), int(start), int(end))
                for reg, start, end in intervals
            ]
            if intervals
            else None
        ),
    )


def _members(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """A batch's member payloads; any other payload is a batch of one."""
    return payload["jobs"] if payload.get("kind") == "batch" else [payload]


def _tabled(payload: Dict[str, Any]) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """A payload's graph table and its members, whose graphs index it.

    :func:`normalize_batch` writes both.  A single job, and a batch queued
    before payloads carried a table, have their inline graphs hoisted here,
    so every payload in the queue runs the same way.
    """
    if "graphs" in payload:
        return payload["graphs"], payload["jobs"]
    return graph_table(_members(payload))


def _graph_problems(
    graphs: List[Dict[str, Any]], members: List[Dict[str, Any]]
) -> Iterator[Optional[AllocationProblem]]:
    """Each member's graph problem, in order (``None`` for an IR member).

    Graph members with the same table entry, name and intervals share one
    problem: it is built once and cloned per register count with
    :meth:`~AllocationProblem.with_registers`, as a local sweep does, so
    the clones share its digest, elimination order and cliques.
    """
    built: List[Tuple[Dict[str, Any], AllocationProblem]] = []
    for member in members:
        if member["kind"] != "graph":
            yield None
            continue
        shared = next(
            (
                problem
                for other, problem in built
                if other["graph"] == member["graph"]
                and other["name"] == member["name"]
                and other.get("intervals") == member.get("intervals")
            ),
            None,
        )
        if shared is None:
            problem = _graph_problem(member, graphs[member["graph"]])
            built.append((member, problem))
            yield problem
        else:
            yield shared.with_registers(int(member["registers"]))


def _payload_spec(payload: Dict[str, Any], **overrides: Any) -> PipelineSpec:
    return PipelineSpec.parse(
        {
            "allocator": payload["allocator"],
            "target": payload["target"],
            "registers": payload["registers"],
            "ssa": payload["ssa"],
            "opt": payload["opt"],
        },
        **overrides,
    )


def _front_end_problems(payload: Dict[str, Any]) -> List[Tuple[str, AllocationProblem]]:
    """The problems of an IR payload, one per function, from the front end."""
    module = parse_module(payload["ir"], name=payload["name"])
    pipeline = Pipeline(_payload_spec(payload, stages=_FRONT_END_STAGES))
    return [(context.name, context.problem) for context in map(pipeline.run, module)]


def submission_problems(payload: Dict[str, Any]) -> List[List[Tuple[str, AllocationProblem]]]:
    """Materialize the allocation problems of each member of a payload.

    A single job is a batch of one.  Graph members share problems as
    :func:`_graph_problems` describes.  IR members run the front-end-only
    chain (liveness → interference → extract) per function — exactly the
    analyses a full run would perform, so the problems (and hence digests)
    match what the worker later keys the cache with.  Raises
    :class:`ServiceError` on parse/build failures.
    """
    graphs, members = _tabled(payload)
    try:
        return [
            _front_end_problems(member) if problem is None else [(member["name"], problem)]
            for member, problem in zip(members, _graph_problems(graphs, members))
        ]
    except ServiceError:
        raise
    except ReproError as error:
        raise ServiceError(f"invalid submission: {error}") from error


def _digest(document: Dict[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def job_key(payload: Dict[str, Any]) -> str:
    """The submission's idempotency key (see the module docstring).

    A member's key digests the store cells its problems resolve to.  A
    batch key digests the *sorted member keys*, so a resubmitted sweep
    batch (same member submissions, any member order) collides with the
    original and dedupes against its pending/running/done result.
    """
    keys = []
    for member, problems in zip(_members(payload), submission_problems(payload)):
        allocator = get_allocator(member["allocator"])
        cells = [allocate_cell_key(problem, allocator, target=member["target"]) for _, problem in problems]
        keys.append(
            _digest(
                {
                    "format": JOB_KEY_VERSION,
                    "cells": [cell.to_dict() for cell in sorted(cells)],
                    "options": {"ssa": member["ssa"], "opt": member["opt"]},
                }
            )
        )
    if payload.get("kind") != "batch":
        return keys[0]
    return _digest({"format": JOB_KEY_VERSION, "batch": sorted(keys)})


def deterministic_summary(summary: Dict[str, Any]) -> Dict[str, Any]:
    """A pipeline summary with its volatile (measured) fields stripped."""
    return {k: v for k, v in summary.items() if k not in _VOLATILE_SUMMARY_FIELDS}


def execute_job(payload: Dict[str, Any], store: Any) -> Dict[str, Any]:
    """Run one job's allocations through the pipeline, cache-first.

    Returns ``{"functions": [...], "meta": {...}}`` where ``functions``
    holds the deterministic per-function summaries (byte-identical between
    a cold run, a warm cache-hit run and a direct ``Pipeline.run``) and
    ``meta`` the volatile measurements: the allocate-stage cache split and
    per-stage seconds.  Cache accounting comes from the stage stats, so
    the result is the same with or without an ambient tracer bound; the
    worker pool additionally binds a per-job tracer around this call so
    the run's ``store.hit``/``store.miss`` counters land in the service
    aggregate.

    A batch payload executes its members in submission order (cache-first,
    like any single job) and returns ``{"jobs": [{"name", "functions",
    "records", "meta"}, ...], "meta": {...}}`` with the member cache splits
    and stage seconds aggregated into the batch-level ``meta``.  Graph
    members with the same table entry, name and intervals run on clones of
    one problem, so each distinct graph is built and analysed once per
    batch.
    """
    graphs, members = _tabled(payload)
    results = [
        _execute_member(member, problem, store)
        for member, problem in zip(members, _graph_problems(graphs, members))
    ]
    if payload.get("kind") != "batch":
        return results[0]
    cache = {"hit": 0, "miss": 0, "off": 0}
    stage_seconds: Dict[str, float] = {}
    for result in results:
        for mode, count in result["meta"]["cache"].items():
            cache[mode] = cache.get(mode, 0) + count
        for stage, seconds in result["meta"]["stage_seconds"].items():
            stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
    return {
        "jobs": [{"name": member["name"], **result} for member, result in zip(members, results)],
        "meta": {
            "jobs": len(results),
            "cache": cache,
            "stage_seconds": {k: round(v, 6) for k, v in sorted(stage_seconds.items())},
        },
    }


def _execute_member(
    payload: Dict[str, Any], problem: Optional[AllocationProblem], store: Any
) -> Dict[str, Any]:
    """Run one member: its graph ``problem``, or every function of its IR."""
    pipeline = Pipeline(_payload_spec(payload), store=store)
    if problem is not None:
        contexts = [pipeline.run_problem(problem)]
    else:
        module = parse_module(payload["ir"], name=payload["name"])
        contexts = [pipeline.run(function) for function in module]

    functions: List[Dict[str, Any]] = []
    records: List[Dict[str, Any]] = []
    cache = {"hit": 0, "miss": 0, "off": 0}
    stage_seconds: Dict[str, float] = {}
    for context in contexts:
        summary = context.summary()
        functions.append(deterministic_summary(summary))
        if context.problem is not None and context.result is not None:
            # Local import: experiments depends on service (ServiceBackend),
            # so the reverse edge must stay out of module import time.
            from repro.experiments.runner import InstanceRecord
            from repro.store.base import record_to_dict

            record = InstanceRecord.from_result(
                context.problem,
                context.result,
                instance=context.name,
                program=context.name,
                allocator=payload["allocator"],
                elapsed=0.0,
            )
            records.append(record_to_dict(record))
        allocate_stats = summary.get("stage_stats", {}).get("allocate", {})
        mode = allocate_stats.get("cache", "off")
        cache[mode] = cache.get(mode, 0) + 1
        for stage, seconds in summary.get("timings", {}).items():
            stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
    return {
        "functions": functions,
        "records": records,
        "meta": {
            "cache": cache,
            "stage_seconds": {k: round(v, 6) for k, v in sorted(stage_seconds.items())},
        },
    }
