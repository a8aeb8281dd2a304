"""Execution backends: where a sweep's cells actually run.

The sweep loop behind :func:`~repro.experiments.runner.run_experiment` and
:func:`~repro.experiments.runner.run_streamed_experiment` plans *what* to
compute, one window of instances at a time — which ``(instance, register
count, allocator)`` cells are missing from the store — and delegates *how*
to an :class:`ExecutionBackend`:

* :class:`LocalPoolBackend` — the in-process path: serial, or one
  :func:`~repro.telemetry.tracer.pool_map` task per instance.  Its records
  are byte-identical to what ``run_experiment`` produced before the seam
  existed (pinned by the backend-parity tests).
* :class:`ServiceBackend` — plans the missing cells into batched
  ``POST /v1/batches`` submissions against one or more running allocation
  services (round-robin across endpoints) and polls the results back into
  the sweep's store.  Batches are claimed as a unit per worker, submissions
  carry a client name for the queue's per-client fairness, and the
  service-side job-key dedupe means overlapping sweeps cost nothing.

The backend contract is intentionally narrow: ``run_plan(plan, config,
emit)`` receives the missing-cell plan and calls ``emit(index, pairs)`` as
results become available; the runner owns keying, caching, persistence and
manifests.  A sweep without a store hands over a plan in which every cell is
missing; on a backend that sets ``requires_store`` (the service backend: its
results would have nowhere durable to land) the runner refuses such a sweep
before any submission.

Telemetry: the service backend wraps submissions in ``backend:submit``
spans and polls in ``backend:poll`` spans, and counts ``sweep.submitted``,
``sweep.completed`` and ``sweep.deduped`` cells.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.alloc.problem import AllocationProblem
from repro.errors import ServiceError
from repro.graphs.io import graph_to_dict
from repro.store.base import record_from_dict
from repro.telemetry.tracer import current_tracer, pool_map

from repro.experiments import runner

#: one planned instance: (corpus index, problem, program, missing cells).
PlanItem = Tuple[int, AllocationProblem, str, List["runner.Cell"]]
#: result sink: ``emit(index, [(cell, record), ...])`` persists and records.
EmitFn = Callable[[int, List[Tuple["runner.Cell", "runner.InstanceRecord"]]], None]


class ExecutionBackend(abc.ABC):
    """Strategy for executing a sweep's missing cells (see module docs)."""

    #: backend identifier recorded in run manifests (``config["backend"]``).
    name = "abstract"

    #: whether sweeps on this backend need a store to persist results into.
    requires_store = False

    @abc.abstractmethod
    def run_plan(
        self,
        plan: List[PlanItem],
        config: "runner.ExperimentConfig",
        emit: EmitFn,
    ) -> None:
        """Execute the missing cells, calling ``emit`` as results arrive."""


class LocalPoolBackend(ExecutionBackend):
    """The in-process backend: serial, or ``config.jobs`` worker processes
    with one task per planned instance.  Both produce the same records,
    modulo the measured ``runtime_seconds``.
    """

    name = "local"

    def run_plan(
        self,
        plan: List[PlanItem],
        config: "runner.ExperimentConfig",
        emit: EmitFn,
    ) -> None:
        if config.jobs <= 1 or len(plan) <= 1:
            for index, problem, program, missing in plan:

                def persist(
                    cell: "runner.Cell", record: "runner.InstanceRecord", _index: int = index
                ) -> None:
                    emit(_index, [(cell, record)])

                runner.run_cells(
                    problem,
                    missing,
                    program=program,
                    verify=config.verify,
                    on_record=persist,
                )
            return

        # Each instance is persisted as soon as its task finishes; worker
        # traces land on lanes instance-0..n-1 in plan order.
        tasks = [(problem, missing, program, config.verify) for _, problem, program, missing in plan]
        for position, records in pool_map(runner.run_cells, tasks, config.jobs, "instance"):
            index, _, _, missing = plan[position]
            emit(index, list(zip(missing, records)))


class ServiceBackend(ExecutionBackend):
    """Distribute a sweep's missing cells over running allocation services.

    Every missing cell becomes one graph submission (the problem's
    interference graph, intervals when present, register count and
    allocator).  Submissions are grouped into batches of ``batch_size`` and
    posted round-robin across ``endpoints`` as ``POST /v1/batches`` jobs —
    one queue job per batch, claimed as a unit by one service worker.  A
    batch carries each planned instance's graph once, in its ``graphs``
    table, and its members index that table; intervals travel with each
    member.  All batches are submitted before any is polled, so the whole
    fleet drains in parallel; results are rehydrated into
    :class:`InstanceRecord`\\ s and handed to the runner's ``emit`` for
    keying and persistence.

    ``runtime_seconds`` of service-computed records is ``0.0`` — the wall
    time was spent on another machine and is deliberately not passed off as
    a local measurement.  Everything the figures aggregate (spill cost,
    counts, allocator stats) is deterministic and travels unchanged.
    """

    name = "service"
    requires_store = True

    def __init__(
        self,
        endpoints: Sequence[str],
        *,
        batch_size: int = 32,
        client: str = "sweep",
        priority: int = 0,
        timeout: float = 600.0,
        client_factory: Optional[Callable[[str], object]] = None,
    ) -> None:
        urls = [
            url if "://" in url else f"http://{url}"
            for url in (candidate.strip().rstrip("/") for candidate in endpoints)
            if url
        ]
        if not urls:
            raise ServiceError("ServiceBackend needs at least one endpoint URL")
        if batch_size < 1:
            raise ServiceError(f"batch_size must be >= 1, got {batch_size}")
        if client_factory is None:
            from repro.service.client import ServiceClient

            client_factory = ServiceClient
        self.endpoints = urls
        self.batch_size = int(batch_size)
        self.client = client
        self.priority = int(priority)
        self.timeout = float(timeout)
        self._clients = [client_factory(url) for url in urls]

    # ------------------------------------------------------------------ #
    def _submissions(self, problem: AllocationProblem, cells: Sequence["runner.Cell"]) -> List[Dict]:
        """One graph submission per cell of ``problem``, all sharing one
        graph document and one interval list."""
        if problem.constraints is not None:
            raise ServiceError(
                f"cannot distribute constrained problem {problem.name!r}: "
                "machine-model constraints have no wire format yet — use the local backend"
            )
        graph = graph_to_dict(problem.graph, name=problem.name)
        intervals = [
            [str(interval.register), interval.start, interval.end]
            for interval in problem.intervals or ()
        ]
        bodies = []
        for registers, allocator in cells:
            body: Dict = {"graph": graph, "registers": registers, "allocator": allocator, "name": problem.name}
            if intervals:
                body["intervals"] = intervals
            bodies.append(body)
        return bodies

    def run_plan(
        self,
        plan: List[PlanItem],
        config: "runner.ExperimentConfig",
        emit: EmitFn,
    ) -> None:
        from repro.service.api import graph_table

        tracer = current_tracer()
        entries: List[Tuple[int, "runner.Cell", AllocationProblem, str, Dict]] = [
            (index, cell, problem, program, body)
            for index, problem, program, missing in plan
            for cell, body in zip(missing, self._submissions(problem, missing))
        ]

        # Submit every batch before polling any: the fleet works in parallel
        # while this process waits.  Batch composition is deterministic for a
        # given plan, so a re-run submits identical job keys and dedupes.
        submitted = []
        for batch_index in range(0, len(entries), self.batch_size):
            batch = entries[batch_index : batch_index + self.batch_size]
            position = batch_index // self.batch_size
            client = self._clients[position % len(self._clients)]
            endpoint = self.endpoints[position % len(self.endpoints)]
            graphs, jobs = graph_table([body for *_, body in batch])
            body = {
                "graphs": graphs,
                "jobs": jobs,
                "client": self.client,
                "priority": self.priority,
                "name": f"sweep-batch-{position:05d}",
            }
            if tracer.enabled:
                with tracer.span(
                    "backend:submit", category="backend", endpoint=endpoint, cells=len(batch)
                ):
                    response = client.submit_batch(body)
            else:
                response = client.submit_batch(body)
            if tracer.enabled:
                tracer.count("sweep.submitted", len(batch))
                if response.get("deduped"):
                    tracer.count("sweep.deduped", len(batch))
            submitted.append((client, endpoint, response["job"]["id"], batch))

        for client, endpoint, job_id, batch in submitted:
            if tracer.enabled:
                with tracer.span(
                    "backend:poll", category="backend", endpoint=endpoint, job=job_id
                ):
                    job = client.wait(job_id, timeout=self.timeout)
            else:
                job = client.wait(job_id, timeout=self.timeout)
            if job["state"] != "done":
                raise ServiceError(
                    f"service job {job_id} on {endpoint} ended {job['state']!r}: "
                    f"{job.get('error')}"
                )
            members = (job.get("result") or {}).get("jobs")
            if not isinstance(members, list) or len(members) != len(batch):
                raise ServiceError(
                    f"service job {job_id} on {endpoint} returned "
                    f"{len(members) if isinstance(members, list) else 'no'} member result(s), "
                    f"expected {len(batch)}"
                )
            by_index: Dict[int, List[Tuple["runner.Cell", "runner.InstanceRecord"]]] = {}
            for (index, cell, problem, program, _), member in zip(batch, members):
                payloads = member.get("records") or []
                if len(payloads) != 1:
                    raise ServiceError(
                        f"service result for {problem.name!r} carried "
                        f"{len(payloads)} record(s), expected exactly 1"
                    )
                # Rehydrate provenance exactly like a local cache hit: the
                # record must carry the names this sweep was asked with.
                record = dataclasses.replace(
                    record_from_dict(payloads[0]),
                    instance=problem.name,
                    program=program,
                    allocator=cell[1],
                )
                by_index.setdefault(index, []).append((cell, record))
            for index, pairs in by_index.items():
                emit(index, pairs)
            if tracer.enabled:
                tracer.count("sweep.completed", len(batch))
