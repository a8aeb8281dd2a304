"""Execution-backend seam: local-pool parity and the distributed service path.

The tentpole contract: ``run_experiment`` plans *what* to compute and an
:class:`ExecutionBackend` decides *how*.  The local backend must be
byte-identical to the historical in-process loop; the service backend must
produce the same deterministic records through a fleet of running
allocation services, with warm reruns costing zero allocator calls.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.alloc.constraints import ProblemConstraints
from repro.alloc.problem import AllocationProblem
from repro.analysis.live_ranges import LiveInterval
from repro.errors import ServiceError
from repro.experiments.backends import LocalPoolBackend, ServiceBackend
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.graphs.generators import random_chordal_graph, random_interval_graph
from repro.service.server import AllocationService
from repro.store import open_store
from repro.telemetry import Tracer, use_tracer


def _problems(count=4, base=14):
    return [
        AllocationProblem(
            graph=random_chordal_graph(base + seed, rng=seed), num_registers=4, name=f"p{seed}"
        )
        for seed in range(count)
    ]


def _config(**overrides):
    defaults = dict(allocators=["NL", "Optimal"], register_counts=[2, 4], verify=False)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _key(records):
    """The deterministic projection of records (drops measured runtimes)."""
    return [
        (r.instance, r.program, r.allocator, r.num_registers, r.spill_cost,
         r.num_spilled, r.num_variables, r.max_pressure, tuple(r.spilled or ()))
        for r in records
    ]


# ---------------------------------------------------------------------- #
# local backend: parity with the pre-seam runner
# ---------------------------------------------------------------------- #
def test_explicit_local_backend_matches_default_storeless():
    problems = _problems()
    config = _config()
    assert _key(run_experiment(problems, config)) == _key(
        run_experiment(problems, config, backend=LocalPoolBackend())
    )


def test_explicit_local_backend_matches_default_with_store(tmp_path):
    problems = _problems()
    config = _config()
    with open_store(tmp_path / "a.sqlite") as store:
        default = run_experiment(problems, config, store=store)
    with open_store(tmp_path / "b.sqlite") as store:
        explicit = run_experiment(problems, config, store=store, backend=LocalPoolBackend())
        manifest = store.manifests()[-1]
    assert _key(default) == _key(explicit)
    assert manifest.config["backend"] == "local"


# ---------------------------------------------------------------------- #
# service backend: configuration and store requirements
# ---------------------------------------------------------------------- #
def test_service_backend_requires_endpoints_and_sane_batch_size():
    with pytest.raises(ServiceError):
        ServiceBackend([])
    with pytest.raises(ServiceError):
        ServiceBackend(["http://127.0.0.1:1"], batch_size=0)


def test_service_backend_normalizes_schemeless_endpoints():
    backend = ServiceBackend(
        ["localhost:8713", " http://host:1/ "], client_factory=lambda url: None
    )
    assert backend.endpoints == ["http://localhost:8713", "http://host:1"]


def test_service_backend_requires_a_store():
    backend = ServiceBackend(["http://127.0.0.1:1"], client_factory=lambda url: None)
    with pytest.raises(ServiceError, match="requires a store"):
        run_experiment(_problems(1), _config(), backend=backend)


def test_service_backend_rejects_constrained_problems():
    backend = ServiceBackend(["http://127.0.0.1:1"], client_factory=lambda url: None)
    problem = dataclasses.replace(
        _problems(1)[0],
        constraints=ProblemConstraints(registers=("r0", "r1", "r2", "r3")),
    )
    with pytest.raises(ServiceError, match="constrained"):
        backend._submissions(problem, [(4, "NL")])


class _StopSweep(Exception):
    pass


class _RecordingClient:
    """Keeps each batch body as ``ServiceClient`` puts it on the wire, and
    ends the sweep at its first poll (every batch is posted before any)."""

    def __init__(self):
        self.sent = []

    def submit_batch(self, body):
        self.sent.append(json.dumps(body).encode("utf-8"))
        return {"job": {"id": f"job-{len(self.sent)}"}, "deduped": False}

    def wait(self, job_id, timeout):
        raise _StopSweep(job_id)


#: SHA-256 of the request bodies of the two-instance plan below, one per
#: line, as sent when every cell encoded its own graph.
TWO_INSTANCE_REQUESTS = "b4ca7bdcfa0d96ec24c4f981f630513690a33e6565b536884e9e16d9ed2fa714"


def test_service_backend_request_bytes_pinned_by_value():
    # Rows list edges in a fixed order, whatever the hash seed.
    chordal = AllocationProblem(graph=random_chordal_graph(14, rng=0), num_registers=4, name="p0")
    graph, intervals = random_interval_graph(12, rng=7, span=30, max_length=8)
    with_intervals = AllocationProblem(
        graph=graph,
        num_registers=4,
        name="spans",
        intervals=[LiveInterval(str(v), start, end) for v, (start, end) in sorted(intervals.items(), key=str)],
    )
    plan = [
        (0, chordal, "prog-a", [(2, "NL"), (4, "NL"), (2, "Optimal")]),
        (1, with_intervals, "prog-b", [(2, "NL"), (3, "BFPL"), (3, "LS")]),
    ]
    client = _RecordingClient()
    backend = ServiceBackend(["http://127.0.0.1:1"], batch_size=4, client_factory=lambda url: client)
    with pytest.raises(_StopSweep):
        backend.run_plan(plan, _config(), lambda index, pairs: None)
    assert len(client.sent) == 2
    assert hashlib.sha256(b"\n".join(client.sent)).hexdigest() == TWO_INSTANCE_REQUESTS


# ---------------------------------------------------------------------- #
# service backend: end-to-end against a real fleet
# ---------------------------------------------------------------------- #
def test_service_sweep_matches_local_and_warm_rerun_computes_nothing(tmp_path):
    problems = _problems(count=5)
    config = _config()

    with open_store(tmp_path / "local.sqlite") as store:
        local_records = run_experiment(problems, config, store=store)

    svc1 = AllocationService(tmp_path / "shard1.sqlite", workers=2, port=0).start()
    svc2 = AllocationService(tmp_path / "shard2.sqlite", workers=2, port=0).start()
    try:
        backend = ServiceBackend([svc1.url, svc2.url], batch_size=3, timeout=120.0)
        tracer = Tracer()
        with open_store(tmp_path / "via-service.sqlite") as store:
            with use_tracer(tracer):
                service_records = run_experiment(
                    problems, config, store=store, backend=backend
                )
            cold = store.manifests()[-1]

            # Byte-for-byte the same deterministic payload as the local path
            # (this is what makes figure aggregates identical).
            assert _key(service_records) == _key(local_records)
            assert cold.config["backend"] == "service"
            assert cold.cells_computed == len(_key(local_records))

            snapshot = tracer.snapshot()
            assert snapshot.counters["sweep.submitted"] == cold.cells_computed
            assert snapshot.counters["sweep.completed"] == cold.cells_computed
            span_names = {event.name for event in snapshot.events}
            assert {"backend:submit", "backend:poll"} <= span_names

            # Warm rerun against the same store: everything cached, no
            # submissions at all.
            warm_tracer = Tracer()
            with use_tracer(warm_tracer):
                warm_records = run_experiment(
                    problems, config, store=store, backend=backend
                )
            warm = store.manifests()[-1]
            assert warm.cells_computed == 0
            assert warm.cells_cached == cold.cells_total
            assert "sweep.submitted" not in warm_tracer.snapshot().counters
            assert _key(warm_records) == _key(local_records)
    finally:
        svc1.shutdown()
        svc2.shutdown()


def test_service_sweep_dedupes_against_a_warm_fleet(tmp_path):
    """A fresh local store + an already-warm fleet: identical batch job keys
    dedupe server-side, so the rerun is served from the fleet's queue."""
    problems = _problems(count=3)
    config = _config(register_counts=[3])

    svc = AllocationService(tmp_path / "fleet.sqlite", workers=2, port=0).start()
    try:
        backend = ServiceBackend([svc.url], batch_size=2, timeout=120.0)
        with open_store(tmp_path / "first.sqlite") as store:
            first = run_experiment(problems, config, store=store, backend=backend)

        tracer = Tracer()
        with open_store(tmp_path / "second.sqlite") as store:
            with use_tracer(tracer):
                second = run_experiment(problems, config, store=store, backend=backend)
        counters = tracer.snapshot().counters
        assert counters.get("sweep.deduped") == counters.get("sweep.submitted")
        assert _key(first) == _key(second)
    finally:
        svc.shutdown()
