"""Run allocators over corpora of allocation problems.

Sweeps are embarrassingly parallel across instances: every (instance,
register count, allocator) cell is independent.  :func:`run_experiment`
(a whole corpus, records returned) and :func:`run_streamed_experiment` (a
stream, ``window`` instances at a time, records left in the store) are thin
wrappers around one loop, :func:`_sweep`: it selects instances
(``skip_trivial``, ``max_instances``), and hands each window to
:func:`_plan_and_execute`, which plans the cells still missing and has an
execution backend (:mod:`repro.experiments.backends`) run them; without a
store every cell is missing.  ``ExperimentConfig.jobs`` runs a plan's
instances on a process pool while keeping the returned record list
byte-for-byte identical to the serial order (records are reassembled in
instance, register-count × allocator order).

Passing an :class:`~repro.store.ExperimentStore` makes the sweep
*cache-aware and resumable*: cells already present in the store
(content-addressed by ``(problem_digest, allocator, allocator_version, R)``)
are served without invoking the allocator, only the misses are computed —
over the process pool when ``jobs > 1`` — and completed cells are flushed to
the store incrementally, so an interrupted sweep restarts where it died.
Every store-backed sweep also appends one :class:`~repro.store.RunManifest`
recording provenance (corpus, seed, scale, config, git revision, wall time)
and the cache hit/miss split.
"""

from __future__ import annotations

import dataclasses
import time
import uuid
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.alloc import get_allocator
from repro.alloc.base import Allocator
from repro.alloc.problem import AllocationProblem
from repro.alloc.result import AllocationResult
from repro.errors import ServiceError
from repro.pipeline.passes import run_allocator
from repro.store.base import ExperimentStore, RunManifest, current_git_rev, utc_now_iso
from repro.store.keys import CellKey, problem_digest
from repro.telemetry.tracer import current_tracer
from repro.workloads.corpus import Corpus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (backends imports us)
    from repro.experiments.backends import ExecutionBackend

#: one sweep cell within an instance: (register count, allocator name).
Cell = Tuple[int, str]


@dataclass
class ExperimentConfig:
    """Configuration of one experiment sweep."""

    #: allocator registry names to compare.
    allocators: Sequence[str]
    #: register counts to sweep.
    register_counts: Sequence[int]
    #: validate every allocation result (slower but catches allocator bugs).
    verify: bool = True
    #: drop instances whose register pressure never exceeds the *smallest*
    #: register count (such instances need no spilling at any swept count
    #: and only add noise).
    skip_trivial: bool = False
    #: worker processes for the sweep; ``1`` (default) runs serially in
    #: process.  Record ordering is identical regardless of ``jobs``.
    jobs: int = 1

    def validate(self) -> None:
        """Reject configurations that could only produce nonsense sweeps."""
        if not self.allocators:
            raise ValueError("ExperimentConfig.allocators must not be empty")
        if self.jobs < 1:
            raise ValueError(f"ExperimentConfig.jobs must be >= 1, got {self.jobs}")
        bad = [r for r in self.register_counts if r < 1]
        if bad:
            raise ValueError(
                f"ExperimentConfig.register_counts must be positive, got {bad}"
            )


@dataclass
class InstanceRecord:
    """Raw result of one allocator on one instance at one register count.

    ``spilled`` carries the sorted spill-set variable names; it is what lets
    the pipeline engine rebuild a full :class:`AllocationResult` from a
    cached cell without re-running the allocator.  Records written before
    the field existed deserialize with ``spilled=None`` — still valid for
    aggregation (cost/count suffice), but a cache *miss* for the engine.
    """

    instance: str
    program: str
    allocator: str
    num_registers: int
    spill_cost: float
    num_spilled: int
    num_variables: int
    max_pressure: int
    runtime_seconds: float
    stats: Dict = field(default_factory=dict)
    spilled: Optional[List[str]] = None

    @classmethod
    def from_result(
        cls,
        problem: AllocationProblem,
        result: AllocationResult,
        *,
        instance: str,
        program: str,
        allocator: str,
        elapsed: float,
    ) -> "InstanceRecord":
        """Package one allocate-stage output (the runner's and the engine's)."""
        return cls(
            instance=instance,
            program=program,
            allocator=allocator,
            num_registers=problem.num_registers,
            spill_cost=result.spill_cost,
            num_spilled=result.num_spilled,
            num_variables=len(problem.graph),
            max_pressure=problem.max_pressure,
            runtime_seconds=elapsed,
            stats=dict(result.stats),
            spilled=sorted(str(v) for v in result.spilled),
        )


def run_cells(
    problem: AllocationProblem,
    cells: Sequence[Cell],
    program: str = "",
    verify: bool = True,
    on_record: Optional[Callable[[Cell, InstanceRecord], None]] = None,
) -> List[InstanceRecord]:
    """Run the listed ``(register_count, allocator_name)`` cells on one problem.

    Allocators are instantiated once per name (not once per register count)
    and reused across the instance's cells.  Each cell executes through the
    pipeline's allocate kernel
    (:func:`repro.pipeline.passes.run_allocator`), so the runner and the
    :class:`~repro.pipeline.engine.Pipeline` engine produce interchangeable
    results and store cells.  ``on_record`` is invoked after each cell
    completes, which the serial sweep uses to hand records on (and, with a
    store, to flush them) cell by cell.
    """
    records: List[InstanceRecord] = []
    allocators: Dict[str, Allocator] = {}
    tracer = current_tracer()
    for register_count, allocator_name in cells:
        allocator = allocators.get(allocator_name)
        if allocator is None:
            allocator = allocators[allocator_name] = get_allocator(allocator_name)
        instance = problem.with_registers(register_count)
        if tracer.enabled:
            with tracer.span(
                "sweep:cell",
                category="sweep",
                instance=problem.name,
                allocator=allocator_name,
                registers=register_count,
            ):
                result, elapsed = run_allocator(instance, allocator, verify=verify)
        else:
            result, elapsed = run_allocator(instance, allocator, verify=verify)
        record = InstanceRecord.from_result(
            instance,
            result,
            instance=problem.name,
            program=program,
            allocator=allocator_name,
            elapsed=elapsed,
        )
        records.append(record)
        if on_record is not None:
            on_record((register_count, allocator_name), record)
    return records


def check_max_instances(max_instances: Optional[int]) -> None:
    """Raise ``ValueError`` for a ``max_instances`` below 1 (``None`` is no limit)."""
    if max_instances is not None and max_instances < 1:
        raise ValueError(f"max_instances must be >= 1, got {max_instances}")


def run_experiment(
    corpus: Corpus | Iterable[AllocationProblem],
    config: ExperimentConfig,
    max_instances: Optional[int] = None,
    store: Optional[ExperimentStore] = None,
    resume: bool = True,
    backend: Optional["ExecutionBackend"] = None,
) -> List[InstanceRecord]:
    """Run the configured sweep over a corpus and return raw records.

    ``max_instances`` truncates the corpus, which the quick benchmarks use to
    bound their runtime; the full figures run the whole corpus.  A
    ``max_instances`` below 1 raises ``ValueError``.

    ``backend`` selects *where* missing cells execute (see
    :mod:`repro.experiments.backends`): the default
    :class:`~repro.experiments.backends.LocalPoolBackend` runs in process
    (serial, or a process pool with ``config.jobs > 1`` — records re-ordered
    by instance index, so the output is identical to a serial run modulo the
    measured ``runtime_seconds``); a
    :class:`~repro.experiments.backends.ServiceBackend` distributes them as
    batched jobs over running allocation services (store required).

    With a ``store``, cells already cached are served without running the
    allocator (their records are rehydrated with the current instance and
    program names, so renamed corpora still hit) and only the misses are
    computed and persisted — incrementally, so an interrupted sweep resumes
    from the last flushed cell.  ``resume=False`` recomputes every cell but
    still persists the results.  Cached cells are not re-verified; they were
    verified when first computed.  The whole corpus is one window of
    :func:`_sweep`.
    """
    if isinstance(corpus, Corpus):
        program_of = corpus.program_of
        problems: Iterable[Tuple[AllocationProblem, str]] = (
            (problem, program_of.get(index, problem.name))
            for index, problem in enumerate(corpus.problems)
        )
        provenance = (corpus.suite, corpus.target, corpus.seed, corpus.scale)
    else:
        problems = ((problem, problem.name) for problem in corpus)
        provenance = (None, None, None, None)
    records: List[InstanceRecord] = []
    _sweep(
        problems,
        config,
        store,
        backend,
        resume=resume,
        max_instances=max_instances,
        window=None,
        provenance=provenance,
        records=records,
    )
    return records


def run_streamed_experiment(
    problems: Iterable[AllocationProblem],
    config: ExperimentConfig,
    store: ExperimentStore,
    *,
    backend: Optional["ExecutionBackend"] = None,
    window: int = 256,
    resume: bool = True,
    max_instances: Optional[int] = None,
    suite: Optional[str] = None,
    target: Optional[str] = None,
    seed: Optional[int] = None,
    scale: Optional[float] = None,
) -> RunManifest:
    """Sweep a streamed corpus at constant memory; returns the run manifest.

    Unlike :func:`run_experiment`, the problem iterable is **never
    materialized**: instances are pulled ``window`` at a time, keyed,
    planned and executed against the store, then dropped — so a 100k+
    function :class:`~repro.workloads.corpus.CorpusStream` sweeps in a
    bounded footprint.  Records are not returned (they would themselves be
    O(cells)); the store holds them for ``aggregate``/``report``.  One
    manifest covers the whole stream, with the provenance fields passed in
    (a bare iterable carries none of its own).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    manifest = _sweep(
        ((problem, problem.name) for problem in problems),
        config,
        store,
        backend,
        resume=resume,
        max_instances=max_instances,
        window=window,
        provenance=(suite, target, seed, scale),
    )
    assert manifest is not None  # every sweep with a store writes one
    return manifest


# ---------------------------------------------------------------------- #
# the sweep loop
# ---------------------------------------------------------------------- #
def _sweep(
    problems: Iterable[Tuple[AllocationProblem, str]],
    config: ExperimentConfig,
    store: Optional[ExperimentStore],
    backend: Optional["ExecutionBackend"],
    *,
    resume: bool,
    max_instances: Optional[int],
    window: Optional[int],
    provenance: Tuple[Optional[str], Optional[str], Optional[int], Optional[float]],
    records: Optional[List[InstanceRecord]] = None,
) -> Optional[RunManifest]:
    """The one sweep loop behind :func:`run_experiment` and
    :func:`run_streamed_experiment`.

    Pulls ``(problem, program)`` pairs, drops trivial instances
    (``config.skip_trivial``) and stops after ``max_instances``; every
    ``window`` selected instances (``None``: all of them) are planned and
    executed by :func:`_plan_and_execute` and then dropped, their records
    appended to ``records`` when given.  With a store, one manifest records
    the sweep, with ``provenance`` = ``(suite, target, seed, scale)``; the
    target also keys the cells.  Streamed sweeps (a ``window``) note it in
    the manifest's config.
    """
    config.validate()
    check_max_instances(max_instances)
    if backend is None:  # the local pool, which follows ``config.jobs``
        from repro.experiments.backends import LocalPoolBackend

        backend = LocalPoolBackend()
    if store is None and backend.requires_store:
        raise ServiceError(
            f"the {backend.name!r} execution backend requires a store: "
            "pass store=... to run_experiment so results have somewhere durable to land"
        )
    started = time.perf_counter()
    target = provenance[1]
    full_cells: List[Cell] = [
        (r, name) for r in config.register_counts for name in config.allocators
    ]
    pressure_floor: Optional[int] = None
    if config.skip_trivial and config.register_counts:
        pressure_floor = min(config.register_counts)

    instances = cells_cached = 0
    cache_by_allocator: Dict[str, Dict[str, int]] = {}
    batch: List[Tuple[int, AllocationProblem, str]] = []

    def run_window() -> None:
        nonlocal cells_cached
        cell_records, window_cached, window_split = _plan_and_execute(
            batch, full_cells, config, store, resume, backend, target
        )
        cells_cached += window_cached
        for name, split in window_split.items():
            fold = cache_by_allocator.setdefault(name, {"hit": 0, "miss": 0})
            fold["hit"] += split["hit"]
            fold["miss"] += split["miss"]
        if records is not None:
            records.extend(cell_records[(index, cell)] for index, _, _ in batch for cell in full_cells)
        batch.clear()

    for problem, program in problems:
        if max_instances is not None and instances >= max_instances:
            break
        if pressure_floor is not None and problem.max_pressure <= pressure_floor:
            continue
        batch.append((instances, problem, program))
        instances += 1
        if len(batch) == window:
            run_window()
    if batch:
        run_window()
    if store is None:
        return None

    suite, _, seed, scale = provenance
    cells_total = instances * len(full_cells)
    run_config = {
        "allocators": list(config.allocators),
        "register_counts": list(config.register_counts),
        "verify": config.verify,
        "skip_trivial": config.skip_trivial,
        "jobs": config.jobs,
        "resume": resume,
        "backend": backend.name,
    }
    if window is not None:
        run_config["window"] = window
    manifest = RunManifest(
        run_id=uuid.uuid4().hex[:12],
        created_at=utc_now_iso(),
        suite=suite,
        target=target,
        seed=seed,
        scale=scale,
        config=run_config,
        git_rev=current_git_rev(),
        instances=instances,
        cells_total=cells_total,
        cells_computed=cells_total - cells_cached,
        cells_cached=cells_cached,
        wall_time_seconds=time.perf_counter() - started,
        cache_by_allocator=cache_by_allocator,
    )
    store.add_manifest(manifest)
    store.flush()
    return manifest


def _plan_and_execute(
    selected: List[Tuple[int, AllocationProblem, str]],
    full_cells: List[Cell],
    config: ExperimentConfig,
    store: Optional[ExperimentStore],
    resume: bool,
    backend: "ExecutionBackend",
    target: Optional[str],
) -> Tuple[Dict[Tuple[int, Cell], InstanceRecord], int, Dict[str, Dict[str, int]]]:
    """Plan and execute one window of instances.

    Without a store every cell is missing.  With one, cells are keyed, hits
    are served from the store and misses are persisted as the backend
    delivers them.  Returns ``(cell_records, cells_cached,
    cache_by_allocator)``.
    """
    cell_records: Dict[Tuple[int, Cell], InstanceRecord] = {}
    if store is None:

        def keep(index: int, pairs: List[Tuple[Cell, InstanceRecord]]) -> None:
            for cell, record in pairs:
                cell_records[(index, cell)] = record

        if selected:
            plan = [(index, problem, program, full_cells) for index, problem, program in selected]
            backend.run_plan(plan, config, keep)
        return cell_records, 0, {}

    # Canonicalize allocator names/versions once; aliases ("layered") key the
    # same cells as their paper name ("NL").
    canonical = {name: get_allocator(name) for name in config.allocators}
    key_of: Dict[Tuple[int, Cell], CellKey] = {}
    for index, problem, _program in selected:
        digests = {
            r: problem_digest(problem, target=target, registers=r)
            for r in config.register_counts
        }
        for r, name in full_cells:
            allocator = canonical[name]
            key_of[(index, (r, name))] = CellKey(
                problem_digest=digests[r],
                allocator=allocator.name,
                allocator_version=allocator.version,
                num_registers=r,
            )

    cached = store.get_many(key_of.values()) if resume else {}

    plan: List[Tuple[int, AllocationProblem, str, List[Cell]]] = []
    for index, problem, program in selected:
        missing: List[Cell] = []
        for cell in full_cells:
            record = cached.get(key_of[(index, cell)])
            if record is None:
                missing.append(cell)
            else:
                # Rehydrate provenance: content-addressing means a renamed
                # corpus (or an allocator alias) still hits, but the record
                # must carry the names this sweep was asked with.
                cell_records[(index, cell)] = dataclasses.replace(
                    record, instance=problem.name, program=program, allocator=cell[1]
                )
        if missing:
            plan.append((index, problem, program, missing))

    cells_total = len(selected) * len(full_cells)
    cells_cached = len(cell_records)

    # Per-allocator hit/miss split (keyed by canonical name, so aliases fold
    # into their paper name) — recorded in the manifest and in the trace.
    cache_by_allocator: Dict[str, Dict[str, int]] = {}
    for (index, cell), key in key_of.items():
        split = cache_by_allocator.setdefault(canonical[cell[1]].name, {"hit": 0, "miss": 0})
        split["hit" if key in cached else "miss"] += 1

    tracer = current_tracer()
    if tracer.enabled:
        tracer.count("store.hit", cells_cached)
        tracer.count("store.miss", cells_total - cells_cached)

    def canonicalized(cell: Cell, record: InstanceRecord) -> InstanceRecord:
        """The persisted copy carries the canonical allocator name, so a
        sweep via an alias ("layered") fills the same cells downstream
        consumers (aggregate/report) look up under the paper name ("NL")."""
        name = canonical[cell[1]].name
        return record if record.allocator == name else dataclasses.replace(record, allocator=name)

    def emit(index: int, pairs: List[Tuple[Cell, InstanceRecord]]) -> None:
        """Result sink handed to the backend: persist, then record."""
        store.put_many(
            [(key_of[(index, cell)], canonicalized(cell, record)) for cell, record in pairs]
        )
        for cell, record in pairs:
            cell_records[(index, cell)] = record

    if plan:
        backend.run_plan(plan, config, emit)
    store.flush()
    return cell_records, cells_cached, cache_by_allocator
