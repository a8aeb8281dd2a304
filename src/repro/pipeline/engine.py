"""The pipeline engine: compose passes, run functions, batch with a pool.

:class:`Pipeline` is the single entry point unifying what used to be loose
glue — extraction, allocation, assignment, spill-code insertion, load/store
optimization and verification — behind one API::

    from repro.pipeline import Pipeline

    pipe = Pipeline.from_spec("NL", target="st231", registers=4)
    context = pipe.run(function)          # one function
    contexts = pipe.run_many(module, jobs=4)   # a batch, over a process pool

Attach an experiment store (path or open
:class:`~repro.store.ExperimentStore`) and the ``allocate`` stage becomes
memoized under the store's ``(problem_digest, allocator, allocator_version,
R)`` contract: a warm batch over an unchanged corpus performs **zero**
allocator calls, and the cells it writes are the same ones
``repro-alloc sweep`` reads.

Batch runs shard round-robin over the library's process pool
(:func:`~repro.telemetry.tracer.pool_map`) and reassemble the results in
input order, so ``jobs`` never changes the output.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.alloc.problem import AllocationProblem
from repro.check import IR_CHECKERS, CheckError, Severity, check_pipeline_context
from repro.errors import PipelineError
from repro.ir.function import Function
from repro.pipeline.context import PipelineContext
from repro.pipeline.passes import Pass, get_pass
from repro.pipeline.spec import PipelineSpec
from repro.store.base import ExperimentStore, open_store
from repro.telemetry.tracer import current_tracer, pool_map, scalar_attrs, use_tracer

StoreLike = Union[ExperimentStore, str, Path, None]


class Pipeline:
    """A composed chain of passes plus the spec and (optional) store.

    Telemetry: pass ``tracer=`` (or bind one ambiently with
    :func:`repro.telemetry.use_tracer`) and every run records a
    ``pipeline:run`` span with one nested ``pass:<name>`` span per executed
    stage — allocator internals and store cache counters nest below via the
    ambient tracer.  The default is the no-op tracer: untraced runs skip all
    span bookkeeping (guarded by ``tracer.enabled``)."""

    def __init__(
        self,
        spec: Optional[PipelineSpec] = None,
        *,
        store: StoreLike = None,
        tracer: Optional[Any] = None,
    ) -> None:
        self.spec = (spec or PipelineSpec()).validate()
        self._explicit_tracer = tracer
        self._passes: List[Pass] = [get_pass(name) for name in self.spec.stage_chain()]
        self._store: Optional[ExperimentStore] = None
        self._owns_store = False
        if isinstance(store, (str, Path)):
            self._store = open_store(store)
            self._owns_store = True
        elif store is not None:
            self._store = store

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_spec(
        cls,
        spec: Union[PipelineSpec, Mapping[str, Any], str, None] = None,
        *,
        store: StoreLike = None,
        tracer: Optional[Any] = None,
        **overrides: Any,
    ) -> "Pipeline":
        """Build a pipeline from any spec surface form (see :class:`PipelineSpec`).

        ``Pipeline.from_spec("NL", target="st231", opt=True)`` selects the
        allocator; strings may equally be ``"ssa"``/``"non-ssa"``, a JSON
        config object, or a comma-separated stage chain.
        """
        return cls(PipelineSpec.parse(spec, **overrides), store=store, tracer=tracer)

    @property
    def stages(self) -> Tuple[str, ...]:
        """The stage names this pipeline executes, in order."""
        return tuple(p.name for p in self._passes)

    @property
    def store(self) -> Optional[ExperimentStore]:
        """The attached experiment store, if any."""
        return self._store

    def tracer(self) -> Any:
        """The telemetry collector runs record into.

        The tracer given at construction wins; otherwise the ambient tracer
        (:func:`repro.telemetry.current_tracer`, no-op by default).
        """
        return self._explicit_tracer if self._explicit_tracer is not None else current_tracer()

    def close(self) -> None:
        """Close a store this pipeline opened itself (no-op otherwise)."""
        if self._owns_store and self._store is not None:
            self._store.close()
            self._store = None

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # single-item entry points
    # ------------------------------------------------------------------ #
    def run(self, function: Function, name: Optional[str] = None) -> PipelineContext:
        """Run the full chain on one IR function."""
        context = PipelineContext(
            function=function,
            name=name or function.name,
            target=self.spec.resolve_target(),
            num_registers=self.spec.registers,
        )
        context = self._traced_execute(context)
        if self._store is not None:
            self._store.flush()
        return context

    def run_problem(self, problem: AllocationProblem, name: Optional[str] = None) -> PipelineContext:
        """Run on a pre-built problem (front-end stages skip themselves).

        The context carries no target, matching how
        :func:`~repro.experiments.runner.run_experiment` digests raw problem
        iterables — so engine runs and store sweeps over the same problems
        share cache cells.
        """
        context = PipelineContext(
            name=name or problem.name,
            num_registers=problem.num_registers,
            problem=problem,
        )
        context = self._traced_execute(context)
        if self._store is not None:
            self._store.flush()
        return context

    def run_context(self, context: PipelineContext) -> PipelineContext:
        """Run the chain on a caller-built (possibly pre-populated) context.

        Stages whose provides are already present skip themselves, so a
        context carrying the front-end analyses of a previous run enters the
        chain at ``extract``/``allocate`` directly.  The correctness oracle
        uses this to run one function's liveness/interference once and fan
        the result out over every allocator × register-count combination.
        """
        context = self._traced_execute(context)
        if self._store is not None:
            self._store.flush()
        return context

    # ------------------------------------------------------------------ #
    # batch entry point
    # ------------------------------------------------------------------ #
    def run_many(self, functions: Iterable[Function], jobs: int = 1) -> List[PipelineContext]:
        """Run the chain over a batch of functions, optionally in parallel.

        ``jobs > 1`` shards the batch round-robin over a process pool and
        reassembles the contexts in input order, so the output is identical
        to a serial run (modulo measured timings).  Workers share the
        allocate-stage cache through the store *file*: each opens its own
        connection to :attr:`ExperimentStore.path`, and SQLite handles the
        concurrent writers.  When tracing, each shard's spans land on lane
        ``worker-N`` under the ``pipeline:run_many`` span.

        Workers rebuild the pass/allocator registries by importing the
        library, so custom passes and allocators used in a parallel batch
        must be registered at import time of their defining module (the
        usual multiprocessing constraint; under the ``fork`` start method
        parent-process registrations happen to carry over, under
        ``spawn``/``forkserver`` they do not).
        """
        if jobs < 1:
            raise PipelineError(f"jobs must be >= 1, got {jobs}")
        items = list(enumerate(functions))
        workers = min(jobs, len(items))
        tracer = self.tracer()
        with use_tracer(tracer), tracer.span(
            "pipeline:run_many", category="pipeline", functions=len(items), jobs=max(workers, 1)
        ):
            if workers <= 1:
                contexts = [self.run(function) for _, function in items]
            else:
                store_path: Optional[str] = None
                if self._store is not None:
                    self._store.flush()
                    store_path = str(self._store.path)
                shards = [(self.spec, store_path, items[start::workers]) for start in range(workers)]
                indexed: List[Tuple[int, PipelineContext]] = []
                for _, pairs in pool_map(_run_shard, shards, workers, "worker"):
                    indexed.extend(pairs)
                contexts = [context for _, context in sorted(indexed, key=lambda pair: pair[0])]
        if self._store is not None:
            self._store.flush()
        return contexts

    # ------------------------------------------------------------------ #
    # execution core
    # ------------------------------------------------------------------ #
    def _traced_execute(self, context: PipelineContext) -> PipelineContext:
        """Run :meth:`_execute` under a ``pipeline:run`` span when tracing.

        The untraced path (the default no-op tracer) calls :meth:`_execute`
        directly — no ambient rebinding, no span objects — keeping the
        disabled-telemetry overhead to this one ``enabled`` check per run.
        """
        tracer = self.tracer()
        if not tracer.enabled:
            return self._execute(context)
        with use_tracer(tracer), tracer.span(
            "pipeline:run",
            category="pipeline",
            function=context.name or "",
            allocator=self.spec.allocator,
            registers=context.num_registers,
        ) as span:
            context = self._execute(context)
            if context.result is not None:
                span.set(spilled=len(context.result.spilled))
            return context

    def _execute(self, context: PipelineContext) -> PipelineContext:
        """Run the pass chain over one context, skipping inapplicable stages.

        With ``spec.check != "off"`` the static machine-verifier runs at the
        pipeline boundaries (and, with ``"each"``, around every executed
        stage per the pass's ``check_requires``/``check_preserves``
        contract); error-severity findings raise
        :class:`repro.check.CheckError` whose diagnostics name the pass they
        were detected after.  The default ``"off"`` never invokes a checker.
        """
        mode = getattr(self.spec, "check", "off")
        tracer = current_tracer() if self._explicit_tracer is None else self._explicit_tracer
        last_stage = "input"
        if mode != "off" and context.function is not None:
            context = self._enforce(context, IR_CHECKERS, last_stage)
        for pass_ in self._passes:
            if pass_.provides and all(
                getattr(context, field) is not None for field in pass_.provides
            ):
                context = context.with_stage(
                    pass_.name, 0.0, stats={"skipped": "already provided"}
                )
                continue
            missing = [
                field for field in pass_.requires if getattr(context, field) is None
            ]
            if missing:
                if set(missing) & set(pass_.skip_without):
                    context = context.with_stage(
                        pass_.name,
                        0.0,
                        stats={"skipped": f"missing {', '.join(missing)}"},
                    )
                    continue
                raise PipelineError(
                    f"stage {pass_.name!r} requires {missing} but the context "
                    f"does not provide them (stages run: {list(context.timings)})"
                )
            if mode == "each" and pass_.check_requires:
                # A violated precondition was introduced by whatever ran last.
                context = self._enforce(context, pass_.check_requires, last_stage)
            if tracer.enabled:
                with tracer.span(f"pass:{pass_.name}", category="pass") as span:
                    started = time.perf_counter()
                    context = pass_.run(context, self.spec, self._store)
                    span.set(**scalar_attrs(context.stage_stats.get(pass_.name)))
            else:
                started = time.perf_counter()
                context = pass_.run(context, self.spec, self._store)
            if pass_.name not in context.timings:
                # A pass that forgot with_stage still gets an engine-side timing.
                context = context.with_stage(pass_.name, time.perf_counter() - started)
            last_stage = pass_.name
            if mode == "each" and pass_.check_preserves:
                context = self._enforce(context, pass_.check_preserves, last_stage)
        if mode != "off":
            context = self._enforce(context, None, last_stage)
        return context

    def _enforce(
        self,
        context: PipelineContext,
        checkers: Optional[Tuple[str, ...]],
        stage: str,
    ) -> PipelineContext:
        """Run ``checkers`` (``None`` = all applicable) over ``context``.

        Error diagnostics raise :class:`CheckError` tagged with ``stage``;
        warnings accumulate (deduplicated) on ``context.diagnostics``; notes
        are informational and dropped here (the ``repro-alloc check`` CLI is
        the surface that shows them).
        """
        ssa = bool(self.spec.ssa and context.lowered is not None)
        found = check_pipeline_context(context, ssa=ssa, stage=stage, checkers=checkers)
        errors = [d for d in found if d.is_error]
        if errors:
            raise CheckError(errors, stage=stage)
        warnings = [d for d in found if d.severity is Severity.WARNING]
        if warnings:
            seen = {(d.code, d.message, d.location) for d in context.diagnostics}
            fresh = tuple(
                d for d in warnings if (d.code, d.message, d.location) not in seen
            )
            if fresh:
                context = context.evolve(diagnostics=context.diagnostics + fresh)
        return context


def _run_shard(
    spec: PipelineSpec,
    store_path: Optional[str],
    shard: Sequence[Tuple[int, Function]],
) -> List[Tuple[int, PipelineContext]]:
    """Worker entry point: run one shard with its own store connection.

    Module-level so it pickles for the process pool; the input index
    travels with each context so the parent restores input order.
    """
    store = open_store(store_path) if store_path is not None else None
    try:
        pipeline = Pipeline(spec, store=store)
        return [(index, pipeline.run(function)) for index, function in shard]
    finally:
        if store is not None:
            store.close()
