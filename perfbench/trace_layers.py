"""Per-layer tracing from outside the program.

:func:`install` wraps the public functions and methods listed in
:data:`SPAN_TARGETS` (and the allocators' and passes' entry methods) in
spans.  A function is re-bound at *every* loaded ``repro`` module that holds
it by name, so ``from repro.x import f`` call sites are covered too.

Spans go into :class:`repro.telemetry.Tracer` objects that this module
holds but never binds with ``use_tracer``: the program's own
instrumentation keeps seeing the no-op tracer.  ``Tracer``'s span stack is
not thread-aware, so each thread records into a tracer of its own, taken
from a free list when the thread opens its outermost span and returned when
that span closes (request threads of the service come and go; their tracers
are reused, which keeps one timeline row per concurrent thread).

Every tracer's clock is pinned so its first reading, the tracer's epoch, is
zero: span starts are then ``time.perf_counter() - base`` for a ``base``
shared by the benchmark and the traced server, so spans of every thread and
both processes sit on one timeline.

Each span carries its layer as category and the id of its operation
(compile sample, sweep window or job) as the ``op`` attribute.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.telemetry import Tracer
from repro.telemetry.tracer import TraceSnapshot

#: (module, attribute, span name): module-level functions wrapped by name.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.ir.parser", "parse_function", "ir.parse"),
    ("repro.ir.parser", "parse_module", "ir.parse"),
    ("repro.analysis.ssa_construction", "construct_ssa", "analysis.ssa"),
    ("repro.analysis.dense", "dense_liveness", "analysis.liveness"),
    ("repro.analysis.liveness", "liveness", "analysis.liveness"),
    ("repro.analysis.spill_costs", "spill_costs", "analysis.spill_costs"),
    ("repro.analysis.dense", "build_interference_graph_dense", "analysis.interference"),
    ("repro.analysis.dense", "dense_live_intervals", "analysis.interference"),
    ("repro.analysis.interference", "build_interference_graph", "analysis.interference"),
    ("repro.analysis.live_ranges", "live_intervals", "analysis.interference"),
    ("repro.graphs.chordal", "maximum_cardinality_search", "graphs.mcs"),
    ("repro.graphs.stable_set", "maximum_weighted_stable_set", "graphs.frank"),
    ("repro.graphs.cliques", "maximal_cliques_chordal", "graphs.cliques"),
    ("repro.alloc.verify", "check_allocation", "check.verify"),
    ("repro.alloc.spill_code", "insert_spill_code", "spill.insert"),
    ("repro.alloc.load_store_opt", "remove_redundant_reloads", "spill.loadstore_opt"),
    ("repro.store.keys", "problem_digest", "store.digest"),
    ("repro.workloads.corpus", "build_corpus", "workloads.corpus"),
    ("repro.experiments.figures", "figure9", "experiments.render"),
    ("repro.service.api", "submission_problems", "service.frontend"),
    ("repro.service.api", "job_key", "service.job_key"),
    ("repro.service.api", "execute_job", "service.execute"),
)

#: (module, class, method, span name): methods wrapped on their class.
METHOD_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.graphs.graph", "Graph", "subgraph", "graphs.subgraph"),
    ("repro.graphs.dense", "DenseGraph", "subgraph", "graphs.subgraph"),
    ("repro.experiments.runner", "InstanceRecord", "from_result", "experiments.record"),
    ("repro.store.base", "ExperimentStore", "get_many", "store.get"),
    ("repro.store.base", "ExperimentStore", "get", "store.get"),
    ("repro.store.base", "ExperimentStore", "put_many", "store.put"),
    ("repro.store.base", "ExperimentStore", "put", "store.put"),
    ("repro.store.base", "ExperimentStore", "flush", "store.flush"),
    ("repro.store.sqlite", "SqliteExperimentStore", "add_manifest", "store.manifest"),
    ("repro.service.server", "AllocationService", "submit", "service.submit"),
    ("repro.service.server", "AllocationService", "submit_batch", "service.submit"),
    ("repro.service.queue", "JobQueue", "enqueue", "queue.enqueue"),
    ("repro.service.queue", "JobQueue", "claim", "queue.claim"),
    ("repro.service.queue", "JobQueue", "complete", "queue.complete"),
)

#: allocators whose ``allocate`` spans are named ``alloc.<name>``.
ALLOCATORS = ("GC", "NL", "BL", "FPL", "BFPL", "Optimal")


def _zero_epoch_clock(base: float) -> Callable[[], float]:
    """A clock whose first reading (the tracer's epoch) is 0.0.

    ``Tracer`` records times relative to its first reading; pinning that
    reading to zero makes every later reading an offset from ``base``.
    """
    first = [True]

    def clock() -> float:
        if first[0]:
            first[0] = False
            return 0.0
        return time.perf_counter() - base

    return clock


class Recorder:
    """Thread-aware owner of the tracers spans are recorded into."""

    def __init__(self, base: float) -> None:
        self.base = base
        self._lock = threading.Lock()
        self._free: List[Tracer] = []
        self._all: List[Tracer] = []
        self._local = threading.local()
        #: counters recorded by observers, summed over threads.
        self.counters: Dict[str, float] = {}

    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "depth"):
            local.depth = 0
            local.tracer = None
            local.open = set()
            local.op = ""
        return local

    def set_op(self, op: str) -> None:
        """Tag spans this thread opens from now on with operation ``op``."""
        self._state().op = op

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def span(self, name: str, key: str, category: str, call: Callable[[], Any],
             observe: Optional[Callable[[Any, Any], None]] = None) -> Any:
        """Run ``call`` inside a span unless ``key`` is already open here.

        The re-entrancy key stops a layer from counting twice when its entry
        points call each other (``get`` calls ``get_many``, FPL may call the
        NL allocator it extends).
        """
        state = self._state()
        if key in state.open:
            return call()
        if state.depth == 0:
            with self._lock:
                if self._free:
                    state.tracer = self._free.pop()
                else:
                    state.tracer = Tracer(clock=_zero_epoch_clock(self.base))
                    self._all.append(state.tracer)
        state.open.add(key)
        state.depth += 1
        try:
            with state.tracer.span(name, category=category, op=state.op) as span:
                result = call()
                if observe is not None:
                    observe(result, span)
                return result
        finally:
            state.open.discard(key)
            state.depth -= 1
            if state.depth == 0:
                with self._lock:
                    self._free.append(state.tracer)
                state.tracer = None

    def snapshot(self) -> TraceSnapshot:
        """All threads' spans on one timeline (one lane per tracer)."""
        merged = Tracer(clock=lambda: 0.0)
        with self._lock:
            tracers = list(self._all)
            counters = dict(self.counters)
        for index, tracer in enumerate(tracers):
            merged.merge(tracer.snapshot(), label=f"thread-{index}")
        for name, value in counters.items():
            merged.count(name, value)
        return merged.snapshot()


# ---------------------------------------------------------------------- #
# observers: counts read off a call's result at the layer boundary.
# Each gets (result, span, args); for methods args[0] is the instance.
# ---------------------------------------------------------------------- #
def _observers(recorder: Recorder) -> Dict[str, Callable[[Any, Any, tuple], None]]:
    def graph_built(graph: Any, span: Any, args: tuple) -> None:
        if hasattr(graph, "num_edges"):  # the intervals builders share the span name
            recorder.count("analysis.vertices", len(graph))
            recorder.count("analysis.edges", graph.num_edges())

    def allocated(result: Any, span: Any, args: tuple) -> None:
        recorder.count("alloc.spilled", result.num_spilled)
        recorder.count("alloc.layers", result.stats.get("layers", 0))

    def spill_inserted(result: Any, span: Any, args: tuple) -> None:
        recorder.count("spill.loads", result[1]["loads"])
        recorder.count("spill.stores", result[1]["stores"])

    def reloads_removed(result: Any, span: Any, args: tuple) -> None:
        recorder.count("spill.loads_removed", result[1])

    def looked_up(result: Any, span: Any, args: tuple) -> None:
        if isinstance(result, dict):  # get_many: the found subset of the keys
            hits, total = len(result), len(args[1])
        else:  # get: one record or None
            hits, total = (0 if result is None else 1), 1
        recorder.count("store.hits", hits)
        recorder.count("store.misses", total - hits)

    def manifest_added(result: Any, span: Any, args: tuple) -> None:
        recorder.count("sweep.cells_computed", args[1].cells_computed)
        recorder.count("sweep.cells_cached", args[1].cells_cached)

    def submitted(result: Any, span: Any, args: tuple) -> None:
        job, deduped = result
        span.set(op=job.id)
        recorder.count("service.deduped", 1 if deduped else 0)

    def claimed(job: Any, span: Any, args: tuple) -> None:
        if job is not None:
            span.set(op=job.id)
            recorder.set_op(job.id)
            recorder.count("queue.wait_s", max(0.0, time.time() - job.created_at))

    def completed(result: Any, span: Any, args: tuple) -> None:
        recorder.set_op("")

    return {
        "analysis.interference": graph_built,
        "alloc": allocated,
        "spill.insert": spill_inserted,
        "spill.loadstore_opt": reloads_removed,
        "store.get": looked_up,
        "store.manifest": manifest_added,
        "service.submit": submitted,
        "queue.claim": claimed,
        "queue.complete": completed,
    }


def _wrap(recorder: Recorder, fn: Callable[..., Any], name: Callable[[tuple], str], key: str,
          observe: Optional[Callable[[Any, Any, tuple], None]]) -> Callable[..., Any]:
    """``fn`` inside a span named ``name(args)``, re-entrancy-guarded by ``key``."""
    layer = key.split(".", 1)[0]

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if fn.__name__ == "get_many":
            args = (args[0], list(args[1])) + args[2:]  # keys may be a one-shot iterable
        hook = None if observe is None else (lambda result, span: observe(result, span, args))
        return recorder.span(name(args), key, layer, lambda: fn(*args, **kwargs), hook)

    return wrapper


def _rebind(original: Any, wrapper: Any) -> None:
    """Replace ``original`` by ``wrapper`` in every loaded ``repro`` module,
    and in the module-level registries that hold it (``ALL_FIGURES``)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = wrapper


def install(base: Optional[float] = None) -> Recorder:
    """Wrap every target in spans; return the recorder that holds them."""
    from repro.alloc.base import get_allocator
    from repro.pipeline.passes import DEFAULT_STAGES, get_pass

    recorder = Recorder(time.perf_counter() if base is None else base)
    observers = _observers(recorder)

    for module_name, attr, span in SPAN_TARGETS:
        original = getattr(importlib.import_module(module_name), attr)
        _rebind(original, _wrap(recorder, original, lambda args, span=span: span, span, observers.get(span)))

    methods = [
        (getattr(importlib.import_module(module_name), class_name), method, span)
        for module_name, class_name, method, span in METHOD_TARGETS
    ]
    for stage in DEFAULT_STAGES:
        methods.append((type(get_pass(stage)), "run", f"pipeline.{stage}"))
    for cls, method, span in methods:
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            wrapped = _wrap(recorder, raw.__func__, lambda args, span=span: span, span, observers.get(span))
            setattr(cls, method, classmethod(wrapped))
        else:
            setattr(cls, method, _wrap(recorder, raw, lambda args, span=span: span, span, observers.get(span)))

    # Allocators: one span per allocate call, named after the allocator
    # instance (BL runs NL's method, BFPL runs FPL's).
    classes: List[type] = []
    for allocator in ALLOCATORS:
        for cls in type(get_allocator(allocator)).__mro__:
            method = cls.__dict__.get("allocate")
            if method is not None and not getattr(method, "__isabstractmethod__", False) and cls not in classes:
                classes.append(cls)
    for cls in classes:
        cls.allocate = _wrap(  # type: ignore[method-assign]
            recorder, cls.__dict__["allocate"], lambda args: f"alloc.{args[0].name}", "alloc", observers["alloc"]
        )
    return recorder


# ---------------------------------------------------------------------- #
# turning spans into layer metrics
# ---------------------------------------------------------------------- #
def op_of(snapshot: TraceSnapshot) -> Dict[int, str]:
    """Each span's operation id; spans opened before their root learnt its
    operation (a request thread only learns the job id when submit returns)
    inherit the root's."""
    by_id = {event.span_id: event for event in snapshot.events}
    ops: Dict[int, str] = {}
    for event in snapshot.events:
        op = event.attrs.get("op", "")
        walker = event
        while not op and walker.parent_id in by_id:
            walker = by_id[walker.parent_id]
            op = walker.attrs.get("op", "")
        ops[event.span_id] = op
    return ops


def unattributed_seconds(snapshot: TraceSnapshot) -> float:
    """Time inside operation spans (category ``op``) that no other span of
    the same operation covers.  An operation span whose id lists several
    operations (``a,b``: a sweep window's batch jobs) is covered by the
    spans of each."""
    ops = op_of(snapshot)
    windows: List[Tuple[str, float, float]] = []
    intervals: Dict[str, List[Tuple[float, float]]] = {}
    for event in snapshot.events:
        if not event.closed:
            continue
        interval = (event.start, event.start + event.duration)
        if event.category == "op":
            windows.append((ops[event.span_id], *interval))
        else:
            intervals.setdefault(ops[event.span_id], []).append(interval)
    total = 0.0
    for op, start, end in windows:
        covered = 0.0
        cursor = start
        for lo, hi in sorted(interval for part in op.split(",") for interval in intervals.get(part, [])):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        total += (end - start) - covered
    return total


def layer_metrics(snapshot: TraceSnapshot, names: Iterable[str], scale: float,
                  per: float = 1.0) -> Dict[str, float]:
    """The per-layer metrics ``names`` from spans and counters, divided by
    ``per`` units.

    A name says where its value comes from: ``<span>_calls`` counts the
    spans named ``<span>``; ``<span>_s`` is the inclusive time of those
    spans (a layer's time contains the layers it calls) plus any counter
    ``<span>_s`` recorded in seconds, multiplied by ``scale``, the run's
    normalisation factor; ``<layer>.hit_ratio`` is the layer's hits over its
    hits and misses; any other name is a counter.  Metrics no span or
    counter measures (imports, server start, tracing overhead) read 0 here
    and come from the workload.
    """
    totals: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for event in snapshot.events:
        if event.closed:
            totals[event.name] = totals.get(event.name, 0.0) + event.duration
            calls[event.name] = calls.get(event.name, 0) + 1
    counters = snapshot.counters
    out: Dict[str, float] = {}
    for name in names:
        if name.endswith("_calls"):
            out[name] = calls.get(name[: -len("_calls")], 0) / per
        elif name.endswith("_s"):
            seconds = totals.get(name[: -len("_s")], 0.0) + counters.get(name, 0.0)
            out[name] = seconds * scale / per
        elif name.endswith(".hit_ratio"):
            layer = name[: -len(".hit_ratio")]
            hits, misses = counters.get(f"{layer}.hits", 0), counters.get(f"{layer}.misses", 0)
            out[name] = hits / (hits + misses) if hits + misses else 0.0
        else:
            out[name] = counters.get(name, 0) / per
    return out


def self_times(snapshot: TraceSnapshot) -> Dict[str, float]:
    """Per span name: total duration minus the part its children cover."""
    child_time: Dict[int, float] = {}
    for event in snapshot.events:
        if event.closed and event.parent_id:
            child_time[event.parent_id] = child_time.get(event.parent_id, 0.0) + event.duration
    out: Dict[str, float] = {}
    for event in snapshot.events:
        if event.closed:
            out[event.name] = out.get(event.name, 0.0) + event.duration - child_time.get(event.span_id, 0.0)
    return out


def combine(*snapshots: TraceSnapshot) -> TraceSnapshot:
    """One snapshot holding every input's spans and counters (lanes kept apart)."""
    merged = Tracer(clock=lambda: 0.0)
    for index, snapshot in enumerate(snapshots):
        merged.merge(snapshot, label=f"part-{index}")
    return merged.snapshot()
