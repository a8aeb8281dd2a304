"""Zero-dependency tracing: nested spans, counters, gauges, ambient binding.

A :class:`Tracer` records three kinds of telemetry:

* **spans** — nested, named wall-clock intervals (pipeline run → pass →
  allocator internals), opened with the :meth:`Tracer.span` context manager;
* **counters** — monotonically accumulated totals (:meth:`Tracer.count`),
  e.g. store cache hits or Frank-search invocations;
* **gauges** — last-write-wins measurements (:meth:`Tracer.gauge`), e.g. the
  Optimal-BB search-node count of the most recent solve.

The library never *requires* a tracer: every instrumentation point reads the
process-wide ambient tracer (:func:`current_tracer`), which defaults to the
shared :data:`NULL_TRACER` — a no-op whose ``span``/``count``/``gauge``
methods do nothing and allocate nothing.  Hot paths guard any string
formatting behind ``tracer.enabled``, so an untraced run pays one attribute
read and (at most) one no-op call per instrumentation point; the bench
harness measures and bounds this (``test_noop_tracer_overhead_bound``).

Enable tracing by binding a real tracer around the work::

    from repro.telemetry import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        Pipeline.from_spec("NL", target="st231").run(function)
    snapshot = tracer.snapshot()

Process-pool workers cannot share the parent's tracer; they build their own,
return :meth:`Tracer.snapshot` (a picklable value object) with their results,
and the parent folds the snapshots back in task order with
:meth:`Tracer.merge` — each task gets its own *lane* (rendered as a thread
row in the Chrome trace export).  :func:`pool_map` is that pattern, and the
one process pool of the library: pipeline batches, sweeps and oracle
campaigns all fan out through it.

Determinism: span ids are assigned in creation order and exports list events
in id order, so two runs of the same workload produce the same span
name/nesting/ordering sequence — only the measured times differ.  Tests that
need byte-stable output inject a fake ``clock``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class SpanEvent:
    """One recorded span: a named interval in the tracer's timeline."""

    #: 1-based id, assigned in creation order (export order).
    span_id: int
    #: id of the enclosing span; ``0`` for a root span.
    parent_id: int
    name: str
    category: str
    #: seconds since the owning tracer's epoch.
    start: float
    #: seconds; ``-1.0`` while the span is still open.
    duration: float
    #: nesting depth at creation (roots are 0).
    depth: int
    #: 0 = the owning process; merged worker snapshots get lanes 1..n.
    lane: int = 0
    #: JSON-scalar annotations attached at creation or via ``set()``.
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.duration >= 0.0


@dataclass
class TraceSnapshot:
    """Picklable, immutable-by-convention copy of a tracer's state.

    This is the unit of cross-process telemetry: workers return snapshots,
    parents :meth:`Tracer.merge` them, exporters consume them.
    """

    events: List[SpanEvent] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    #: lane number -> human label ("main", "worker-0", ...).
    lanes: Dict[int, str] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def span_names(self) -> List[str]:
        """Span names in id (creation) order — the determinism fingerprint."""
        return [event.name for event in self.events]

    def find(self, name: str) -> List[SpanEvent]:
        """All spans with the given name, in id order."""
        return [event for event in self.events if event.name == name]

    def children_of(self, span_id: int) -> List[SpanEvent]:
        """Direct children of one span, in id order."""
        return [event for event in self.events if event.parent_id == span_id]

    def end_time(self) -> float:
        """Largest ``start + duration`` over all closed events (0.0 if none)."""
        ends = [e.start + e.duration for e in self.events if e.closed]
        return max(ends) if ends else 0.0


class _Span:
    """Context manager handle for one open span (do not construct directly)."""

    __slots__ = ("_tracer", "_event")

    def __init__(self, tracer: "Tracer", event: SpanEvent) -> None:
        self._tracer = tracer
        self._event = event

    def set(self, **attrs: Any) -> "_Span":
        """Attach JSON-scalar annotations to the span while it is open."""
        self._event.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._tracer._finish(self._event)
        return False


class _NullSpan:
    """The shared no-op span handle returned by :class:`NullTracer`."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op, nothing is allocated.

    A single shared instance (:data:`NULL_TRACER`) is the ambient default;
    instrumentation points check :attr:`enabled` before doing any work beyond
    the method call itself.
    """

    __slots__ = ()
    enabled = False

    def span(self, name: str, category: str = "span", **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, n: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def merge(self, snapshot: TraceSnapshot, label: Optional[str] = None) -> None:
        pass

    def snapshot(self) -> TraceSnapshot:
        return TraceSnapshot()


#: the process-wide default tracer (disabled).
NULL_TRACER = NullTracer()


class Tracer:
    """An enabled telemetry collector (see the module docstring).

    Parameters
    ----------
    clock:
        Monotonic time source; injectable for byte-stable golden tests.
        Timestamps are recorded relative to the first reading (the epoch).
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self.events: List[SpanEvent] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.lanes: Dict[int, str] = {0: "main"}
        self.meta: Dict[str, Any] = {}
        self._stack: List[int] = []
        self._next_id = 1

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def span(self, name: str, category: str = "span", **attrs: Any) -> _Span:
        """Open a nested span; use as ``with tracer.span("pass:allocate"):``."""
        event = SpanEvent(
            span_id=self._next_id,
            parent_id=self._stack[-1] if self._stack else 0,
            name=name,
            category=category,
            start=self._clock() - self._epoch,
            duration=-1.0,
            depth=len(self._stack),
            attrs=attrs,
        )
        self._next_id += 1
        self.events.append(event)
        self._stack.append(event.span_id)
        return _Span(self, event)

    def _finish(self, event: SpanEvent) -> None:
        event.duration = (self._clock() - self._epoch) - event.start
        if self._stack and self._stack[-1] == event.span_id:
            self._stack.pop()
        else:  # out-of-order exit: tolerate rather than corrupt the stack
            try:
                self._stack.remove(event.span_id)
            except ValueError:
                pass

    def count(self, name: str, n: float = 1) -> None:
        """Accumulate ``n`` onto the named counter (creating it at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of the named gauge (last write wins)."""
        self.gauges[name] = float(value)

    # ------------------------------------------------------------------ #
    # snapshots and cross-process merging
    # ------------------------------------------------------------------ #
    def snapshot(self) -> TraceSnapshot:
        """Deep-copied, picklable view of everything recorded so far.

        Spans still open keep ``duration = -1.0``; exporters clamp them.
        """
        return TraceSnapshot(
            events=[replace(event, attrs=dict(event.attrs)) for event in self.events],
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            lanes=dict(self.lanes),
            meta=dict(self.meta),
        )

    def merge(self, snapshot: TraceSnapshot, label: Optional[str] = None) -> None:
        """Fold a child snapshot (e.g. from a pool worker) into this tracer.

        Child spans are re-identified into this tracer's id space and placed
        on a fresh *lane*; child roots become children of the currently open
        span (so a worker's work nests under the batch span that spawned it).
        Counters accumulate, gauges are overwritten (merge order decides, and
        :func:`pool_map` merges in task order, so the outcome is
        deterministic).  Child lane labels beyond lane 0 are preserved with a
        ``label/`` prefix, supporting two-level pools.
        """
        base = (max(self.lanes) + 1) if self.lanes else 1
        label = label or f"lane-{base}"
        base_depth = len(self._stack)
        attach_to = self._stack[-1] if self._stack else 0

        # Every child lane (including lane 0, which an empty worker still
        # claims) maps onto a fresh parent lane, so lane numbering depends
        # only on merge order — not on how much work each worker received.
        child_lanes = sorted({event.lane for event in snapshot.events} | set(snapshot.lanes) | {0})
        lane_map: Dict[int, int] = {}
        for offset, child_lane in enumerate(child_lanes):
            lane_map[child_lane] = base + offset
            child_label = snapshot.lanes.get(child_lane, f"lane-{child_lane}")
            self.lanes[base + offset] = label if child_lane == 0 else f"{label}/{child_label}"

        id_map: Dict[int, int] = {}
        for event in snapshot.events:
            new_id = self._next_id
            self._next_id += 1
            id_map[event.span_id] = new_id
            self.events.append(
                replace(
                    event,
                    span_id=new_id,
                    parent_id=id_map.get(event.parent_id, attach_to),
                    depth=event.depth + base_depth,
                    lane=lane_map[event.lane],
                    attrs=dict(event.attrs),
                )
            )
        for name, value in snapshot.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in snapshot.gauges.items():
            self.gauges[name] = value


# ---------------------------------------------------------------------- #
# the ambient tracer
# ---------------------------------------------------------------------- #
class _AmbientBinding(threading.local):
    """Per-thread ambient-tracer slot, defaulting to the no-op tracer."""

    tracer: Any = NULL_TRACER


_AMBIENT = _AmbientBinding()


def current_tracer() -> Any:
    """The ambient tracer instrumentation points record into.

    Defaults to :data:`NULL_TRACER`; rebind with :class:`use_tracer`.  The
    binding is **per thread**: a fresh thread (or pool worker process)
    starts at the no-op default and builds its own tracer when traced
    execution is requested — the allocation service relies on this to run
    one independent tracer per worker thread without cross-talk, merging
    snapshots into its aggregate afterwards."""
    return _AMBIENT.tracer


class use_tracer:
    """Context manager binding ``tracer`` as this thread's ambient tracer.

    Re-entrant and nestable; the previous binding is restored on exit::

        with use_tracer(tracer):
            ...  # current_tracer() is `tracer` here

    The binding is thread-local (see :func:`current_tracer`), so
    concurrently executing threads can each hold their own tracer.
    """

    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Any) -> None:
        self._tracer = tracer
        self._previous: Any = None

    def __enter__(self) -> Any:
        self._previous = _AMBIENT.tracer
        _AMBIENT.tracer = self._tracer
        return self._tracer

    def __exit__(self, *exc_info: object) -> bool:
        _AMBIENT.tracer = self._previous
        return False


def scalar_attrs(mapping: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Filter a mapping down to JSON-scalar values (span-attr safe subset)."""
    if not mapping:
        return {}
    return {
        key: value
        for key, value in mapping.items()
        if isinstance(value, (str, int, float, bool)) or value is None
    }


# ---------------------------------------------------------------------- #
# process-pool fan-out
# ---------------------------------------------------------------------- #
def _traced_call(fn: Callable[..., Any], args: Sequence[Any], traced: bool) -> Tuple[Any, Optional[TraceSnapshot]]:
    """Worker side of :func:`pool_map`: ``fn(*args)``, under a tracer of its
    own when the parent is tracing, and that tracer's snapshot."""
    if not traced:
        return fn(*args), None
    tracer = Tracer()
    with use_tracer(tracer):
        result = fn(*args)
    return result, tracer.snapshot()


def pool_map(
    fn: Callable[..., Any], tasks: Sequence[Sequence[Any]], jobs: int, lane: str
) -> Iterator[Tuple[int, Any]]:
    """Run ``fn(*task)`` for every task on ``min(jobs, len(tasks))`` worker
    processes; yield ``(task position, result)`` as each task finishes.

    ``fn`` and the tasks must pickle (a module-level function and plain
    values).  When the ambient tracer is enabled, each task records into a
    tracer of its own, and once every task is done the snapshots merge into
    the ambient tracer in task order, on lanes ``f"{lane}-{position}"``
    under the span open at that point.
    """
    from concurrent.futures import ProcessPoolExecutor, as_completed

    tracer = current_tracer()
    snapshots: Dict[int, TraceSnapshot] = {}
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = {
            pool.submit(_traced_call, fn, task, tracer.enabled): position
            for position, task in enumerate(tasks)
        }
        for future in as_completed(futures):
            result, snapshot = future.result()
            if snapshot is not None:
                snapshots[futures[future]] = snapshot
            yield futures[future], result
    for position in sorted(snapshots):
        tracer.merge(snapshots[position], label=f"{lane}-{position}")
