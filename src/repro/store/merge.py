"""Fuse independently produced experiment-store shards into one store.

A distributed sweep (``repro-alloc sweep --backend service`` against
several service endpoints, or several local sweeps over corpus shards)
leaves one store per shard.  :func:`merge_batches` folds any number of
source shards into a destination store so the downstream ``aggregate`` /
``report`` stages see one coherent cell map:

* a key absent from the destination is copied (**added**);
* a key present with an *identical deterministic payload* is skipped
  (**deduped**) — the volatile ``runtime_seconds`` measurement is excluded
  from the comparison, exactly like the job-result determinism contract of
  :mod:`repro.service.api`;
* a key present with a *different* deterministic payload raises
  :class:`~repro.errors.MergeConflictError` before anything from the
  offending source is written — shards that disagree about a cell were
  produced by incompatible code, and fusing them would silently poison
  every figure built on top.

Run manifests are fused too (provenance survives the merge): the
destination ends up with the union of all manifests, deduplicated by
``run_id`` and appended in ``(created_at, run_id)`` order, so a merged
store replays the same history regardless of source order.
"""

from __future__ import annotations

import dataclasses
from contextlib import ExitStack
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.errors import MergeConflictError
from repro.store.base import ExperimentStore, open_store, record_to_dict
from repro.telemetry.tracer import current_tracer

#: cells compare on their deterministic fields only; a cold shard and a
#: warm shard that computed the same cell must dedupe despite timings.
_VOLATILE_RECORD_FIELDS = ("runtime_seconds",)


@dataclasses.dataclass
class MergeReport:
    """What one :func:`merge_batches` call did, per category."""

    #: cells copied into the destination (absent before the merge).
    added: int = 0
    #: cells skipped because the destination already held an identical
    #: deterministic payload.
    deduped: int = 0
    #: manifests appended to the destination's provenance log.
    manifests_added: int = 0
    #: source shards processed.
    sources: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


def _deterministic_payload(record: Any) -> Dict[str, Any]:
    """A record's comparison form: everything measurement-independent."""
    payload = record_to_dict(record)
    for field in _VOLATILE_RECORD_FIELDS:
        payload.pop(field, None)
    return payload


def merge_batches(
    dest: Union[str, ExperimentStore],
    sources: Sequence[Union[str, ExperimentStore]],
    *,
    flush: bool = True,
) -> MergeReport:
    """Merge the ``sources`` shards into ``dest`` (see the module docstring).

    ``dest`` and each source may be an open :class:`ExperimentStore` or a
    path (opened via :func:`~repro.store.base.open_store` and closed again
    afterwards).  Every source is opened before ``dest``, so a source that
    is not a store fails before a destination path is created or touched.
    Sources are processed in the given order, each checked against the
    *current* destination state, so conflicts between two sources surface
    just like conflicts with pre-existing destination cells.  Raises
    :class:`MergeConflictError` on the first divergent cell; the
    destination is flushed before the raise, so everything merged up to
    the conflicting source remains durable and inspectable.
    """
    tracer = current_tracer()
    report = MergeReport()
    with ExitStack() as opened:
        source_stores = [_as_store(source, opened) for source in sources]
        dest_store = _as_store(dest, opened)
        with tracer.span("backend:merge", category="backend", sources=len(sources)):
            seen_runs = {manifest.run_id for manifest in dest_store.manifests()}
            pending_manifests: List[Tuple[str, str, Any]] = []
            for source_store in source_stores:
                _merge_cells(dest_store, source_store, report)
                for manifest in source_store.manifests():
                    if manifest.run_id in seen_runs:
                        continue
                    seen_runs.add(manifest.run_id)
                    pending_manifests.append(
                        (manifest.created_at, manifest.run_id, manifest)
                    )
                report.sources += 1
            for _, _, manifest in sorted(pending_manifests, key=lambda m: (m[0], m[1])):
                dest_store.add_manifest(manifest)
                report.manifests_added += 1
            if flush:
                dest_store.flush()
    return report


def _merge_cells(
    dest: ExperimentStore, source: ExperimentStore, report: MergeReport
) -> None:
    """Copy one shard's cells into ``dest``, deduping and conflict-checking."""
    items = source.items()
    existing = dest.get_many([key for key, _ in items])
    to_add = []
    for key, record in items:
        held = existing.get(key)
        if held is None:
            to_add.append((key, record))
            continue
        if _deterministic_payload(held) == _deterministic_payload(record):
            report.deduped += 1
            continue
        dest.flush()  # keep everything merged so far durable for inspection
        raise MergeConflictError(
            f"merge conflict on cell {key.to_dict()}: destination and source "
            f"hold different deterministic payloads (instance "
            f"{record.instance!r}, allocator {key.allocator!r}, "
            f"R={key.num_registers}) — the shards were produced by "
            "incompatible code and cannot be fused",
            key=key,
        )
    if to_add:
        dest.put_many(to_add)
        report.added += len(to_add)


def _as_store(store_or_path: Union[str, ExperimentStore], opened: ExitStack) -> ExperimentStore:
    """An open store; a path is opened here and closed when ``opened`` exits."""
    if isinstance(store_or_path, ExperimentStore):
        return store_or_path
    return opened.enter_context(open_store(store_or_path))
