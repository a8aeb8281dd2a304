"""``merge_batches``: fusing distributed-sweep shards into one store.

Covers the satellite checklist: disjoint shards fuse completely,
overlapping-identical cells dedupe, conflicting payloads raise the typed
:class:`MergeConflictError`, and manifests fuse in ``(created_at, run_id)``
order.
"""

import dataclasses

import pytest

from repro.alloc.problem import AllocationProblem
from repro.errors import MergeConflictError
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.graphs.generators import random_chordal_graph
from repro.store import open_store
from repro.store.merge import merge_batches


def _problems(indices):
    return [
        AllocationProblem(
            graph=random_chordal_graph(14 + i, rng=i), num_registers=4, name=f"p{i}"
        )
        for i in indices
    ]


def _config():
    return ExperimentConfig(allocators=["NL"], register_counts=[2, 4], verify=False)


def _sweep(path, indices):
    with open_store(path) as store:
        run_experiment(_problems(indices), _config(), store=store)


def _cells(path):
    with open_store(path) as store:
        return {
            key: (r.instance, r.allocator, r.num_registers, r.spill_cost, r.num_spilled)
            for key, r in store.items()
        }


def test_disjoint_shards_fuse_completely(tmp_path):
    _sweep(tmp_path / "a.sqlite", [0, 1])
    _sweep(tmp_path / "b.sqlite", [2, 3])
    report = merge_batches(
        tmp_path / "merged.sqlite", [tmp_path / "a.sqlite", tmp_path / "b.sqlite"]
    )
    assert report.sources == 2
    assert report.deduped == 0
    merged = _cells(tmp_path / "merged.sqlite")
    assert merged == {**_cells(tmp_path / "a.sqlite"), **_cells(tmp_path / "b.sqlite")}
    assert report.added == len(merged)


def test_overlapping_identical_cells_dedupe(tmp_path):
    # Both shards swept instance 1; its cells are identical and must dedupe.
    _sweep(tmp_path / "a.sqlite", [0, 1])
    _sweep(tmp_path / "b.sqlite", [1, 2])
    report = merge_batches(
        tmp_path / "merged.sqlite", [tmp_path / "a.sqlite", tmp_path / "b.sqlite"]
    )
    overlap = len(_cells(tmp_path / "a.sqlite").keys() & _cells(tmp_path / "b.sqlite").keys())
    assert overlap > 0
    assert report.deduped == overlap
    assert len(_cells(tmp_path / "merged.sqlite")) == report.added


def test_runtime_seconds_is_not_a_conflict(tmp_path):
    """Cold and warm shards differ only in measured runtimes — they dedupe."""
    _sweep(tmp_path / "a.sqlite", [0])
    _sweep(tmp_path / "b.sqlite", [0])
    with open_store(tmp_path / "b.sqlite") as store:
        items = store.items()
        store.put_many(
            [(k, dataclasses.replace(r, runtime_seconds=999.0)) for k, r in items]
        )
        store.flush()
    report = merge_batches(
        tmp_path / "merged.sqlite", [tmp_path / "a.sqlite", tmp_path / "b.sqlite"]
    )
    assert report.deduped == len(_cells(tmp_path / "a.sqlite"))


def test_conflicting_payloads_raise_typed_error(tmp_path):
    _sweep(tmp_path / "a.sqlite", [0])
    _sweep(tmp_path / "b.sqlite", [0])
    # Corrupt one cell of shard b: same key, different deterministic payload.
    with open_store(tmp_path / "b.sqlite") as store:
        key, record = store.items()[0]
        store.put(key, dataclasses.replace(record, spill_cost=record.spill_cost + 1.0))
        store.flush()
    with pytest.raises(MergeConflictError) as excinfo:
        merge_batches(
            tmp_path / "merged.sqlite", [tmp_path / "a.sqlite", tmp_path / "b.sqlite"]
        )
    assert excinfo.value.key is not None
    assert "different deterministic payloads" in str(excinfo.value)
    # Everything merged before the conflicting source stays durable.
    assert _cells(tmp_path / "merged.sqlite") == _cells(tmp_path / "a.sqlite")


def test_manifests_fuse_deduped_and_ordered(tmp_path):
    _sweep(tmp_path / "a.sqlite", [0])
    _sweep(tmp_path / "b.sqlite", [1])
    # Merging shard a twice must not duplicate its manifest.
    report = merge_batches(
        tmp_path / "merged.sqlite",
        [tmp_path / "b.sqlite", tmp_path / "a.sqlite", tmp_path / "a.sqlite"],
    )
    assert report.manifests_added == 2
    with open_store(tmp_path / "merged.sqlite") as store:
        manifests = store.manifests()
    assert len(manifests) == 2
    stamps = [(m.created_at, m.run_id) for m in manifests]
    assert stamps == sorted(stamps)
    # Re-merging is idempotent: everything dedupes, nothing is added.
    again = merge_batches(
        tmp_path / "merged.sqlite", [tmp_path / "a.sqlite", tmp_path / "b.sqlite"]
    )
    assert again.added == 0
    assert again.manifests_added == 0


def test_open_store_arguments_accepted_directly(tmp_path):
    _sweep(tmp_path / "a.sqlite", [0])
    with open_store(tmp_path / "merged.sqlite") as dest, open_store(
        tmp_path / "a.sqlite"
    ) as source:
        report = merge_batches(dest, [source])
        assert report.added == len(source.items())
