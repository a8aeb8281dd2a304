"""Experiment-store semantics: cells, manifests, reopening, open errors."""

import re
import subprocess

import pytest

import repro.store.base as store_base
from repro.experiments.runner import InstanceRecord
from repro.service.queue import JobQueue
from repro.store import CellKey, RunManifest, StoreFormatError, current_git_rev, open_store

#: the store's one backend; its name prefixes the ``store.<backend>.*`` counters.
BACKENDS = ("sqlite",)


def _store_path(tmp_path, backend):
    return tmp_path / f"store.{backend}"


def _key(digest="d0", allocator="NL", version="1", registers=2):
    return CellKey(digest, allocator, version, registers)


def _record(instance="s/p/fn0", allocator="NL", registers=2, cost=3.0):
    return InstanceRecord(
        instance=instance,
        program="p",
        allocator=allocator,
        num_registers=registers,
        spill_cost=cost,
        num_spilled=1,
        num_variables=7,
        max_pressure=4,
        runtime_seconds=0.01,
        stats={"layers": 2},
    )


def _manifest(run_id="r1"):
    return RunManifest(
        run_id=run_id,
        created_at="2026-07-26T00:00:00+00:00",
        suite="eembc",
        target="st231",
        seed=7,
        scale=0.5,
        config={"allocators": ["NL"], "register_counts": [2]},
        git_rev="abc1234",
        instances=3,
        cells_total=6,
        cells_computed=4,
        cells_cached=2,
        wall_time_seconds=1.5,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_put_get_roundtrip_and_miss(tmp_path, backend):
    with open_store(_store_path(tmp_path, backend)) as store:
        assert store.backend == backend
        key, record = _key(), _record()
        assert store.get(key) is None
        store.put(key, record)
        assert store.get(key) == record
        assert key in store
        assert _key(digest="other") not in store
        assert store.get_many([key, _key(digest="other")]) == {key: record}
        assert len(store) == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_overwrite_is_last_write_wins(tmp_path, backend):
    with open_store(_store_path(tmp_path, backend)) as store:
        key = _key()
        store.put(key, _record(cost=3.0))
        store.put(key, _record(cost=9.0))
        assert len(store) == 1
        assert store.get(key).spill_cost == 9.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_persistence_across_reopen(tmp_path, backend):
    path = _store_path(tmp_path, backend)
    with open_store(path) as store:
        store.put(_key(), _record())
        store.add_manifest(_manifest())
    with open_store(path) as store:
        assert len(store) == 1
        assert store.get(_key()) == _record()
        manifests = store.manifests()
        assert len(manifests) == 1
        assert manifests[0] == _manifest()


@pytest.mark.parametrize("backend", BACKENDS)
def test_manifests_preserve_insertion_order(tmp_path, backend):
    path = _store_path(tmp_path, backend)
    with open_store(path) as store:
        for run_id in ("r1", "r2", "r3"):
            store.add_manifest(_manifest(run_id))
    with open_store(path) as store:
        assert [m.run_id for m in store.manifests()] == ["r1", "r2", "r3"]


def test_read_view_ignores_insertion_order(tmp_path):
    """Two stores filled with the same cells in opposite orders read back
    identically: ``items()`` sorts by (instance, R, allocator, key)."""
    pairs = [
        (_key("d1", "NL", "1", 2), _record(instance="s/a/fn0", allocator="NL", registers=2)),
        (_key("d1", "GC", "1", 2), _record(instance="s/a/fn0", allocator="GC", registers=2, cost=5.0)),
        (_key("d2", "NL", "1", 4), _record(instance="s/b/fn1", allocator="NL", registers=4, cost=0.0)),
    ]
    views = []
    for name, ordered in (("a", pairs), ("b", list(reversed(pairs)))):
        with open_store(tmp_path / f"{name}.sqlite") as store:
            store.put_many(ordered)
            views.append((store.items(), store.records()))
    assert views[0] == views[1]
    assert [key for key, _ in views[0][0]] == [pairs[1][0], pairs[0][0], pairs[2][0]]


def test_open_store_names_a_path_it_cannot_open(tmp_path):
    """A directory, or a file that is not a SQLite database (an old JSONL
    store, say), fails with one typed error naming the path; the file is
    left as it was."""
    old_jsonl = tmp_path / "cells.jsonl"
    old_jsonl.write_text('{"type": "cell"}\n')
    directory = tmp_path / "cells"
    directory.mkdir()
    for path in (old_jsonl, directory):
        with pytest.raises(StoreFormatError, match=re.escape(str(path))):
            open_store(path)
    assert old_jsonl.read_text() == '{"type": "cell"}\n'


def test_store_commits_without_fsync_but_the_queue_keeps_full_sync(tmp_path):
    """The store commits every cell in WAL mode with ``synchronous=NORMAL``
    (a killed process loses no commit; an OS crash may roll back the last
    ones); the job queue holds accepted jobs and keeps FULL."""
    with open_store(tmp_path / "s.sqlite") as store:
        assert store._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert store._conn.execute("PRAGMA synchronous").fetchone()[0] == 1
        store.put(_key(), _record())
        assert not store._conn.in_transaction
    queue = JobQueue(tmp_path / "q.sqlite")
    try:
        assert queue._conn.execute("PRAGMA synchronous").fetchone()[0] == 2
    finally:
        queue.close()


def test_git_revision_is_looked_up_once_per_directory(tmp_path, monkeypatch):
    calls = []

    def fake_run(command, cwd=None, **kwargs):
        calls.append(cwd)
        return subprocess.CompletedProcess(command, 0, stdout=f"rev{len(calls)}\n", stderr="")

    monkeypatch.setattr(store_base, "_GIT_REVS", {})
    monkeypatch.setattr(store_base.subprocess, "run", fake_run)
    monkeypatch.chdir(tmp_path)
    assert current_git_rev() == "rev1"
    assert current_git_rev(tmp_path) == "rev1"
    assert calls == [str(tmp_path.resolve())]

    other = tmp_path / "other"
    other.mkdir()
    assert current_git_rev(other) == "rev2"
    assert current_git_rev(str(other)) == "rev2"
    assert calls == [str(tmp_path.resolve()), str(other.resolve())]
