"""CLI end-to-end for distributed sweeps: the PR's acceptance criteria.

* ``reproduce --figure N --backend service`` drives a fleet of running
  services and prints a figure **byte-identical** to the local backend's;
* a warm store reproduces with zero cells computed (no allocator calls);
* ``sweep --backend service`` and ``merge-batches`` fuse shard stores into
  an aggregate the report stage accepts;
* ``sweep --corpus N`` streams a generated corpus through the store;
* ``submit --batch`` posts a manifest of submissions as one batch job,
  carrying each graph file it loads once.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.cli import _batch_body, main
from repro.service.server import AllocationService
from repro.store import open_store

FIGURE = "figure9"
SMALL = ["--scale", "0.1", "--max-instances", "3"]

IR = """\
func @f(%a, %b) {
entry:
  %t = add %a, %b
  ret %t
}
"""


def _reproduce(store, capsys, *extra):
    argv = ["reproduce", "--figure", FIGURE, "--store", str(store), *SMALL, *extra]
    assert main(argv) == 0
    return capsys.readouterr().out


def test_reproduce_via_service_fleet_is_byte_identical_to_local(tmp_path, capsys):
    local_figure = _reproduce(tmp_path / "local.sqlite", capsys)

    svc1 = AllocationService(tmp_path / "shard1.sqlite", workers=2, port=0).start()
    svc2 = AllocationService(tmp_path / "shard2.sqlite", workers=2, port=0).start()
    try:
        service_figure = _reproduce(
            tmp_path / "fleet.sqlite",
            capsys,
            "--backend", "service",
            "--endpoints", f"{svc1.url},{svc2.url}",
            "--batch-size", "16",
        )
    finally:
        svc1.shutdown()
        svc2.shutdown()
    assert service_figure == local_figure

    # Warm rerun: the fleet is gone, but every cell is cached locally — the
    # reproduce completes without executing (or even submitting) anything.
    warm_figure = _reproduce(tmp_path / "fleet.sqlite", capsys, "--backend", "local")
    assert warm_figure == local_figure
    with open_store(tmp_path / "fleet.sqlite") as store:
        manifest = store.manifests()[-1]
    assert manifest.cells_computed == 0
    assert manifest.cells_cached == manifest.cells_total


def test_reproduce_service_without_endpoints_is_a_clean_failure(tmp_path, capsys):
    argv = [
        "reproduce", "--figure", FIGURE, "--store", str(tmp_path / "s.sqlite"),
        "--backend", "service",
    ]
    assert main(argv) == 1
    assert "--endpoints" in capsys.readouterr().err


def test_sweep_service_shards_merge_into_a_reportable_store(tmp_path, capsys):
    svc = AllocationService(tmp_path / "fleet.sqlite", workers=2, port=0).start()
    try:
        assert main([
            "sweep", "--store", str(tmp_path / "shard-a.sqlite"),
            "--figure", FIGURE, *SMALL,
            "--backend", "service", "--endpoints", svc.url, "--batch-size", "16",
        ]) == 0
    finally:
        svc.shutdown()
    assert main([
        "sweep", "--store", str(tmp_path / "shard-b.sqlite"), "--figure", FIGURE, *SMALL,
    ]) == 0
    capsys.readouterr()

    assert main([
        "merge-batches", "--into", str(tmp_path / "merged.sqlite"),
        str(tmp_path / "shard-a.sqlite"), str(tmp_path / "shard-b.sqlite"),
    ]) == 0
    out = capsys.readouterr().out
    assert "merged 2 shard(s)" in out
    # The shards swept the same cells: the second one dedupes entirely.
    assert "added=0" not in out.split("deduped=")[0]

    assert main([
        "report", FIGURE, "--store", str(tmp_path / "merged.sqlite"), "--format", "ascii",
    ]) == 0


def test_merge_batches_missing_shard_is_a_clean_failure(tmp_path, capsys):
    assert main([
        "merge-batches", "--into", str(tmp_path / "m.sqlite"),
        str(tmp_path / "nope.sqlite"),
    ]) == 1
    assert "not found" in capsys.readouterr().err


def test_sweep_corpus_streams_through_the_store(tmp_path, capsys):
    store_path = tmp_path / "corpus.sqlite"
    assert main([
        "sweep", "--store", str(store_path),
        "--corpus", "5", "--allocators", "NL", "--registers", "4",
        "--no-verify", "--window", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "instances=5" in out
    with open_store(store_path) as store:
        assert len(store) == 5
        manifest = store.manifests()[-1]
    assert manifest.suite == "corpus"
    assert manifest.config["window"] == 2


def test_sweep_corpus_needs_allocators_and_registers(tmp_path, capsys):
    assert main([
        "sweep", "--store", str(tmp_path / "s.sqlite"), "--corpus", "3",
    ]) == 1
    assert "--allocators" in capsys.readouterr().err


def test_submit_batch_manifest_over_http(tmp_path, capsys):
    (tmp_path / "g.ir").write_text(IR)
    manifest = {
        "name": "cli-batch",
        "client": "cli",
        "jobs": [
            {"input": "g.ir", "allocator": "NL", "registers": 4},
            {"ir": IR, "name": "inline", "allocator": "BFPL", "registers": 2},
        ],
    }
    manifest_path = tmp_path / "batch.json"
    manifest_path.write_text(json.dumps(manifest))

    service = AllocationService(tmp_path / "cells.sqlite", workers=1, port=0).start()
    try:
        assert main([
            "submit", "--url", service.url, "--batch", str(manifest_path), "--wait",
        ]) == 0
        out = capsys.readouterr().out
        job = json.loads(out)
        assert job["state"] == "done"
        assert job["client"] == "cli"
        assert [m["name"] for m in job["result"]["jobs"]] == ["g", "inline"]
    finally:
        service.shutdown()


def test_submit_batch_manifest_sends_each_graph_file_once(tmp_path, capsys):
    from repro.graphs.generators import random_chordal_graph
    from repro.graphs.io import dump_graph

    dump_graph(random_chordal_graph(12, rng=4), tmp_path / "g.json")
    manifest = {
        "jobs": [
            {"input": "g.json", "allocator": "NL", "registers": 2},
            {"input": "g.json", "allocator": "NL", "registers": 3},
            {"input": "g.json", "name": "renamed", "allocator": "NL", "registers": 2},
            {"ir": IR, "name": "inline", "allocator": "NL", "registers": 2},
        ],
    }
    manifest_path = tmp_path / "batch.json"
    manifest_path.write_text(json.dumps(manifest))

    # One table entry per (file, name); the IR member has no graph.
    body = _batch_body(argparse.Namespace(batch=str(manifest_path), client=""))
    assert [graph["name"] for graph in body["graphs"]] == ["g", "renamed"]
    assert [m.get("graph") for m in body["jobs"]] == [0, 0, 1, None]

    service = AllocationService(tmp_path / "cells.sqlite", workers=1, port=0).start()
    try:
        assert main(["submit", "--url", service.url, "--batch", str(manifest_path), "--wait"]) == 0
        job = json.loads(capsys.readouterr().out)
    finally:
        service.shutdown()
    assert job["state"] == "done"
    assert [m["name"] for m in job["result"]["jobs"]] == ["g", "g", "renamed", "inline"]


def test_submit_batch_manifest_entry_takes_no_graph_index(tmp_path, capsys):
    manifest_path = tmp_path / "batch.json"
    manifest_path.write_text(json.dumps({"jobs": [{"graph": 0, "registers": 2}]}))
    assert main(["submit", "--url", "http://127.0.0.1:1", "--batch", str(manifest_path)]) == 1
    assert 'batch manifest entry 0: "graph" must be a graph-JSON object' in capsys.readouterr().err


def test_submit_requires_exactly_one_of_input_and_batch(tmp_path):
    (tmp_path / "f.ir").write_text(IR)
    (tmp_path / "b.json").write_text('{"jobs": []}')
    with pytest.raises(SystemExit) as excinfo:
        main([
            "submit", "--input", str(tmp_path / "f.ir"), "--batch", str(tmp_path / "b.json"),
        ])
    assert excinfo.value.code == 2


def test_submit_batch_bad_manifest_is_a_clean_failure(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["submit", "--url", "http://127.0.0.1:1", "--batch", str(bad)]) == 1
    assert "invalid batch manifest" in capsys.readouterr().err
