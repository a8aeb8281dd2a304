"""Persistent experiment store: content-addressed caching of sweep results.

The paper's evaluation is a large sweep of allocators × register counts over
corpora of interference graphs.  This package persists every computed cell so
the sweep is *resumable* (an interrupted run restarts where it died) and
*incremental* (an unchanged corpus re-sweeps with zero allocator calls),
decoupling the expensive ``sweep`` from the cheap ``aggregate``/``report``
stages of the pipeline (see ``repro-alloc sweep / aggregate / report``).

Cache keys are ``(problem_digest, allocator, allocator_version, R)`` — see
:mod:`repro.store.keys` for the digest contract and
:attr:`repro.alloc.base.Allocator.version` for when a version bump is
required.  Cells persist in one SQLite file (:mod:`repro.store.sqlite`).
"""

from repro.errors import StoreFormatError
from repro.store.base import (
    ExperimentStore,
    RunManifest,
    current_git_rev,
    open_store,
    record_from_dict,
    record_to_dict,
)
from repro.store.keys import CellKey, problem_digest
from repro.store.merge import MergeReport, merge_batches
from repro.store.sqlite import SqliteExperimentStore

__all__ = [
    "CellKey",
    "ExperimentStore",
    "MergeReport",
    "RunManifest",
    "SqliteExperimentStore",
    "StoreFormatError",
    "current_git_rev",
    "merge_batches",
    "open_store",
    "problem_digest",
    "record_from_dict",
    "record_to_dict",
]
