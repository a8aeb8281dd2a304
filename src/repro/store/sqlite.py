"""SQLite persistence of the experiment store.

One file, two tables:

* ``cells`` — primary key = the four cache-key columns, payload = the
  serialized :class:`~repro.experiments.runner.InstanceRecord` as JSON.
  ``INSERT OR REPLACE`` gives last-write-wins semantics.
* ``manifests`` — append-only provenance log, one row per sweep.

Every :meth:`put_many`/:meth:`add_manifest` commits, so cells written by an
interrupted sweep survive the crash (WAL journaling keeps the commits cheap).
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Tuple, Union

from repro.errors import StoreFormatError
from repro.store.base import (
    ExperimentStore,
    RunManifest,
    _items_sort_key,
    record_from_dict,
    record_to_dict,
    utc_now_iso,
)
from repro.store.keys import CellKey

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import InstanceRecord

_SCHEMA = """
CREATE TABLE IF NOT EXISTS cells (
    problem_digest    TEXT    NOT NULL,
    allocator         TEXT    NOT NULL,
    allocator_version TEXT    NOT NULL,
    num_registers     INTEGER NOT NULL,
    record            TEXT    NOT NULL,
    created_at        TEXT    NOT NULL,
    PRIMARY KEY (problem_digest, allocator, allocator_version, num_registers)
);
CREATE TABLE IF NOT EXISTS manifests (
    rowid_order INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id      TEXT NOT NULL,
    created_at  TEXT NOT NULL,
    manifest    TEXT NOT NULL
);
"""


class SqliteExperimentStore(ExperimentStore):
    """Experiment store persisted in a single SQLite database file."""

    backend = "sqlite"

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        conn = None
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(str(self.path))
            conn.execute("PRAGMA journal_mode=WAL")
            conn.executescript(_SCHEMA)
            conn.commit()
        except (OSError, sqlite3.Error) as error:
            if conn is not None:
                conn.close()
            raise StoreFormatError(f"cannot use store {self.path}: {error}") from error
        self._conn = conn

    # -- cells --------------------------------------------------------- #
    def _get_many(self, keys: List[CellKey]) -> Dict[CellKey, "InstanceRecord"]:
        found: Dict[CellKey, "InstanceRecord"] = {}
        cursor = self._conn.cursor()
        for key in keys:
            row = cursor.execute(
                "SELECT record FROM cells WHERE problem_digest=? AND allocator=?"
                " AND allocator_version=? AND num_registers=?",
                (key.problem_digest, key.allocator, key.allocator_version, key.num_registers),
            ).fetchone()
            if row is not None:
                found[key] = record_from_dict(json.loads(row[0]))
        return found

    def _put_many(self, items: List[Tuple[CellKey, "InstanceRecord"]]) -> None:
        stamp = utc_now_iso()
        rows = [
            (
                key.problem_digest,
                key.allocator,
                key.allocator_version,
                key.num_registers,
                json.dumps(record_to_dict(record), sort_keys=True),
                stamp,
            )
            for key, record in items
        ]
        if not rows:
            return
        self._conn.executemany(
            "INSERT OR REPLACE INTO cells"
            " (problem_digest, allocator, allocator_version, num_registers, record, created_at)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            rows,
        )
        self._conn.commit()

    def items(self) -> List[Tuple[CellKey, "InstanceRecord"]]:
        rows = self._conn.execute(
            "SELECT problem_digest, allocator, allocator_version, num_registers, record FROM cells"
        ).fetchall()
        pairs = [
            (CellKey(digest, allocator, version, registers), record_from_dict(json.loads(blob)))
            for digest, allocator, version, registers, blob in rows
        ]
        pairs.sort(key=_items_sort_key)
        return pairs

    def __len__(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM cells").fetchone()[0])

    # -- manifests ----------------------------------------------------- #
    def add_manifest(self, manifest: RunManifest) -> None:
        self._conn.execute(
            "INSERT INTO manifests (run_id, created_at, manifest) VALUES (?, ?, ?)",
            (manifest.run_id, manifest.created_at, json.dumps(manifest.to_dict(), sort_keys=True)),
        )
        self._conn.commit()

    def manifests(self) -> List[RunManifest]:
        rows = self._conn.execute(
            "SELECT manifest FROM manifests ORDER BY rowid_order"
        ).fetchall()
        return [RunManifest.from_dict(json.loads(blob)) for (blob,) in rows]

    # -- lifecycle ----------------------------------------------------- #
    def _flush(self) -> None:
        self._conn.commit()

    def close(self) -> None:
        self._conn.commit()
        self._conn.close()
