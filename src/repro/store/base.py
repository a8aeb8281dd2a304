"""Experiment-store interface, run manifests and record serialization.

An :class:`ExperimentStore` is a durable map from :class:`~repro.store.keys.CellKey`
to one :class:`~repro.experiments.runner.InstanceRecord`, plus an append-only
log of :class:`RunManifest` provenance entries (one per sweep), persisted in
one SQLite file by :class:`~repro.store.sqlite.SqliteExperimentStore`.

Stores are cheap to reopen: an interrupted sweep leaves every flushed cell
behind, and the next ``run_experiment(..., store=..., resume=True)`` computes
only the missing ones.
"""

from __future__ import annotations

import abc
import dataclasses
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.store.keys import CellKey
from repro.telemetry.tracer import current_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.experiments.runner import InstanceRecord


# ---------------------------------------------------------------------- #
# record (de)serialization
# ---------------------------------------------------------------------- #
def record_to_dict(record: "InstanceRecord") -> Dict[str, Any]:
    """Convert an :class:`InstanceRecord` to a JSON-serializable dict."""
    return dataclasses.asdict(record)


def record_from_dict(data: Dict[str, Any]) -> "InstanceRecord":
    """Reconstruct an :class:`InstanceRecord` from :func:`record_to_dict`."""
    from repro.experiments.runner import InstanceRecord

    return InstanceRecord(
        instance=str(data["instance"]),
        program=str(data["program"]),
        allocator=str(data["allocator"]),
        num_registers=int(data["num_registers"]),
        spill_cost=float(data["spill_cost"]),
        num_spilled=int(data["num_spilled"]),
        num_variables=int(data["num_variables"]),
        max_pressure=int(data["max_pressure"]),
        runtime_seconds=float(data["runtime_seconds"]),
        stats=dict(data.get("stats") or {}),
        spilled=(
            [str(name) for name in data["spilled"]]
            if data.get("spilled") is not None
            else None
        ),
    )


# ---------------------------------------------------------------------- #
# run manifests
# ---------------------------------------------------------------------- #
@dataclasses.dataclass
class RunManifest:
    """Provenance of one sweep: what ran, over what, and how much was cached."""

    run_id: str
    created_at: str
    suite: Optional[str]
    target: Optional[str]
    seed: Optional[int]
    scale: Optional[float]
    config: Dict[str, Any]
    git_rev: str
    instances: int
    cells_total: int
    cells_computed: int
    cells_cached: int
    wall_time_seconds: float
    #: per-allocator cache split, ``{allocator: {"hit": n, "miss": m}}``
    #: (empty for manifests written before this field existed — their
    #: run-level ``cells_cached``/``cells_computed`` remain authoritative).
    cache_by_allocator: Dict[str, Dict[str, int]] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})

    @property
    def hit_rate(self) -> float:
        """Fraction of cells served from the store (1.0 for an empty sweep)."""
        return self.cells_cached / self.cells_total if self.cells_total else 1.0


def utc_now_iso() -> str:
    """Current UTC time in ISO-8601 form, for manifests and cell stamps."""
    return datetime.now(timezone.utc).isoformat()


def current_git_rev(cwd: Union[str, Path, None] = None) -> str:
    """Short git revision of ``cwd`` (or the process cwd); ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(cwd) if cwd else None,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


# ---------------------------------------------------------------------- #
# store interface
# ---------------------------------------------------------------------- #
class ExperimentStore(abc.ABC):
    """Durable, content-addressed map of experiment cells plus run manifests."""

    #: backend identifier, the ``<backend>`` of the ``store.<backend>.*`` counters.
    backend: str = "abstract"
    #: the file the store persists to; ``Pipeline.run_many(jobs>1)`` workers
    #: each open their own connection to it.
    path: Path

    # -- cells --------------------------------------------------------- #
    def get_many(self, keys: Iterable[CellKey]) -> Dict[CellKey, "InstanceRecord"]:
        """Return the cached records for the subset of ``keys`` present.

        Lookups are counted into the ambient tracer (no-op by default) as
        ``store.<backend>.hit`` / ``store.<backend>.miss`` — one count per
        key.
        """
        key_list = list(keys)
        found = self._get_many(key_list)
        tracer = current_tracer()
        if tracer.enabled and key_list:
            tracer.count(f"store.{self.backend}.hit", len(found))
            tracer.count(f"store.{self.backend}.miss", len(key_list) - len(found))
        return found

    def put_many(self, items: Iterable[Tuple[CellKey, "InstanceRecord"]]) -> None:
        """Insert (or overwrite) cells; durable once :meth:`flush` returns.

        Writes are counted as ``store.<backend>.put`` (one per cell).
        """
        item_list = list(items)
        self._put_many(item_list)
        tracer = current_tracer()
        if tracer.enabled and item_list:
            tracer.count(f"store.{self.backend}.put", len(item_list))

    @abc.abstractmethod
    def _get_many(self, keys: List[CellKey]) -> Dict[CellKey, "InstanceRecord"]:
        """Backend lookup (no telemetry; the public wrapper counts)."""

    @abc.abstractmethod
    def _put_many(self, items: List[Tuple[CellKey, "InstanceRecord"]]) -> None:
        """Backend write (no telemetry; the public wrapper counts)."""

    @abc.abstractmethod
    def items(self) -> List[Tuple[CellKey, "InstanceRecord"]]:
        """All cells in a deterministic order (instance, R, allocator, key)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of cached cells."""

    def get(self, key: CellKey) -> Optional["InstanceRecord"]:
        """Return one cached record, or ``None``."""
        return self.get_many([key]).get(key)

    def put(self, key: CellKey, record: "InstanceRecord") -> None:
        """Insert (or overwrite) one cell."""
        self.put_many([(key, record)])

    def __contains__(self, key: CellKey) -> bool:
        return bool(self.get_many([key]))

    def keys(self) -> List[CellKey]:
        """All cell keys, in :meth:`items` order."""
        return [key for key, _ in self.items()]

    def records(self) -> List["InstanceRecord"]:
        """All cached records, in :meth:`items` order — the aggregation input."""
        return [record for _, record in self.items()]

    # -- manifests ----------------------------------------------------- #
    @abc.abstractmethod
    def add_manifest(self, manifest: RunManifest) -> None:
        """Append one run manifest."""

    @abc.abstractmethod
    def manifests(self) -> List[RunManifest]:
        """All manifests in insertion order."""

    # -- lifecycle ----------------------------------------------------- #
    def flush(self) -> None:
        """Make every prior write durable (counted as ``store.<backend>.flush``)."""
        self._flush()
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count(f"store.{self.backend}.flush")

    @abc.abstractmethod
    def _flush(self) -> None:
        """Backend durability point (no telemetry; the public wrapper counts)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Flush and release the backing resources."""

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _items_sort_key(pair: Tuple[CellKey, "InstanceRecord"]) -> Tuple:
    """Deterministic total order of :meth:`ExperimentStore.items`."""
    key, record = pair
    return (
        record.instance,
        record.program,
        key.num_registers,
        key.allocator,
        key.allocator_version,
        key.problem_digest,
    )


def open_store(path: Union[str, Path]) -> ExperimentStore:
    """Open (creating if needed) the SQLite experiment store at ``path``.

    Raises :class:`~repro.errors.StoreFormatError`, naming ``path``, when
    it cannot be opened as one (a directory, a file that is not a SQLite
    database).
    """
    from repro.store.sqlite import SqliteExperimentStore

    return SqliteExperimentStore(path)
