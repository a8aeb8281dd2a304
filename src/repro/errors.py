"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so a
caller embedding the allocator in a larger compiler can catch a single base
class.  Sub-classes are grouped by subsystem (IR, graph, allocation).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class IRError(ReproError):
    """Malformed or inconsistent intermediate representation."""


class ParseError(IRError):
    """The textual IR could not be parsed.

    Carries the full source location of the failure: the 1-based ``line``,
    and — when the parser has entered a function or block by the time the
    error surfaces — the enclosing ``function`` name and ``block`` label.
    ``raw_message`` keeps the location-free description so tools rendering
    their own locations (e.g. the ``check`` CLI's ``PARSE001`` diagnostics)
    need not re-parse the formatted message.
    """

    def __init__(
        self,
        message: str,
        line: int | None = None,
        function: str | None = None,
        block: str | None = None,
    ) -> None:
        self.raw_message = message
        self.line = line
        self.function = function
        self.block = block
        where = []
        if function is not None:
            where.append(f"function {function!r}")
        if block is not None:
            where.append(f"block {block!r}")
        if line is not None:
            prefix = f"line {line}"
            if where:
                prefix += " (" + ", ".join(where) + ")"
            message = f"{prefix}: {message}"
        elif where:
            message = f"{', '.join(where)}: {message}"
        super().__init__(message)


class VerificationError(IRError):
    """The IR verifier found a structural violation (e.g. use before def)."""


class PhiEdgeError(IRError):
    """A φ-function names an incoming label that is not an actual CFG
    predecessor of its block (a stale edge left behind by CFG surgery).

    Raised by the liveness analyses instead of silently recording (or
    silently dropping) the φ operand, which would corrupt live sets and
    spill costs downstream."""


class GraphError(ReproError):
    """Invalid operation on a graph (unknown vertex, duplicate edge, ...)."""


class NotChordalError(GraphError):
    """An algorithm requiring a chordal graph was given a non-chordal one."""


class PipelineError(ReproError):
    """Invalid pipeline specification or stage wiring (unknown stage,
    missing stage input, malformed config)."""


class AllocationError(ReproError):
    """A register allocation request could not be satisfied."""


class InvalidAllocationError(AllocationError):
    """An allocation result violates the register constraint."""


class SolverUnavailableError(AllocationError):
    """The optional ILP solver backend (scipy) is not installed."""


class SearchBudgetError(AllocationError):
    """An exact solver exceeded its search budget on a too-hard instance.

    A documented capacity limit, not a wrong answer: callers (and the
    correctness oracle) treat it as "this backend cannot decide the
    instance", distinct from a genuine allocation bug."""


class OracleError(ReproError):
    """The differential correctness oracle observed a semantic difference
    between a program and its spill-rewritten form (a miscompile)."""


class TelemetryError(ReproError):
    """A trace or bench-history artifact is malformed (unknown format tag,
    corrupt JSONL record, non-numeric metric) and cannot be loaded."""


class ServiceError(ReproError):
    """An allocation-service request is invalid or a service operation
    failed (malformed submission, unreachable server).  The HTTP front end
    renders these as 4xx responses; the CLI as clean exit-1 messages."""


class StoreFormatError(ReproError):
    """A path cannot be opened as a SQLite experiment store (a directory,
    a file that is not a SQLite database, an unwritable location).

    Raised only while a store is being opened, and its message names the
    path; SQLite errors on an open store (a locked database mid-sweep)
    propagate as :class:`sqlite3.Error`."""


class MergeConflictError(ReproError):
    """Two stores being merged disagree about the same cache cell.

    Raised by :func:`repro.store.merge.merge_batches` when a source shard
    carries a cell key the destination already holds with a *different*
    deterministic payload.  Identical payloads dedupe silently; a genuine
    divergence means the shards were produced by incompatible code (or a
    store was corrupted), and fusing them would silently poison every
    aggregate built on top — so the merge refuses.  ``key`` carries the
    conflicting :class:`~repro.store.keys.CellKey`.
    """

    def __init__(self, message: str, *, key: object = None) -> None:
        super().__init__(message)
        self.key = key


class QueueError(ServiceError):
    """An invalid job-queue transition (completing a job that is not
    running, failing an unknown job id, ...).  Indicates a worker raced a
    state change it did not own — the queue refuses rather than corrupting
    the job's lifecycle."""
