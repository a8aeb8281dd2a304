"""Fuzz campaigns: shard differential checks over the process pool.

A campaign is ``count`` seeded programs × the deduplicated allocator set ×
the chosen targets × the chosen register counts, each run through
:func:`repro.oracle.harness.check_function`.  With ``jobs > 1`` the program
indices are sharded round-robin over the library's process pool
(:func:`~repro.telemetry.tracer.pool_map`, as
:meth:`repro.pipeline.engine.Pipeline.run_many` does), and workers
*regenerate* their programs from ``(seed, index)`` instead of unpickling
them, so a shard is a few integers on the wire.

Failures are minimized with :mod:`repro.oracle.minimizer` and written to the
regression corpus; the campaign itself is recorded as a
:class:`~repro.store.base.RunManifest` in the PR-2 experiment store, so
``repro-alloc oracle --store results.sqlite`` leaves the same provenance
trail as a sweep.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.oracle.differential import DEFAULT_ARGUMENT_SETS, DEFAULT_MAX_STEPS
from repro.oracle.generator import SIZE_PROFILES, generate_program
from repro.oracle.harness import (
    OracleCheck,
    canonical_allocators,
    check_program,
    make_failure_predicate,
)
from repro.oracle.minimizer import minimization_summary, minimize
from repro.oracle.regressions import save_regression
from repro.store.base import ExperimentStore, RunManifest, current_git_rev, utc_now_iso
from repro.targets import ALL_TARGETS
from repro.telemetry.tracer import Tracer, current_tracer, pool_map, use_tracer

#: default register counts: small enough to force spilling on every
#: generated program, so the spill-code path is actually exercised.
DEFAULT_REGISTER_COUNTS: Tuple[int, ...] = (4,)


@dataclass(frozen=True)
class CampaignConfig:
    """Everything one fuzz campaign needs (picklable)."""

    seed: int = 0
    count: int = 100
    size: str = "small"
    allocators: Tuple[str, ...] = ()  # empty = every registered allocator
    targets: Tuple[str, ...] = ()  # empty = all targets
    register_counts: Tuple[int, ...] = DEFAULT_REGISTER_COUNTS
    ssa: bool = True
    jobs: int = 1
    max_steps: int = DEFAULT_MAX_STEPS
    minimize_failures: bool = True
    #: cap on how many distinct failures get the (expensive) minimizer; the
    #: rest are still reported.
    max_minimized: int = 5
    #: derive machine-model constraints for this fraction of variables at
    #: the extract stage (``None`` = unconstrained, the historical shape).
    #: Restricts the allocator set to the constraint-aware family.
    constrain: Optional[float] = None

    def validate(self) -> "CampaignConfig":
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.constrain is not None and not 0.0 <= self.constrain <= 1.0:
            raise ValueError(f"constrain fraction {self.constrain} outside [0, 1]")
        if self.size not in SIZE_PROFILES:
            raise ValueError(
                f"unknown program size {self.size!r}; available: {sorted(SIZE_PROFILES)}"
            )
        for target in self.targets:
            if target not in ALL_TARGETS:
                raise ValueError(
                    f"unknown target {target!r}; available: {sorted(ALL_TARGETS)}"
                )
        for registers in self.register_counts:
            if registers < 1:
                raise ValueError(f"register counts must be >= 1, got {registers}")
        return self

    def resolved_targets(self) -> Tuple[str, ...]:
        return self.targets or tuple(sorted(ALL_TARGETS))

    def resolved_allocators(self) -> Dict[str, str]:
        resolved = canonical_allocators(self.allocators or None)
        if self.constrain is not None:
            from repro.alloc.base import get_allocator

            resolved = {
                canonical: registry_name
                for canonical, registry_name in resolved.items()
                if get_allocator(registry_name).supports_constraints
            }
            if not resolved:
                raise ValueError(
                    "constrained campaign selected no constraint-aware "
                    "allocator (NL/BL/FPL/BFPL/Optimal-BB)"
                )
        return resolved


@dataclass
class CampaignResult:
    """Aggregate outcome of one campaign."""

    config: CampaignConfig
    programs: int
    checks: int
    ok: int
    skipped: int
    failures: List[OracleCheck] = field(default_factory=list)
    #: paths of regression files written for minimized failures.
    regressions: List[Path] = field(default_factory=list)
    #: total spilled-variable count across ok checks (spill-coverage signal).
    spilled_total: int = 0
    wall_time_seconds: float = 0.0
    run_id: str = ""

    @property
    def passed(self) -> bool:
        """Whether the campaign found no bug."""
        return not self.failures

    def summary_lines(self) -> List[str]:
        """Human-readable campaign summary for the CLI."""
        lines = [
            f"oracle campaign: seed={self.config.seed} programs={self.programs} "
            f"size={self.config.size} checks={self.checks}",
            f"ok={self.ok} failures={len(self.failures)} skipped={self.skipped} "
            f"spilled_total={self.spilled_total} wall={self.wall_time_seconds:.2f}s",
        ]
        for failure in self.failures[:10]:
            lines.append(
                f"  FAIL {failure.program} allocator={failure.allocator} "
                f"target={failure.target} R={failure.registers} "
                f"[{','.join(failure.kinds)}]"
            )
        if len(self.failures) > 10:
            lines.append(f"  ... and {len(self.failures) - 10} more failures")
        for path in self.regressions:
            lines.append(f"  minimized reproducer: {path}")
        return lines


def _run_shard(
    config: CampaignConfig,
    indices: Sequence[int],
    combos: Sequence[Tuple[str, str, int]],
) -> Tuple[int, int, int, int, List[OracleCheck]]:
    """Check every (program × combo) of one shard.

    Returns ``(checks, ok, skipped, spilled_total, failures)`` — passing
    checks are aggregated to counters so a large campaign ships only its
    failures back to the parent.  Records into the ambient tracer (a pool
    worker's own when the parent is tracing) one ``oracle:program`` span
    per checked program and per-failure-kind counters.
    """
    tracer = current_tracer()
    checks = ok = skipped = spilled_total = 0
    failures: List[OracleCheck] = []
    for index in indices:
        function = generate_program(config.seed, index, size=config.size)
        with tracer.span("oracle:program", category="oracle", program=function.name) as span:
            program_failures = 0
            for check in check_program(
                function,
                combos,
                ssa=config.ssa,
                argument_sets=DEFAULT_ARGUMENT_SETS,
                max_steps=config.max_steps,
                constrain=config.constrain,
            ):
                checks += 1
                if check.status == "ok":
                    ok += 1
                    spilled_total += check.spilled
                elif check.status == "skipped":
                    skipped += 1
                else:
                    failures.append(check)
                    program_failures += 1
                    if tracer.enabled:
                        for kind in check.kinds:
                            tracer.count(f"oracle.kind.{kind}")
            span.set(failures=program_failures)
    if tracer.enabled:
        tracer.count("oracle.checks", checks)
        tracer.count("oracle.ok", ok)
        tracer.count("oracle.skipped", skipped)
        tracer.count("oracle.failures", len(failures))
    return checks, ok, skipped, spilled_total, failures


def _minimize_failures(
    config: CampaignConfig,
    failures: Sequence[OracleCheck],
    regressions_dir: Optional[Path],
) -> Tuple[List[Path], List[str]]:
    """Shrink up to ``max_minimized`` failures and write them to the corpus."""
    if regressions_dir is None or not config.minimize_failures:
        return [], []
    written: List[Path] = []
    logs: List[str] = []
    seen_programs: set = set()
    for failure in failures:
        if len(written) >= config.max_minimized:
            break
        if failure.program in seen_programs:
            continue  # one reproducer per program is enough
        seen_programs.add(failure.program)
        index = int(failure.program.rsplit("_", 1)[1])
        function = generate_program(config.seed, index, size=config.size)
        predicate = make_failure_predicate(
            failure.allocator,
            failure.target,
            failure.registers,
            failure.kinds,
            ssa=config.ssa,
            max_steps=config.max_steps,
            constrain=config.constrain,
        )
        try:
            minimized = minimize(function, predicate)
        except ValueError:
            # Not reproducible in-parent (e.g. depends on worker state):
            # keep the unminimized program as the reproducer.
            minimized = function
        logs.append(minimization_summary(function, minimized))
        written.append(
            save_regression(
                Path(regressions_dir),
                minimized,
                failure.allocator,
                failure.target,
                failure.registers,
                failure.kinds,
                note=(
                    f"captured by `repro-alloc oracle --seed {config.seed} "
                    f"--count {config.count}`"
                ),
                ssa=config.ssa,
                constrain=config.constrain,
            )
        )
    return written, logs


def run_campaign(
    config: CampaignConfig,
    store: Optional[ExperimentStore] = None,
    regressions_dir: Optional[Path] = None,
    tracer: Optional[Tracer] = None,
) -> CampaignResult:
    """Run one fuzz campaign; see the module docstring for the shape.

    ``tracer`` (default: the ambient tracer) collects one ``oracle:program``
    span per generated program plus ``oracle.*`` outcome counters; pool
    workers ship snapshots back, merged in shard order.
    """
    config.validate()
    if tracer is None:
        tracer = current_tracer()
    started = time.perf_counter()
    allocators = config.resolved_allocators()
    targets = config.resolved_targets()
    combos: List[Tuple[str, str, int]] = [
        (registry_name, target, registers)
        for _canonical, registry_name in sorted(allocators.items())
        for target in targets
        for registers in config.register_counts
    ]
    indices = list(range(config.count))

    checks = ok = skipped = spilled_total = 0
    failures: List[OracleCheck] = []
    with use_tracer(tracer), tracer.span(
        "oracle:campaign",
        category="oracle",
        seed=config.seed,
        programs=len(indices),
        jobs=config.jobs,
    ):
        if config.jobs <= 1 or len(indices) <= 1:
            checks, ok, skipped, spilled_total, failures = _run_shard(config, indices, combos)
        else:
            workers = min(config.jobs, len(indices))
            shards = [(config, indices[start::workers], combos) for start in range(workers)]
            # Completion order is fine: the failures are sorted below.
            for _, (shard_checks, shard_ok, shard_skipped, shard_spilled, shard_failures) in pool_map(
                _run_shard, shards, workers, "worker"
            ):
                checks += shard_checks
                ok += shard_ok
                skipped += shard_skipped
                spilled_total += shard_spilled
                failures.extend(shard_failures)

    failures.sort(key=lambda f: (f.program, f.allocator, f.target, f.registers))
    regressions, _logs = _minimize_failures(config, failures, regressions_dir)

    result = CampaignResult(
        config=config,
        programs=len(indices),
        checks=checks,
        ok=ok,
        skipped=skipped,
        failures=failures,
        regressions=regressions,
        spilled_total=spilled_total,
        wall_time_seconds=time.perf_counter() - started,
        run_id=uuid.uuid4().hex[:12],
    )

    if store is not None:
        store.add_manifest(
            RunManifest(
                run_id=result.run_id,
                created_at=utc_now_iso(),
                suite=f"oracle/{config.size}",
                target=",".join(targets),
                seed=config.seed,
                scale=None,
                config={
                    "kind": "oracle-campaign",
                    "count": config.count,
                    "size": config.size,
                    "allocators": sorted(allocators),
                    "targets": list(targets),
                    "register_counts": list(config.register_counts),
                    "ssa": config.ssa,
                    "constrain": config.constrain,
                    "jobs": config.jobs,
                    "failures": len(failures),
                    "skipped": skipped,
                },
                git_rev=current_git_rev(),
                instances=len(indices),
                cells_total=checks,
                cells_computed=checks - skipped,
                cells_cached=0,
                wall_time_seconds=result.wall_time_seconds,
            )
        )
        store.flush()
    return result
