"""What a run reports: metrics, attempted and failed operations, and the printout."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from measure import ROOT, Metric

#: the benchmark's declaration at the root of the checkout: the workloads,
#: and every metric's name and unit.  A run reports exactly these metrics.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in DECLARED["workloads"])
#: end-to-end metrics: name -> unit (every workload reports all of them).
END_TO_END = {metric["name"]: metric["unit"] for metric in DECLARED["end_to_end"]}
#: per-layer metrics: name -> unit (the traced run reports all of them).
PER_LAYER = {metric["name"]: metric["unit"] for metric in DECLARED["per_layer"]}

#: the rewritten function's step budget over its source's.  Spill-everywhere
#: code at R=8 on a 1000-statement function ran 13.7 times the source's
#: steps, past the oracle's default factor of 8 (a phantom termination
#: mismatch); a real non-terminating rewrite still exhausts this budget.
ORACLE_AFTER_BUDGET = 64


@dataclass
class Outcome:
    """Operations attempted and failed, plus the metrics of one run."""

    metrics: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failures: Dict[str, str] = field(default_factory=dict)
    #: differential-oracle checks: functions checked, argument sets run,
    #: and argument sets that gave a verdict (the source finished in budget).
    oracle_functions: int = 0
    oracle_sets: int = 0
    oracle_verdicts: int = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def attempt(self, label: str, operation: Callable[[], Any]) -> Optional[Any]:
        """Run one operation; an exception marks it failed and returns None."""
        self.attempted += 1
        try:
            return operation()
        except Exception as error:  # noqa: BLE001 - every failure is counted, none stops the run
            self.fail(label, f"{type(error).__name__}: {error}")
            return None

    def fail(self, label: str, reason: str) -> None:
        """Mark operation ``label`` failed (once, whatever the number of reasons)."""
        self.failures.setdefault(label, reason)

    def check_oracle(self, label: str, source: str, rewritten: str) -> None:
        """Run the differential oracle (an independent interpreter) on
        rewritten IR text against its source.

        A mismatch fails ``label``, and so does a check without any verdict:
        the oracle skips every argument set on which the source exhausts its
        step budget, and a function skipped on all of them was not checked.
        """
        from repro.ir.parser import parse_function
        from repro.oracle.differential import diff_functions

        report = diff_functions(
            parse_function(source), parse_function(rewritten), after_budget_factor=ORACLE_AFTER_BUDGET
        )
        verdicts = len(report.pairs) - len(report.budget_exhausted)
        self.oracle_functions += 1
        self.oracle_sets += len(report.pairs)
        self.oracle_verdicts += verdicts
        if not report.ok:
            self.fail(label, f"oracle mismatch ({', '.join(report.kinds)})")
        elif not verdicts:
            self.fail(label, "oracle gave no verdict: the source exhausted the step budget on every argument set")

    def result_line(self, units: Dict[str, str]) -> str:
        """The final JSON line; a metric the run could not measure is an error."""
        missing = sorted(set(units) - set(self.metrics))
        if missing:
            raise RuntimeError(f"run produced no value for {missing}")
        return json.dumps({
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name].value, "unit": unit}
                for name, unit in units.items()
            },
        })

    def report_lines(self, units: Dict[str, str]) -> List[str]:
        lines = [f"{'metric':<26} {'value':>14} {'unit':<6} {'n':>5} {'raw':>14}  note"]
        for name in units:
            metric = self.metrics.get(name)
            if metric is None:
                continue
            raw = f"{metric.raw:.6g}" if metric.raw is not None else "-"
            lines.append(
                f"{name:<26} {metric.value:>14.6g} {units[name]:<6} {metric.count:>5} {raw:>14}  {metric.note}"
            )
        if self.oracle_functions:
            lines.append(
                f"oracle: {self.oracle_functions} functions checked, {self.oracle_verdicts} of "
                f"{self.oracle_sets} argument sets gave a verdict"
            )
        lines.append(f"attempted={self.attempted} failed={self.failed}")
        for label, reason in sorted(self.failures.items()):
            lines.append(f"FAILED {label}: {reason}")
        return lines


@dataclass
class TracedOutcome(Outcome):
    """A traced run: per-layer metrics from spans, and the trace file."""

    notes: List[str] = field(default_factory=list)

    def finish(self, snapshot: Any, *, scale: float, per: float, extra: Dict[str, float],
               overhead: float, trace_path: Path) -> None:
        """Turn the run's spans into the per-layer metrics and write the trace.

        ``per`` divides every span total and count: the traced work is
        ``per`` repetitions of the workload's unit.
        """
        import trace_layers
        from repro.telemetry.export import write_chrome

        values = trace_layers.layer_metrics(snapshot, PER_LAYER, scale=scale, per=per)
        values.update(extra)
        values["trace.overhead_ratio"] = overhead
        unattributed = trace_layers.unattributed_seconds(snapshot)
        values["trace.unattributed_s"] = unattributed * scale / per
        for name in PER_LAYER:
            self.metrics[name] = Metric(values[name], int(per))
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        write_chrome(snapshot, str(trace_path))
        op_time = sum(e.duration for e in snapshot.events if e.category == "op" and e.closed)
        self.notes.append(
            f"trace: {trace_path} ({len(snapshot.events)} spans); unattributed "
            f"{unattributed:.4f}s of {op_time:.4f}s in operations"
        )
        self.notes.append(f"{'span (self time)':<28} {'calls':>7} {'self s':>10}")
        calls: Dict[str, int] = {}
        for event in snapshot.events:
            calls[event.name] = calls.get(event.name, 0) + 1
        for name, seconds in sorted(trace_layers.self_times(snapshot).items(), key=lambda kv: -kv[1]):
            self.notes.append(f"{name:<28} {calls[name]:>7} {seconds:>10.4f}")
