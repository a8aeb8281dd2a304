"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compile_large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload's fixed traced unit and reports per-layer metrics, writing a
Perfetto-loadable trace under ``perfbench/_out/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Workloads, metrics and the reasons behind them
are described in ``perfbench/DESIGN.md``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

from measure import OUT_DIR, SRC
from outcome import END_TO_END, PER_LAYER, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for the benchmark and every process it starts: each vCPU of a
    # shared machine drifts on its own, and the reference loop can only
    # stand for the CPU it ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    workload = __import__(args.workload)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.trace:
            outcome = workload.traced(args.seed, OUT_DIR, scratch)
            units = PER_LAYER
        else:
            outcome = workload.run(args.seed, args.seconds, scratch)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in getattr(outcome, "notes", []):
        print(line)
    for line in outcome.report_lines(units):
        print(line)
    print(outcome.result_line(units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
