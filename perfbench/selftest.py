"""Checks on the benchmark itself.

    python3 perfbench/selftest.py [--seed N] [--workload W ...]

Run from the root of a checkout.  For each workload it

* runs the traced unit twice on one seed and requires identical values for
  every metric that counts work (calls, cells, hits, layers, spills): these
  depend only on the seed, so a difference means the benchmark or the
  program stopped being deterministic;
* runs the untimed workload twice, briefly, and requires the same
  ``spill_cost_ratio`` (exact for a seed) and no failed operation.

It takes several minutes, so it is a script rather than part of the
repository's test suite.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from measure import ROOT
from outcome import PER_LAYER, WORKLOADS

#: per-layer metrics that must repeat exactly for one seed.
EXACT = tuple(name for name, unit in PER_LAYER.items() if unit == "count" and name != "service.polls_per_job") + (
    "store.hit_ratio",
)


def run(workload: str, seed: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS), choices=WORKLOADS)
    args = parser.parse_args(argv)
    problems = []
    for workload in args.workload:
        for trace in (1, 0):
            first, second = run(workload, args.seed, trace), run(workload, args.seed, trace)
            for result in (first, second):
                if result["failed"] or not result["correct"]:
                    problems.append(f"{workload} trace={trace}: {result['failed']} failed operation(s)")
            exact = EXACT if trace else ("spill_cost_ratio",)
            for name in exact:
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                if a != b:
                    problems.append(f"{workload} trace={trace}: {name} {a} != {b}")
            print(f"{workload} trace={trace}: checked {len(exact)} exact metric(s)", flush=True)
    for problem in problems:
        print("PROBLEM", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
