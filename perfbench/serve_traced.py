"""Start ``repro-alloc serve`` with per-layer spans; write them when it stops.

    python3 perfbench/serve_traced.py --base B --trace-out PATH -- serve --store ...

Installs the same span wrappers as the benchmark's traced runs, then runs
``repro.cli.main`` with the arguments after ``--``.  ``serve`` returns after
SIGTERM (it drains its workers first); the spans of every thread are then
written to ``PATH`` as a JSONL trace.  ``B`` is the benchmark's
``perf_counter`` base, so server spans share the client's timeline.
"""

from __future__ import annotations

import argparse
import sys

from measure import SRC


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=float, required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    sys.path.insert(0, str(SRC))

    from repro.cli import main as cli_main
    from repro.telemetry.export import write_jsonl

    import trace_layers

    recorder = trace_layers.install(base=args.base)
    try:
        return cli_main(command)
    finally:
        write_jsonl(recorder.snapshot(), args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
