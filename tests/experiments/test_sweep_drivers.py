"""The sweep drivers and the sweep pool are one loop.

``run_experiment`` (serial or ``jobs=2``) and ``run_streamed_experiment``
(any window) select the same instances and must leave the same cells and
the same manifest counts in a store.  A traced ``jobs=2`` sweep puts each
planned instance on lane ``instance-N`` in plan order, with the spans and
counters of the serial sweep.
"""

from repro.alloc.problem import AllocationProblem
from repro.experiments.runner import ExperimentConfig, run_experiment, run_streamed_experiment
from repro.graphs.generators import random_chordal_graph
from repro.store import open_store
from repro.store.base import record_to_dict
from repro.telemetry import Tracer, use_tracer

ALLOCATORS = ["NL", "BFPL", "GC"]
REGISTERS = [2, 4]
MAX_INSTANCES = 4


def _problems():
    return [
        AllocationProblem(
            graph=random_chordal_graph(3 + 2 * seed, rng=seed), num_registers=4, name=f"q{seed}"
        )
        for seed in range(9)
    ]


def _config(**overrides):
    defaults = dict(allocators=ALLOCATORS, register_counts=REGISTERS, verify=False, skip_trivial=True)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _sweep_into(path, sweep):
    """Warm the store with part of the grid, run ``sweep(store)``, and
    return the store's cells (minus runtime) and the last manifest's counts."""
    with open_store(path) as store:
        run_experiment(_problems()[:3], _config(allocators=["NL"], skip_trivial=False), store=store)
        sweep(store)
        manifest = store.manifests()[-1]
        cells = {}
        for key, record in store.items():
            payload = record_to_dict(record)
            payload.pop("runtime_seconds")
            cells[key] = payload
    counts = (manifest.instances, manifest.cells_cached, manifest.cells_computed, manifest.cache_by_allocator)
    return cells, counts


def test_sweep_drivers_and_pool_leave_identical_stores(tmp_path):
    problems = _problems()
    # q0, q2 and q3 never exceed two registers (skip_trivial drops them);
    # max_instances stops the sweep before q7 and q8.
    selected = [p.name for p in problems if p.max_pressure > min(REGISTERS)][:MAX_INSTANCES]
    assert selected == ["q1", "q4", "q5", "q6"]

    reference = _sweep_into(
        tmp_path / "experiment.sqlite",
        lambda store: run_experiment(problems, _config(), max_instances=MAX_INSTANCES, store=store),
    )
    cells, (instances, cached, computed, split) = reference
    assert (instances, cached, computed) == (4, 2, 22)
    assert split["NL"] == {"hit": 2, "miss": 6}
    assert {record["instance"] for record in cells.values()} == {"q0", "q1", "q2", *selected}

    for window in (1, 2, len(problems)):
        streamed = _sweep_into(
            tmp_path / f"window{window}.sqlite",
            lambda store: run_streamed_experiment(
                iter(problems), _config(), store, window=window, max_instances=MAX_INSTANCES
            ),
        )
        assert streamed == reference, window

    pooled = _sweep_into(
        tmp_path / "jobs2.sqlite",
        lambda store: run_experiment(problems, _config(jobs=2), max_instances=MAX_INSTANCES, store=store),
    )
    assert pooled == reference


def test_traced_pool_sweep_puts_instances_on_lanes_in_plan_order(tmp_path):
    problems = _problems()

    def traced(jobs):
        tracer = Tracer()
        with use_tracer(tracer), open_store(tmp_path / f"jobs{jobs}.sqlite") as store:
            run_experiment(problems, _config(jobs=jobs, skip_trivial=False), store=store)
        return tracer.snapshot()

    serial, pooled = traced(1), traced(2)
    assert serial.lanes == {0: "main"}
    assert pooled.lanes == {0: "main", **{n + 1: f"instance-{n}" for n in range(len(problems))}}
    for lane, problem in enumerate(problems, start=1):
        cells = [e for e in pooled.events if e.lane == lane and e.name == "sweep:cell"]
        assert [(e.attrs["instance"], e.attrs["registers"], e.attrs["allocator"]) for e in cells] == [
            (problem.name, r, name) for r in REGISTERS for name in ALLOCATORS
        ]
    assert sorted(serial.span_names()) == sorted(pooled.span_names())
    assert serial.counters == pooled.counters
