"""Engine behavior: stage wiring, context evolution, batching, extensions."""

import dataclasses

import pytest

from repro.errors import PipelineError
from repro.pipeline import Pass, Pipeline, PipelineContext, register_pass
from repro.workloads.programs import GeneratorProfile, generate_function


def _functions(count=4, statements=25, accumulators=5):
    return [
        generate_function(f"fn{i}", GeneratorProfile(statements=statements, accumulators=accumulators), rng=i)
        for i in range(count)
    ]


def test_run_fills_every_context_field():
    fn = _functions(1)[0]
    ctx = Pipeline.from_spec("NL", target="st231", registers=4).run(fn)
    assert ctx.function is fn
    assert ctx.lowered is not None and ctx.liveness is not None
    assert ctx.graph is not None and ctx.intervals is not None
    assert ctx.problem is not None and ctx.result is not None
    assert ctx.assignment is not None
    assert ctx.rewritten is not None
    assert ctx.report is not None and ctx.report.feasible
    assert ctx.stages_run == (
        "liveness", "interference", "extract", "allocate", "assign",
        "spill_code", "loadstore_opt", "verify",
    )
    assert all(seconds >= 0.0 for seconds in ctx.timings.values())
    assert ctx.stage_stats["allocate"]["allocator"] == "NL"
    assert ctx.stage_stats["allocate"]["cache"] == "off"


def test_contexts_are_immutable():
    ctx = PipelineContext(name="x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.name = "y"
    evolved = ctx.evolve(name="y")
    assert ctx.name == "x" and evolved.name == "y"


def test_run_problem_skips_front_end_and_rewriting_stages():
    front_end = Pipeline.from_spec(target="st231", stages="liveness,interference,extract")
    problem = front_end.run(_functions(1)[0]).problem.with_registers(4)
    ctx = Pipeline.from_spec("NL", registers=4).run_problem(problem)
    assert ctx.result is not None and ctx.report is not None
    assert ctx.rewritten is None
    skipped = {s for s, stats in ctx.stage_stats.items() if "skipped" in stats}
    assert skipped == {"liveness", "interference", "extract", "spill_code", "loadstore_opt"}


def test_verify_stage_rejects_interfering_variables_in_one_register():
    from repro.alloc.problem import AllocationProblem
    from repro.alloc.result import AllocationResult
    from repro.errors import InvalidAllocationError
    from repro.graphs.graph import Graph

    graph = Graph()
    graph.add_edge("a", "b")
    graph.add_edge("b", "c")
    problem = AllocationProblem(graph=graph, num_registers=2, name="shared")
    result = AllocationResult.from_sets(
        allocator="test", num_registers=2, allocated=["a", "b"], spilled=["c"], spill_cost=1.0
    )
    context = PipelineContext(problem=problem, result=result, assignment={"a": "R0", "b": "R0"})
    with pytest.raises(InvalidAllocationError) as excinfo:
        Pipeline.from_spec("verify").run_context(context)
    # ALLOC007, raised with the diagnostic's bare message.
    assert str(excinfo.value) == "interfering variables a and b share register 'R0'"


def test_no_opt_spec_produces_naive_spill_code():
    fn = _functions(1, statements=40, accumulators=8)[0]
    full = Pipeline.from_spec("NL", registers=3).run(fn)
    naive = Pipeline.from_spec("NL", registers=3, opt=False).run(fn)
    assert "loadstore_opt" not in naive.stages_run
    # The optimization only removes loads, so the naive text is never shorter.
    assert len(naive.rewritten_ir()) >= len(full.rewritten_ir())
    assert full.stage_stats["loadstore_opt"]["loads_removed"] >= 0


def test_missing_requirement_outside_skip_set_raises():
    # An allocate-only chain on a bare function has nothing to allocate.
    pipe = Pipeline.from_spec("allocate")
    with pytest.raises(PipelineError, match="requires"):
        pipe.run(_functions(1)[0])


def test_run_many_serial_matches_parallel():
    fns = _functions(5)
    pipe = Pipeline.from_spec("BFPL", target="st231", registers=3)
    serial = pipe.run_many(fns, jobs=1)
    parallel = pipe.run_many(fns, jobs=2)
    assert [c.spill_cost for c in serial] == [c.spill_cost for c in parallel]
    assert [c.rewritten_ir() for c in serial] == [c.rewritten_ir() for c in parallel]
    assert [c.name for c in serial] == [c.name for c in parallel]


def test_run_many_rejects_nonpositive_jobs():
    pipe = Pipeline.from_spec("NL", registers=4, verify=False)
    with pytest.raises(PipelineError, match="jobs"):
        pipe.run_many(_functions(2), jobs=0)


def test_custom_pass_registers_like_an_allocator():
    class TagPass(Pass):
        name = "tag"
        requires = ("problem",)
        provides = ()

        def run(self, context, spec, store=None):
            return context.with_stage("tag", 0.0, stats={"variables": len(context.problem.graph)})

    register_pass("tag", TagPass)
    pipe = Pipeline.from_spec(
        "liveness,interference,extract,tag,allocate,verify", allocator="NL", registers=4
    )
    ctx = pipe.run(_functions(1)[0])
    assert "tag" in ctx.stages_run
    assert ctx.stage_stats["tag"]["variables"] == len(ctx.problem.graph)


def test_summary_is_json_serializable():
    import json

    ctx = Pipeline.from_spec("NL", registers=4).run(_functions(1)[0])
    payload = json.loads(json.dumps(ctx.summary()))
    assert payload["allocator"] == "NL"
    assert payload["num_registers"] == 4
    assert payload["verify"]["feasible"] is True
    assert set(payload["stages"]) >= {"liveness", "allocate", "verify"}
