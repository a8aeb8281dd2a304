"""Package-level smoke tests: public API surface and the README quick start."""

import repro


def test_version_is_exposed():
    assert repro.__version__


def test_public_api_names():
    for name in ("AllocationProblem", "AllocationResult", "get_allocator", "available_allocators", "Graph"):
        assert hasattr(repro, name)


def test_quickstart_from_module_docstring_works():
    from repro import Pipeline
    from repro.alloc import get_allocator
    from repro.workloads import generate_function

    function = generate_function("demo", rng=42)
    front_end = Pipeline.from_spec(target="st231", stages="liveness,interference,extract")
    problem = front_end.run(function).problem.with_registers(8)
    result = get_allocator("BFPL").allocate(problem)
    assert result.spill_cost >= 0
    assert result.allocated | result.spilled == set(problem.graph.vertices())


def test_every_registered_allocator_can_run_end_to_end(figure4_graph):
    from repro.alloc import available_allocators, get_allocator
    from repro.alloc.problem import AllocationProblem

    problem = AllocationProblem(graph=figure4_graph, num_registers=2)
    for name in available_allocators():
        result = get_allocator(name).allocate(problem)
        assert result.spill_cost >= 0, name


def test_subpackages_importable():
    import repro.analysis
    import repro.alloc
    import repro.experiments
    import repro.graphs
    import repro.ir
    import repro.targets
    import repro.workloads

    assert repro.analysis and repro.alloc and repro.experiments
    assert repro.graphs and repro.ir and repro.targets and repro.workloads
