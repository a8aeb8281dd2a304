"""Cache-aware, resumable sweeps through the experiment store."""

import pytest

import repro.experiments.runner as runner_module
from repro.alloc.problem import AllocationProblem
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.graphs.generators import random_chordal_graph
from repro.store import open_store


def _problems(count=4, base=14):
    return [
        AllocationProblem(
            graph=random_chordal_graph(base + seed, rng=seed), num_registers=4, name=f"p{seed}"
        )
        for seed in range(count)
    ]


def _config(**overrides):
    defaults = dict(allocators=["NL", "Optimal"], register_counts=[2, 4], verify=False)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _key(records):
    return [
        (r.instance, r.program, r.allocator, r.num_registers, r.spill_cost, r.num_spilled)
        for r in records
    ]


@pytest.fixture
def allocate_calls(monkeypatch):
    """Count (and optionally fail) every Allocator.allocate the runner makes."""
    calls = []
    real_get_allocator = runner_module.get_allocator

    def counting_get_allocator(name):
        allocator = real_get_allocator(name)
        real_allocate = allocator.allocate

        def wrapped(problem):
            calls.append((name, problem.name, problem.num_registers))
            return real_allocate(problem)

        allocator.allocate = wrapped
        return allocator

    monkeypatch.setattr(runner_module, "get_allocator", counting_get_allocator)
    return calls


def test_cold_sweep_populates_store_and_warm_sweep_runs_no_allocator(tmp_path, allocate_calls):
    problems = _problems()
    config = _config()
    with open_store(tmp_path / "s.sqlite") as store:
        cold = run_experiment(problems, config, store=store)
        assert len(store) == 4 * 2 * 2
        cold_calls = len(allocate_calls)
        assert cold_calls == 4 * 2 * 2

        warm = run_experiment(problems, config, store=store)
        assert len(allocate_calls) == cold_calls  # zero new allocator calls
        assert _key(warm) == _key(cold)

        manifests = store.manifests()
        assert [m.cells_cached for m in manifests] == [0, 16]
        assert [m.cells_computed for m in manifests] == [16, 0]
        assert manifests[-1].hit_rate == 1.0


def test_store_backed_records_match_plain_run(tmp_path):
    problems = _problems()
    config = _config()
    plain = run_experiment(problems, config)
    with open_store(tmp_path / "s.sqlite") as store:
        cold = run_experiment(problems, config, store=store)
        warm = run_experiment(problems, config, store=store)
    assert _key(cold) == _key(plain)
    assert _key(warm) == _key(plain)


def test_partial_cache_computes_only_missing_cells(tmp_path, allocate_calls):
    problems = _problems()
    with open_store(tmp_path / "s.sqlite") as store:
        run_experiment(problems, _config(register_counts=[2]), store=store)
        first = len(allocate_calls)
        # Widening the sweep reuses the R=2 cells and computes only R=4.
        run_experiment(problems, _config(register_counts=[2, 4]), store=store)
        assert len(allocate_calls) - first == len(problems) * 2  # 2 allocators at R=4
        manifest = store.manifests()[-1]
        assert manifest.cells_cached == len(problems) * 2
        assert manifest.cells_computed == len(problems) * 2


def test_interrupted_sweep_resumes_where_it_died(tmp_path, monkeypatch, allocate_calls):
    problems = _problems()
    config = _config()
    total_cells = 4 * 2 * 2

    budget = {"left": 5}
    real_run_cells = runner_module.run_cells

    def failing_run_cells(problem, cells, program="", verify=True, on_record=None):
        def guarded(cell, record):
            if budget["left"] == 0:
                raise KeyboardInterrupt("simulated kill")
            budget["left"] -= 1
            if on_record is not None:
                on_record(cell, record)

        return real_run_cells(problem, cells, program=program, verify=verify, on_record=guarded)

    monkeypatch.setattr(runner_module, "run_cells", failing_run_cells)
    with open_store(tmp_path / "s.sqlite") as store:
        with pytest.raises(KeyboardInterrupt):
            run_experiment(problems, config, store=store)
    monkeypatch.setattr(runner_module, "run_cells", real_run_cells)

    # Exactly the 5 flushed cells survived the crash.
    with open_store(tmp_path / "s.sqlite") as store:
        assert len(store) == 5
        calls_before = len(allocate_calls)
        records = run_experiment(problems, config, store=store)
        assert len(records) == total_cells
        assert len(store) == total_cells
        # The rerun computed only the missing cells.
        assert len(allocate_calls) - calls_before == total_cells - 5
        assert store.manifests()[-1].cells_cached == 5


def test_resume_false_recomputes_but_still_persists(tmp_path, allocate_calls):
    problems = _problems(count=2)
    config = _config()
    with open_store(tmp_path / "s.sqlite") as store:
        run_experiment(problems, config, store=store)
        first = len(allocate_calls)
        run_experiment(problems, config, store=store, resume=False)
        assert len(allocate_calls) == 2 * first  # everything recomputed
        assert len(store) == first
        assert store.manifests()[-1].cells_cached == 0


def test_renamed_instances_hit_the_cache_with_fresh_names(tmp_path, allocate_calls):
    problems = _problems(count=2)
    config = _config()
    with open_store(tmp_path / "s.sqlite") as store:
        run_experiment(problems, config, store=store)
        calls = len(allocate_calls)
        renamed = [
            AllocationProblem(graph=p.graph.copy(), num_registers=4, name=f"renamed_{p.name}")
            for p in problems
        ]
        records = run_experiment(renamed, config, store=store)
    assert len(allocate_calls) == calls  # content-addressed: all hits
    assert {r.instance for r in records} == {"renamed_p0", "renamed_p1"}


def test_parallel_store_sweep_matches_serial(tmp_path):
    problems = _problems(count=6)
    serial = _config()
    parallel = _config(jobs=3)
    baseline = run_experiment(problems, serial)
    with open_store(tmp_path / "cold.sqlite") as store:
        cold = run_experiment(problems, parallel, store=store)
        assert store.manifests()[-1].cells_computed == 6 * 2 * 2
        warm = run_experiment(problems, parallel, store=store)
        assert store.manifests()[-1].cells_cached == 6 * 2 * 2
    assert _key(cold) == _key(baseline)
    assert _key(warm) == _key(baseline)


def test_config_validation_rejects_bad_sweeps():
    with pytest.raises(ValueError, match="allocators"):
        run_experiment([], ExperimentConfig(allocators=[], register_counts=[2]))
    with pytest.raises(ValueError, match="jobs"):
        run_experiment([], ExperimentConfig(allocators=["NL"], register_counts=[2], jobs=0))
    with pytest.raises(ValueError, match="positive"):
        run_experiment([], ExperimentConfig(allocators=["NL"], register_counts=[2, 0]))
    with pytest.raises(ValueError, match="positive"):
        run_experiment([], ExperimentConfig(allocators=["NL"], register_counts=[-1]))


def test_persisted_records_carry_canonical_allocator_names(tmp_path):
    """A sweep via aliases must fill the cells downstream consumers look up
    under the paper names ('NL'/'Optimal'), not under the alias spelling."""
    problems = _problems(count=2)
    with open_store(tmp_path / "s.sqlite") as store:
        records = run_experiment(problems, _config(allocators=["layered", "optimal"]), store=store)
        assert {r.allocator for r in store.records()} == {"NL", "Optimal"}
    # ... while the returned records keep the names this sweep asked with.
    assert {r.allocator for r in records} == {"layered", "optimal"}


def test_allocator_alias_shares_cache_with_canonical_name(tmp_path, allocate_calls):
    """'layered' and 'NL' are the same algorithm and must share cells."""
    problems = _problems(count=2)
    with open_store(tmp_path / "s.sqlite") as store:
        run_experiment(problems, _config(allocators=["NL"]), store=store)
        calls = len(allocate_calls)
        records = run_experiment(problems, _config(allocators=["layered"]), store=store)
        assert len(allocate_calls) == calls
        # Served from NL's cells, but labeled as this sweep asked.
        assert {r.allocator for r in records} == {"layered"}
