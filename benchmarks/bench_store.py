"""Experiment-store benchmarks: cold sweep vs warm-cache sweep.

The store's value proposition is that the second sweep over an unchanged
corpus is pure lookup — no allocator runs.  These benchmarks measure the
cold (compute + persist) and warm (digest + fetch) paths of the store and
assert the warm path actually skips the allocators, so a regression in the
cache-key computation (e.g. a digest that accidentally includes the
instance name or a timestamp) fails loudly rather than silently recomputing.
"""

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.store import open_store
from repro.workloads.corpus import build_corpus

CONFIG = ExperimentConfig(
    allocators=["NL", "BFPL", "GC", "Optimal"],
    register_counts=[2, 4, 8],
    verify=False,
)
MAX_INSTANCES = 8


@pytest.fixture(scope="module")
def corpus():
    return build_corpus("lao_kernels", seed=2013, scale=0.5)


def test_cold_sweep_with_store(benchmark, corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("cold")
    counter = {"n": 0}

    def cold_sweep():
        counter["n"] += 1
        with open_store(root / f"run{counter['n']}.sqlite") as store:
            run_experiment(corpus, CONFIG, max_instances=MAX_INSTANCES, store=store)

    benchmark.pedantic(cold_sweep, rounds=3, iterations=1)


def test_warm_sweep_is_pure_lookup(benchmark, corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("warm") / "store.sqlite"
    with open_store(path) as store:
        run_experiment(corpus, CONFIG, max_instances=MAX_INSTANCES, store=store)

    def warm_sweep():
        with open_store(path) as store:
            run_experiment(corpus, CONFIG, max_instances=MAX_INSTANCES, store=store)

    benchmark.pedantic(warm_sweep, rounds=3, iterations=1)
    with open_store(path) as store:
        manifests = store.manifests()
    # Every post-seed sweep must have been served entirely from the cache.
    assert all(m.cells_computed == 0 for m in manifests[1:])
    assert manifests[-1].hit_rate == 1.0
