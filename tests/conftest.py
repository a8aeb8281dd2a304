"""Shared fixtures: the paper's example graphs and small reusable programs."""

from __future__ import annotations

import random
import sys

import pytest

from repro.graphs.graph import Graph
from repro.ir.builder import FunctionBuilder
from repro.pipeline import Pipeline


def front_end_problem(function, target="st231", ssa=True, name=None):
    """``function``'s allocation problem from the pipeline's front-end stages."""
    pipeline = Pipeline.from_spec(target=target, ssa=ssa, stages="liveness,interference,extract")
    return pipeline.run(function, name=name).problem


def count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` through every ``repro`` module that
    imported it by name (so ``from x import f`` call sites count too)."""
    original = getattr(module, name)
    calls = {"n": 0}

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    for module_name, loaded in list(sys.modules.items()):
        if module_name.split(".")[0] == "repro" and getattr(loaded, name, None) is original:
            monkeypatch.setattr(loaded, name, counting)
    return calls


def build_paper_figure4_graph() -> Graph:
    """The chordal graph of the paper's Figures 4/5/6.

    Vertices a..g with weights a=1, b=2, c=2, d=5, e=2, f=6, g=1.  The edge
    set is reconstructed from the figure and the Algorithm 1 trace in
    Figure 5: {a,d,f}, {d,e,f}, {c,d,e} are maximal cliques and {b,c,e,g}
    forms a 4-clique, which yields exactly two maximum weighted stable sets
    of weight 8 ({b,f} and {c,f}) as discussed around Figure 6.
    """
    graph = Graph()
    for name, weight in dict(a=1, b=2, c=2, d=5, e=2, f=6, g=1).items():
        graph.add_vertex(name, weight)
    edges = [
        ("a", "d"), ("a", "f"), ("d", "f"), ("d", "e"), ("e", "f"), ("c", "d"),
        ("c", "e"), ("b", "c"), ("b", "e"), ("b", "g"), ("c", "g"), ("e", "g"),
    ]
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def build_paper_figure2_graph() -> Graph:
    """The 5-vertex counter-example to spill-set inclusion (paper Figure 2).

    Chordal graph on a, b, c, d, e with a triangle {b, c, d} and pendant
    vertices a (on b) and e (on d).  The weights (a=3, b=2, c=1, d=2, e=3;
    slightly adapted from the partially-legible figure so the optima are
    unique) make the optimal spill set {b, d} for R=1 but {c} for R=2 — the
    R=2 spill set is not included in the R=1 spill set, defeating naive
    incremental spilling.
    """
    graph = Graph()
    for name, weight in dict(a=3, b=2, c=1, d=2, e=3).items():
        graph.add_vertex(name, weight)
    for u, v in [("a", "b"), ("b", "c"), ("b", "d"), ("c", "d"), ("d", "e")]:
        graph.add_edge(u, v)
    return graph


def build_paper_figure7_graph() -> Graph:
    """The 6-vertex chordal graph of the paper's Figure 7.

    Maximal cliques {a,d,f}, {b,c,e}, {c,d,e}, {d,e,f}; weights a=4, b=2,
    c=1, d=5, e=1, f=1.  With two registers the plain layered allocation can
    stop although c or e still fits — the motivation for the fixed-point
    iteration.
    """
    graph = Graph()
    for name, weight in dict(a=4, b=2, c=1, d=5, e=1, f=1).items():
        graph.add_vertex(name, weight)
    edges = [
        ("a", "d"), ("a", "f"), ("d", "f"),
        ("b", "c"), ("b", "e"), ("c", "e"),
        ("c", "d"), ("d", "e"), ("e", "f"),
    ]
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


@pytest.fixture
def figure4_graph() -> Graph:
    """Paper Figures 4/5/6 graph."""
    return build_paper_figure4_graph()


@pytest.fixture
def figure2_graph() -> Graph:
    """Paper Figure 2 counter-example graph."""
    return build_paper_figure2_graph()


@pytest.fixture
def figure7_graph() -> Graph:
    """Paper Figure 7 graph."""
    return build_paper_figure7_graph()


@pytest.fixture
def rng() -> random.Random:
    """A deterministic Random instance for generator-based tests."""
    return random.Random(12345)


def build_diamond_function():
    """A small if/else diamond with a redefined variable (non-SSA input)."""
    fb = FunctionBuilder("diamond", params=["a", "b"])
    entry = fb.new_block("entry")
    then_block = fb.new_block("then")
    else_block = fb.new_block("else")
    join = fb.new_block("join")

    fb.set_block(entry)
    fb.cmp("c", "a", "b")
    fb.cbr("c", then_block, else_block)

    fb.set_block(then_block)
    fb.add("x", "a", 1)
    fb.br(join)

    fb.set_block(else_block)
    fb.add("x", "b", 2)
    fb.br(join)

    fb.set_block(join)
    fb.mul("y", "x", "x")
    fb.ret("y")
    return fb.finish()


def build_loop_function():
    """A counted loop accumulating into two long-lived variables."""
    fb = FunctionBuilder("loop", params=["n"])
    entry = fb.new_block("entry")
    header = fb.new_block("header")
    body = fb.new_block("body")
    exit_block = fb.new_block("exit")

    fb.set_block(entry)
    fb.copy("i", 0)
    fb.copy("sum", 0)
    fb.copy("prod", 1)
    fb.br(header)

    fb.set_block(header)
    # cmp evaluates to "left operand greater": loop while n > i.
    fb.cmp("cond", "n", "i")
    fb.cbr("cond", body, exit_block)

    fb.set_block(body)
    fb.add("sum", "sum", "i")
    fb.mul("prod", "prod", "i")
    fb.add("i", "i", 1)
    fb.br(header)

    fb.set_block(exit_block)
    fb.add("result", "sum", "prod")
    fb.ret("result")
    return fb.finish()


@pytest.fixture
def diamond_function():
    """Non-SSA diamond function."""
    return build_diamond_function()


@pytest.fixture
def loop_function():
    """Non-SSA loop function."""
    return build_loop_function()
