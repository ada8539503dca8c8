"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.cfg import ControlFlowGraph, build_cfg
from repro.interp import Machine
from repro.ir import IRBuilder
from repro.lang import compile_source
from repro.profiles import EdgeProfile, PathProfile
from repro.profiles.edge_profile import FunctionEdgeProfile


def diamond_cfg() -> ControlFlowGraph:
    """A -> (B|C) -> D."""
    return build_cfg("diamond",
                     [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
                     "A", "D")


def loop_cfg() -> ControlFlowGraph:
    """entry -> H; H -> (B|X); B -> H (back edge); X is the exit."""
    return build_cfg("loop",
                     [("E", "H"), ("H", "B"), ("H", "X"), ("B", "H")],
                     "E", "X")


def fig8_function():
    """The paper's Figure 8 routine: A->(B|C)->D->(E|F)->G, as a sealed
    IR function (two sequential diamonds)."""
    b = IRBuilder("fig8")
    b.block("A")
    b.const("c", 1)
    b.branch("c", "B", "C")
    b.block("B")
    b.jump("D")
    b.block("C")
    b.jump("D")
    b.block("D")
    b.branch("c", "E", "F")
    b.block("E")
    b.jump("G")
    b.block("F")
    b.jump("G")
    b.block("G")
    b.ret()
    return b.finish("A")


def fig8_profile(func):
    """The paper's Figure 8 edge frequencies: 80 executions, A->B 50,
    A->C 30, D->E 60, D->F 20."""
    cfg = func.cfg
    freqs = {
        cfg.edge("A", "B").uid: 50,
        cfg.edge("A", "C").uid: 30,
        cfg.edge("B", "D").uid: 50,
        cfg.edge("C", "D").uid: 30,
        cfg.edge("D", "E").uid: 60,
        cfg.edge("D", "F").uid: 20,
        cfg.edge("E", "G").uid: 60,
        cfg.edge("F", "G").uid: 20,
    }
    return FunctionEdgeProfile(func, freqs, entry_count=80)


def with_source(result, source: str):
    """A :class:`~repro.interp.codegen.CodegenResult` whose generated
    text is ``source``: split into the ``_make`` header and segments the
    way the emitter joins them, so ``result.source == source``."""
    header, *segments = re.split(r"(?m)^(?=    def _seg_)", source)
    return dataclasses.replace(result, header=header,
                               segments=tuple(segments))


def trace_module(module, args=(), max_instructions=50_000_000):
    """Ground truth + edge profile + return value for a module."""
    machine = Machine(module, collect_edge_profile=True, trace_paths=True,
                      max_instructions=max_instructions)
    result = machine.run(args=args)
    actual = PathProfile.from_trace(module, result.path_counts)
    profile = EdgeProfile.from_run(module, result.edge_counts,
                                   result.invocations)
    return actual, profile, result


def hook_edge_counts(module, backend=None, trace_paths=False,
                     path_listener=None, args=(),
                     max_instructions=500_000_000):
    """The dense edge-count reference: a counting hook on every edge
    uid, attached through the public hook channel, so no counter code
    of the machine's own edge profiler takes part.  Returns ``(result,
    counts)`` with never-traversed edges omitted, like ``edge_counts``;
    a hook bills nothing, so ``result`` is a plain run's result."""
    counts = {name: {} for name in module.functions}
    machine = Machine(module, trace_paths=trace_paths,
                      path_listener=path_listener,
                      max_instructions=max_instructions, backend=backend)
    for name, func in module.functions.items():
        for edge in func.cfg.edges():
            def hook(frame, dest=counts[name], uid=edge.uid):
                dest[uid] = dest.get(uid, 0) + 1
            machine.set_edge_hook(name, edge.uid, hook)
    return machine.run(args=args), counts


SMALL_PROGRAM = """
global acc;
func helper(n, mode) {
    t = 0;
    for (i = 0; i < n; i = i + 1) {
        if (mode == 1 && i % 7 == 0) { t = t + 3; }
        else { if (i % 3 == 0) { t = t + i; } else { t = t - 1; } }
    }
    return t;
}
func main() {
    s = 0;
    for (j = 0; j < 40; j = j + 1) {
        if (j % 5 == 0) { s = s + helper(j, 1); }
        else { s = s + helper(j, 0); }
        if (j == 37) { s = s * 2; }
    }
    acc = s;
    return s;
}
"""


@pytest.fixture(scope="session")
def small_module():
    return compile_source(SMALL_PROGRAM, name="small")


@pytest.fixture(scope="session")
def small_truth(small_module):
    return trace_module(small_module)


@pytest.fixture(scope="session")
def profiling_session():
    """One in-memory engine session the harness and study tests share,
    so a workload traced by one test module is a cache hit in the next."""
    from repro.engine import ProfilingSession
    return ProfilingSession()
