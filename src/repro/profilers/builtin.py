"""The original observation kinds, refactored into registry plugins.

Edge counting, ground-truth path tracing, and invocation counting were
native machine channels before the plugin framework existed -- and they
still are: these profilers *claim* the channels and harvest the
machine's own tables, so running them through the plugin driver is
byte-identical to (and exactly as fast as) constructing the machine
with the flags by hand.

:class:`PathPlanProfiler` is the Ball-Larus path counter itself: it
carries a PP/TPP/PPP :class:`~repro.core.pipeline.ModulePlan`'s placed
instrumentation (the plan's op lists, counter stores, and poisoning
style) as a plan-bound plugin, which is how ``run_with_plan`` executes
plans through the same driver as every other profiler.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Tuple

from ..core.attach import HookContext
from ..core.runtime import CounterStore, make_store
from .base import (FunctionObservations, MachineChannels, ModuleObservations,
                   Profiler)
from .registry import register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.pipeline import ModulePlan
    from ..interp.costs import CostModel
    from ..interp.machine import Machine
    from ..ir.function import Module

EdgeCounts = Dict[str, Dict[int, int]]
PathCounts = Dict[str, Dict[Tuple[str, ...], int]]
CallCounts = Dict[str, int]


@register
class EdgeCountProfiler(Profiler):
    """Per-function CFG edge traversal counts (the machine's native
    edge-profile channel): counters sit only on each function's
    spanning-tree cotree probes, and the machine reconstructs the other
    counts by flow conservation."""

    name = "edges"
    description = ("per-edge traversal counts (native: cotree probes, "
                   "conservation-reconstructed)")
    channels = MachineChannels(edge_profile=True)

    def collect(self, machine: "Machine",
                obs: ModuleObservations) -> EdgeCounts:
        return machine.edge_counts


@register
class PathTraceProfiler(Profiler):
    """Exact Ball-Larus path counts from the machine's ground-truth
    tracer (a back edge ends the current path; routine exit ends it)."""

    name = "path-trace"
    description = "ground-truth Ball-Larus path counts (native tracer)"
    channels = MachineChannels(trace_paths=True)

    def collect(self, machine: "Machine",
                obs: ModuleObservations) -> PathCounts:
        return {fn: dict(counts)
                for fn, counts in machine.path_counts.items()}


@register
class InvocationProfiler(Profiler):
    """Per-function invocation counts (always collected natively; this
    plugin only exposes them as a profile)."""

    name = "calls"
    description = "per-function invocation counts"

    def collect(self, machine: "Machine",
                obs: ModuleObservations) -> CallCounts:
        return dict(machine.invocations)


@register
class PathPlanProfiler(Profiler):
    """A PP/TPP/PPP plan's placed path instrumentation, as a plugin.

    Plan-bound: constructed with the plan, never by registry name.  Its
    result is the per-function counter stores, exactly what
    :class:`~repro.core.pipeline.ProfileRun` exposes.
    """

    name = "path"
    description = ("Ball-Larus path counters from a PP/TPP/PPP plan "
                   "(plan-bound; attached by run_with_plan)")
    requires_plan = True

    def __init__(self, plan: "ModulePlan") -> None:
        self.plan = plan
        self._stores: Dict[str, CounterStore] = {}

    def instrument(self, module: "Module",
                   cost_model: "CostModel") -> ModuleObservations:
        obs = ModuleObservations()
        for name, fplan in self.plan.functions.items():
            if not fplan.instrumented or fplan.placement is None:
                continue
            placement = fplan.placement
            store = make_store(placement.num_hot, placement.counter_span,
                               fplan.use_hash)
            self._stores[name] = store
            ctx = HookContext(cost_model, store=store,
                              checked=(fplan.poison_style == "check"))
            obs.functions[name] = FunctionObservations(
                edge_ops=placement.edge_ops, context=ctx)
        return obs

    def collect(self, machine: "Machine",
                obs: ModuleObservations) -> Mapping[str, CounterStore]:
        return dict(self._stores)
