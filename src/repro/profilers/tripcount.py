"""The loop trip-count histogram profiler.

For every natural loop it records, per completed loop *episode* (entry
to exit), the number of header executions -- one plus the back-edge
traversals since entry -- into a per-loop histogram.  Live episode
counters ride in the frame's ``pstate`` scratch slot (per activation,
like the path register), keyed by loop header; histograms are global,
accumulated at exit.

Placement: a :class:`TripIncr` on every back edge, a :class:`TripFlush`
on every loop exit edge.  An edge can carry several (break out of two
loops, or exit an inner loop while taking an outer back edge); flushes
run innermost-first, before any increment, so each episode is charged
to the right loop.  A ``return`` inside a loop still closes the episode:
the returning block cannot reach the back edge, so it lies outside the
natural loop and the edge into it is an exit edge.  Only runs truncated
mid-loop (instruction budget) leave episodes unrecorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple, cast

from ..cfg.loops import find_back_edges, find_loops
from ..core.attach import HookContext
from ..core.ops import ObservationOp
from .base import FunctionObservations, ModuleObservations, Profiler
from .registry import register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cfg.graph import Edge
    from ..interp.costs import CostModel
    from ..interp.machine import Frame, Machine
    from ..ir.function import Function, Module

Histogram = Dict[int, int]              # trips -> episodes
FunctionTrips = Dict[str, Histogram]    # loop header -> histogram
TripProfile = Dict[str, FunctionTrips]


@dataclass(frozen=True)
class TripIncr(ObservationOp):
    """Count one back-edge traversal of the loop headed at ``header``."""

    header: str

    def __str__(self) -> str:
        return f"trips[{self.header}]++"

    def compile_step(self, ctx: HookContext
                     ) -> Tuple[Callable[["Frame"], None], float]:
        key = self.header

        def step(frame: "Frame") -> None:
            ps = frame.pstate
            if ps is None:
                ps = {}
                frame.pstate = ps
            ps[key] = ps.get(key, 0) + 1
        return step, ctx.cost_model.trip_incr

    def validate(self, func: "Function", edge: "Edge") -> List[str]:
        return _op_errors(self, func, edge, want_back=True)


@dataclass(frozen=True)
class TripFlush(ObservationOp):
    """Close the current episode of the loop headed at ``header``:
    record ``back-edge traversals + 1`` into its histogram."""

    header: str

    def __str__(self) -> str:
        return f"hist[{self.header}] << trips"

    def compile_step(self, ctx: HookContext
                     ) -> Tuple[Callable[["Frame"], None], float]:
        state = cast(Dict[str, Histogram], ctx.state)
        hist = state.setdefault(self.header, {})
        key = self.header

        def step(frame: "Frame") -> None:
            ps = frame.pstate
            trips = (ps.pop(key, 0) if ps else 0) + 1
            hist[trips] = hist.get(trips, 0) + 1
        return step, ctx.cost_model.hist_update

    def validate(self, func: "Function", edge: "Edge") -> List[str]:
        return _op_errors(self, func, edge, want_back=False)


def _op_errors(op: "TripIncr | TripFlush", func: "Function",
               edge: "Edge", *, want_back: bool) -> List[str]:
    if want_back:
        back = {e.uid for e in find_back_edges(func.cfg)}
        if edge.uid not in back or edge.dst != op.header:
            return [f"{op} placed on edge {edge.src}->{edge.dst}, "
                    f"which is not a back edge of {op.header!r}"]
        return []
    for loop in find_loops(func.cfg):
        if loop.header == op.header:
            if edge.uid in {e.uid for e in loop.exit_edges(func.cfg)}:
                return []
            return [f"{op} placed on edge {edge.src}->{edge.dst}, "
                    f"which does not exit the loop at {op.header!r}"]
    return [f"{op} names a loop header {op.header!r} that has no loop "
            f"in {func.name!r}"]


@register
class TripCountProfiler(Profiler):
    """Per-loop trip-count histograms over completed loop episodes."""

    name = "tripcounts"
    description = "per-loop trip-count histograms (completed episodes)"

    def instrument(self, module: "Module",
                   cost_model: "CostModel") -> ModuleObservations:
        obs = ModuleObservations()
        for fname, func in module.functions.items():
            loops = find_loops(func.cfg)
            if not loops:
                continue
            state: Dict[str, Histogram] = {}
            flushes: Dict[int, List[Tuple[int, TripFlush]]] = {}
            incrs: Dict[int, List[TripIncr]] = {}
            for loop in loops:
                state[loop.header] = {}
                for edge in loop.back_edges:
                    incrs.setdefault(edge.uid, []).append(
                        TripIncr(loop.header))
                for edge in loop.exit_edges(func.cfg):
                    flushes.setdefault(edge.uid, []).append(
                        (loop.depth, TripFlush(loop.header)))
            edge_ops: Dict[int, List[ObservationOp]] = {}
            for uid in sorted(set(flushes) | set(incrs)):
                ops: List[ObservationOp] = []
                # Innermost flushes first, then increments: an edge that
                # exits an inner loop while taking an outer back edge
                # must close the inner episode before counting the outer
                # iteration.
                for _, flush in sorted(flushes.get(uid, []),
                                       key=lambda t: (-t[0], t[1].header)):
                    ops.append(flush)
                for incr in sorted(incrs.get(uid, []),
                                   key=lambda op: op.header):
                    ops.append(incr)
                edge_ops[uid] = ops
            obs.functions[fname] = FunctionObservations(
                edge_ops=edge_ops,
                context=HookContext(cost_model, state=state))
        return obs

    def collect(self, machine: "Machine",
                obs: ModuleObservations) -> TripProfile:
        out: TripProfile = {}
        for fname, fobs in obs.functions.items():
            state = cast(Dict[str, Histogram], fobs.context.state)
            out[fname] = {header: dict(hist)
                          for header, hist in sorted(state.items())}
        return out


def mean_trips(hist: Histogram) -> float:
    """Average trips per completed episode (0.0 for an empty histogram)."""
    episodes = sum(hist.values())
    if not episodes:
        return 0.0
    return sum(trips * count for trips, count in hist.items()) / episodes
