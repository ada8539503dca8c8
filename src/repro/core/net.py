"""Next Executing Tail (NET) -- Dynamo's hot-path selector, as a baseline.

The paper's related work (Section 2) contrasts PPP with Dynamo's NET:
after a backward-branch target becomes *hot* (its counter crosses a
threshold; Dynamo used 50), NET grabs the single path executed next from
that target and optimizes it, betting it is the hottest path through the
region.  That bet is statistically sound when one path dominates but,
as the paper notes, "it cannot distinguish between the cases of a few
dominant hot paths and many 'warm' paths" -- NET picks exactly one trace
per hot head while a path profile sees the whole distribution.

This module implements NET faithfully enough to quantify that claim
(:mod:`repro.harness.net_study`): per (function, path head) counters,
one captured trace per head, first-execution-after-threshold semantics.
The paths arrive as a recorded :class:`~repro.core.stream.PathStream`
that is replayed into the selector in completion order, the order of the
machine's path log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.function import Module
from ..profiles.flow import path_branches
from ..profiles.metrics import EstimatedFlows
from ..profiles.path_profile import PathKey
from .stream import PathStream

NET_HOT_THRESHOLD = 50  # Dynamo's published trace-head threshold


@dataclass
class NetTrace:
    """One selected trace: the path captured when its head became hot."""

    function: str
    head: str
    blocks: PathKey
    selection_order: int
    head_count_at_end: int = 0  # how hot the head ultimately became


@dataclass
class NetResult:
    traces: list[NetTrace] = field(default_factory=list)
    head_counts: dict[tuple[str, str], int] = field(default_factory=dict)
    return_value: object = None

    def estimated_flows(self, module: Module) -> EstimatedFlows:
        """Score each selected trace by its head's final execution count
        (the only hotness signal NET has), weighted like the paper's
        branch-flow metric so accuracy comparisons are apples-to-apples."""
        flows: EstimatedFlows = {}
        for trace in self.traces:
            func = module.functions[trace.function]
            weight = float(trace.head_count_at_end) * path_branches(
                func, trace.blocks)
            key = (trace.function, trace.blocks)
            flows[key] = max(flows.get(key, 0.0), weight)
        return flows


class NetSelector:
    """The online mechanism, fed one completed path per call."""

    def __init__(self) -> None:
        self.head_counts: dict[tuple[str, str], int] = {}
        self.pending: set[tuple[str, str]] = set()  # armed, capture next
        self.traces: dict[tuple[str, str], NetTrace] = {}
        self._order = 0

    def __call__(self, function: str, blocks: PathKey) -> None:
        head = blocks[0]
        key = (function, head)
        count = self.head_counts.get(key, 0) + 1
        self.head_counts[key] = count
        if key in self.pending:
            # This is the "next executing tail" after the head got hot.
            self.pending.discard(key)
            self._order += 1
            self.traces[key] = NetTrace(function, head, blocks, self._order)
            return
        if count == NET_HOT_THRESHOLD and key not in self.traces:
            self.pending.add(key)

    def replay(self, stream: PathStream) -> NetResult:
        """Feed every path of ``stream`` to the selector, in order; the
        selector's result."""
        paths = stream.paths
        for event in stream.events:
            self(*paths[event])
        return self.result(stream.return_value)

    def result(self, return_value: object = None) -> NetResult:
        traces = sorted(self.traces.values(),
                        key=lambda t: t.selection_order)
        for trace in traces:
            trace.head_count_at_end = self.head_counts[
                (trace.function, trace.head)]
        return NetResult(traces=traces, head_counts=dict(self.head_counts),
                         return_value=return_value)
