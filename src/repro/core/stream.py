"""A recorded execution: every completed Ball-Larus path, in order, plus
the path and edge profiles of the same run.

The online path consumers (:mod:`repro.core.hpt`, :mod:`repro.core.net`)
see nothing of an execution but the sequence of its completed paths.
:func:`record_module` runs a module once with edge counting and path
tracing, and keeps that sequence from the machine's ordered path log
(:attr:`~repro.interp.machine.Machine.distinct_paths` and
:attr:`~repro.interp.machine.Machine.path_events`), compactly: the
distinct ``(function, blocks)`` paths in first-seen order plus one array
index per completion.  Replaying the stream feeds a consumer every path
in completion order, so one recording serves every consumer and can be
cached.
"""

from __future__ import annotations

import zlib
from array import array
from dataclasses import dataclass

from ..interp.machine import Machine
from ..ir.function import Module
from ..profiles.edge_profile import EdgeProfile
from ..profiles.path_profile import PathKey, PathProfile


@dataclass
class PathStream:
    """The completed paths of one run, in completion order."""

    paths: list[tuple[str, PathKey]]  # distinct, in first-seen order
    events: array  # typecode "I": one index into ``paths`` per path
    return_value: object


@dataclass
class Recording:
    """Everything one edge-counted, path-traced run observed."""

    paths: PathProfile  # ground truth: exact Ball-Larus path counts
    edges: EdgeProfile
    distinct_paths: list[tuple[str, PathKey]]  # the stream's ``paths``
    packed_events: bytes  # zlib'd events: ~17x smaller, rarely replayed
    return_value: object
    instructions_executed: int
    base_cost: float  # the plain run's cost: no channel here is billed

    @property
    def stream(self) -> PathStream:
        events = array("I")
        events.frombytes(zlib.decompress(self.packed_events))
        return PathStream(self.distinct_paths, events, self.return_value)


def record_module(module: Module, backend: str | None = None) -> Recording:
    """Execute the module once with edge counting and path tracing,
    recording every completed path."""
    machine = Machine(module, collect_edge_profile=True, trace_paths=True,
                      backend=backend)
    result = machine.run()
    assert result.edge_counts is not None and result.path_counts is not None
    return Recording(
        paths=PathProfile.from_trace(module, result.path_counts),
        edges=EdgeProfile.from_run(module, result.edge_counts,
                                   result.invocations),
        distinct_paths=machine.distinct_paths,
        packed_events=zlib.compress(machine.path_events.tobytes(), 1),
        return_value=result.return_value,
        instructions_executed=result.instructions_executed,
        base_cost=result.costs.base)
