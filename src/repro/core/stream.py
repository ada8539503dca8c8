"""A recorded execution: every completed Ball-Larus path, in order, plus
the path and edge profiles of the same run.

The online path consumers (:mod:`repro.core.hpt`, :mod:`repro.core.net`)
see nothing of an execution but the sequence of completed paths the
interpreter's path listener delivers.  :func:`record_module` runs a
module once with edge counting and the listener, and keeps exactly that
sequence, compactly: the distinct ``(function, blocks)`` paths in
first-seen order plus one array index per completion.  Replaying the
stream into a consumer is equivalent to attaching the consumer as the
machine's listener, so one recording serves every consumer and can be
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
    """The listener's view of one run, in completion order."""

    paths: list[tuple[str, PathKey]]  # distinct, in first-seen order
    events: array  # typecode "I": one index into ``paths`` per path
    return_value: object


@dataclass
class Recording:
    """Everything one edge-counted, path-listened run observed."""

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


def record_module(module: Module, args: tuple = (),
                  max_instructions: int = 500_000_000,
                  backend: str | None = None) -> Recording:
    """Execute the module once with edge counting and the path listener,
    recording every completed path."""
    paths: list[tuple[str, PathKey]] = []
    seen: dict[tuple[str, PathKey], int] = {}
    events = array("I")
    append = events.append

    def listen(function: str, blocks: PathKey) -> None:
        key = (function, blocks)
        index = seen.get(key)
        if index is None:
            index = seen[key] = len(paths)
            paths.append(key)
        append(index)

    machine = Machine(module, collect_edge_profile=True, path_listener=listen,
                      max_instructions=max_instructions, backend=backend)
    result = machine.run(args=args)
    assert result.edge_counts is not None and result.path_counts is not None
    return Recording(
        paths=PathProfile.from_trace(module, result.path_counts),
        edges=EdgeProfile.from_run(module, result.edge_counts,
                                   result.invocations),
        distinct_paths=paths,
        packed_events=zlib.compress(events.tobytes(), 1),
        return_value=result.return_value,
        instructions_executed=result.instructions_executed,
        base_cost=result.costs.base)


def record_path_stream(module: Module, args: tuple = (),
                       max_instructions: int = 500_000_000,
                       backend: str | None = None) -> PathStream:
    """Execute the module once; its completed paths in listener order."""
    return record_module(module, args, max_instructions, backend).stream
