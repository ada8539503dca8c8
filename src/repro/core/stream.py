"""A recorded path stream: every completed Ball-Larus path, in order.

The online path consumers (:mod:`repro.core.hpt`, :mod:`repro.core.net`)
see nothing of an execution but the sequence of completed paths the
interpreter's path listener delivers.  :func:`record_path_stream` runs a
module once and keeps exactly that sequence, compactly: the distinct
``(function, blocks)`` paths in first-seen order plus one array index
per completion.  Replaying the stream into a consumer is equivalent to
attaching the consumer as the machine's listener, so one recording
serves every consumer and every configuration of it, and can be cached.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from ..interp.machine import Machine
from ..ir.function import Module
from ..profiles.path_profile import PathKey


@dataclass
class PathStream:
    """The listener's view of one run, in completion order."""

    paths: list[tuple[str, PathKey]]  # distinct, in first-seen order
    events: array  # typecode "I": one index into ``paths`` per path
    return_value: object


def record_path_stream(module: Module, args: tuple = (),
                       max_instructions: int = 500_000_000,
                       backend: str | None = None) -> PathStream:
    """Execute the module once, recording every completed path."""
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

    machine = Machine(module, path_listener=listen,
                      max_instructions=max_instructions, backend=backend)
    result = machine.run(args=args)
    return PathStream(paths, events, result.return_value)
