"""Observation operations placed on CFG edges.

:class:`ObservationOp` is the root of *every* operation any profiler may
attach to an edge: it knows how to compile itself into a step closure
(billed through the shared cost model) and how to validate its own
placement contract.  The Ball-Larus family below is the oldest op
family; profiler plugins (:mod:`repro.profilers`) declare their own
subclasses and the attachment layer (:mod:`repro.core.attach`) compiles
all of them uniformly.

The Ball-Larus ops are the only operations PP/TPP/PPP ever insert
(Section 3.1, Figure 1(e-g)):

* ``SetReg(v)``   -- ``r = v`` (path-register initialisation, or poison)
* ``AddReg(v)``   -- ``r += v`` (path-register increment)
* ``CountReg(a)`` -- ``count[r + a]++`` (``a`` is 0 before combining)
* ``CountConst(v)`` -- ``count[v]++`` (fully combined: constant index)

With TPP-style poisoning, counting ops additionally test ``r < 0`` and
bump a cold counter instead (the *poison check* PPP eliminates); that
variant is selected per plan, not per op, and is handled by the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guards (typing only)
    from ..cfg.graph import Edge
    from ..interp.machine import Frame
    from ..ir.function import Function
    from .attach import HookContext


class ObservationOp:
    """Base class for every operation a profiler can attach to an edge.

    Subclasses outside the Ball-Larus family implement
    :meth:`compile_step`; the path-register ops below are compiled by
    the specialised fast path in :mod:`repro.core.attach` instead.
    Subclasses should be frozen dataclasses: the attachment layer hoists
    compiled steps across edges carrying structurally identical op
    lists, which requires ops to be hashable values.
    """

    __slots__ = ()

    def compile_step(self, ctx: "HookContext"
                     ) -> tuple[Callable[["Frame"], None], float]:
        """``(step closure, unit cost)`` for one execution of this op."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement compile_step")

    def validate(self, func: "Function", edge: "Edge") -> list[str]:
        """Placement-contract violations of this op on ``edge`` (empty
        when the placement is legal); used by the plan verifier's
        generic observation checks."""
        return []


class InstrOp(ObservationOp):
    """Base class for the Ball-Larus path-register operations."""

    __slots__ = ()


@dataclass(frozen=True)
class SetReg(InstrOp):
    """``r = value``.  ``poison`` marks cold-edge poisoning sets."""

    value: int
    poison: bool = False

    def __str__(self) -> str:
        suffix = "  ; poison" if self.poison else ""
        return f"r = {self.value}{suffix}"


@dataclass(frozen=True)
class AddReg(InstrOp):
    """``r += value``."""

    value: int

    def __str__(self) -> str:
        return f"r += {self.value}"


@dataclass(frozen=True)
class CountReg(InstrOp):
    """``count[r + add]++``."""

    add: int = 0

    def __str__(self) -> str:
        idx = "r" if self.add == 0 else f"r + {self.add}"
        return f"count[{idx}]++"


@dataclass(frozen=True)
class CountConst(InstrOp):
    """``count[value]++`` -- the cheapest, fully-combined form."""

    value: int

    def __str__(self) -> str:
        return f"count[{self.value}]++"


def describe(ops: list[InstrOp]) -> str:
    """Human-readable rendering of an edge's instrumentation."""
    return "; ".join(str(op) for op in ops) if ops else "(none)"
