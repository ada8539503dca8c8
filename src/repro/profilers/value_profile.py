"""The value profiler: top-N values per register write site.

A *site* is (block, register) where the block writes the register; the
observed value is the register's value at block exit -- i.e. the final
write the block performed.  The per-block observation is lowered onto
every outgoing edge of the block (exactly one fires per execution), so
blocks ending in ``Ret`` are unobserved by construction; value profiles
answer "what does this write site usually produce when control moves
on", which is the invariance question dynamic optimizers ask before
specialising.

Each site keeps at most :data:`VALUE_CAP` distinct values exactly and
counts everything beyond the cap as *lost* -- the same bounded-table,
lost-counter discipline as the paper's hashed path counters.  Top-N is
computed at reporting time from the exact table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple, cast

from ..core.attach import HookContext
from ..core.ops import ObservationOp
from .base import (FunctionObservations, ModuleObservations, Profiler,
                   block_exit_uids)
from .registry import register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cfg.graph import Edge
    from ..interp.costs import CostModel
    from ..interp.machine import Frame, Machine
    from ..ir.function import Function, Module

#: Maximum distinct values tracked exactly per site.
VALUE_CAP = 64

#: Default N for top-N reporting.
TOP_N = 8

SiteResult = Dict[str, object]          # {"values": {...}, "lost": int}
FunctionValues = Dict[str, SiteResult]  # site -> SiteResult
ValueProfile = Dict[str, FunctionValues]


class _SiteTable:
    """Exact counts for up to VALUE_CAP distinct values at one site."""

    __slots__ = ("values", "lost")

    def __init__(self) -> None:
        self.values: Dict[object, int] = {}
        self.lost = 0

    def result(self) -> SiteResult:
        return {"values": dict(self.values), "lost": self.lost}


@dataclass(frozen=True)
class RecordReg(ObservationOp):
    """Record ``regs[slot]`` (register ``reg`` written in ``block``)."""

    slot: int
    block: str
    reg: str

    @property
    def site(self) -> str:
        return f"{self.block}:{self.reg}"

    def __str__(self) -> str:
        return f"record[{self.site}]"

    def compile_step(self, ctx: HookContext
                     ) -> Tuple[Callable[["Frame"], None], float]:
        state = cast(Dict[str, _SiteTable], ctx.state)
        table = state.setdefault(self.site, _SiteTable())
        slot = self.slot

        def step(frame: "Frame") -> None:
            value = frame.regs[slot]
            values = table.values
            count = values.get(value)
            if count is not None:
                values[value] = count + 1
            elif len(values) < VALUE_CAP:
                values[value] = 1
            else:
                table.lost += 1
        return step, ctx.cost_model.value_record

    def validate(self, func: "Function", edge: "Edge") -> List[str]:
        errors: List[str] = []
        if edge.src != self.block:
            errors.append(
                f"record site {self.site!r} placed on edge leaving "
                f"{edge.src!r}, not its block")
        if not 0 <= self.slot < func.num_slots:
            errors.append(
                f"record site {self.site!r} reads slot {self.slot}, "
                f"out of range for {func.name!r} ({func.num_slots} slots)")
        return errors


@register
class ValueProfiler(Profiler):
    """Top-N values observed at every register write site."""

    name = "values"
    description = "top-N values per register write site (bounded table)"

    def instrument(self, module: "Module",
                   cost_model: "CostModel") -> ModuleObservations:
        obs = ModuleObservations()
        for fname, func in module.functions.items():
            edge_ops: Dict[int, List[ObservationOp]] = {}
            for bname, block in func.cfg.blocks.items():
                exits = block_exit_uids(func, bname)
                if not exits:
                    continue  # Ret-terminated: no exit edge to observe
                written: Dict[str, int] = {}
                for instr in block.instructions:
                    dst = getattr(instr, "dst", None)
                    if dst is not None:
                        written[cast(str, dst)] = func.register_slots[
                            cast(str, dst)]
                if not written:
                    continue
                ops: List[ObservationOp] = [
                    RecordReg(slot, bname, reg)
                    for reg, slot in sorted(written.items(),
                                            key=lambda item: item[1])
                ]
                for uid in exits:
                    edge_ops.setdefault(uid, []).extend(ops)
            if edge_ops:
                obs.functions[fname] = FunctionObservations(
                    edge_ops=edge_ops,
                    context=HookContext(cost_model, state={}))
        return obs

    def collect(self, machine: "Machine",
                obs: ModuleObservations) -> ValueProfile:
        out: ValueProfile = {}
        for fname, fobs in obs.functions.items():
            state = cast(Dict[str, _SiteTable], fobs.context.state)
            out[fname] = {site: table.result()
                          for site, table in sorted(state.items())}
        return out


def top_values(site: SiteResult, n: int = TOP_N
               ) -> List[Tuple[object, int]]:
    """The site's ``n`` most frequent values (count desc, value repr
    asc for deterministic ties)."""
    values = cast(Dict[object, int], site["values"])
    ranked = sorted(values.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    return ranked[:n]
