"""Compile placed observation ops into interpreter edge hooks.

Each observed CFG edge's op list becomes a small closure attached to
that edge in the :class:`~repro.interp.machine.Machine`; the closure
mutates frame/profiler state, updates counter stores or profiler
tables, and bills the cost model -- exactly the work the inserted
instructions would do in a binary.

This layer is profiler-agnostic.  The Ball-Larus path-register ops
(:class:`~repro.core.ops.InstrOp` family) are compiled by a specialised
fast path below; every other :class:`~repro.core.ops.ObservationOp`
compiles itself via ``op.compile_step(ctx)``.  Both routes produce
``(step closure, unit cost)`` pairs that are billed identically through
the machine's shared :class:`~repro.interp.costs.CostCounter`.

Step hoisting: structurally identical op lists (common on the many
cold edges a plan poisons with the same ``SetReg``) are compiled once
per :class:`StepCompiler` and shared across edges -- steps close over
the context's store/state, never over the edge, so sharing is safe.

Cost accounting (see :mod:`repro.interp.costs`): ``r = v`` and ``r += v``
cost ``reg_set``/``reg_add``; a counter update costs ``count_array`` or
``count_hash`` depending on the store; TPP's poison check adds
``poison_check`` to *every* executed count (hot or cold) -- eliminating
that term is precisely PPP's free-poisoning win.  Profiler-declared ops
declare their own unit costs through ``compile_step``.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Sequence

from ..interp.costs import CostCounter, CostModel
from ..interp.machine import Frame, Machine
from .ops import AddReg, CountConst, CountReg, InstrOp, ObservationOp, SetReg
from .runtime import CounterStore

Step = Callable[[Frame], None]


class HookContext:
    """Everything op compilation may close over, besides the op itself.

    One context per (profiler, function): ``store``/``checked`` serve the
    Ball-Larus ops, ``state`` is the owning profiler's mutable
    per-function collection state (tables the steps write into), and
    ``cost_model`` prices each op.
    """

    __slots__ = ("cost_model", "store", "checked", "state")

    def __init__(self, cost_model: CostModel,
                 store: Optional[CounterStore] = None,
                 checked: bool = False, state: Any = None):
        self.cost_model = cost_model
        self.store = store
        self.checked = checked
        self.state = state


def _compile_instr_op(op: InstrOp, ctx: HookContext) -> tuple[Step, float]:
    """The specialised fast path for the Ball-Larus path-register ops."""
    cost_model = ctx.cost_model
    store = ctx.store
    if store is None:
        raise TypeError(
            f"{type(op).__name__} requires a counter store in its context")
    if isinstance(op, SetReg):
        value = op.value

        def set_step(frame: Frame, _v=value) -> None:
            frame.path_reg = _v
        return set_step, cost_model.reg_set
    if isinstance(op, AddReg):
        value = op.value

        def add_step(frame: Frame, _v=value) -> None:
            frame.path_reg += _v
        return add_step, cost_model.reg_add
    count_cost = (cost_model.count_hash if _is_hash(store)
                  else cost_model.count_array)
    if isinstance(op, CountReg):
        add = op.add
        if ctx.checked:
            def count_step(frame: Frame, _a=add) -> None:
                path = frame.path_reg
                if path < 0:
                    store.bump_cold()
                else:
                    store.bump(path + _a)
            return count_step, count_cost + cost_model.poison_check

        def count_step_free(frame: Frame, _a=add) -> None:
            store.bump(frame.path_reg + _a)
        return count_step_free, count_cost
    if isinstance(op, CountConst):
        value = op.value

        def count_const_step(frame: Frame, _v=value) -> None:
            store.bump(_v)
        # A constant index can never be poisoned, so no check is needed
        # even in checked mode.
        return count_const_step, count_cost
    raise TypeError(f"unknown instrumentation op {op!r}")


class StepCompiler:
    """Compiles op lists to steps, hoisting structurally identical lists.

    One compiler per :class:`HookContext`: within it, every edge whose
    op list compares equal shares one compiled step tuple (ops are
    frozen dataclasses, so equality is structural).
    """

    __slots__ = ("ctx", "_memo")

    def __init__(self, ctx: HookContext):
        self.ctx = ctx
        self._memo: dict[tuple[ObservationOp, ...],
                         tuple[tuple[Step, ...], float]] = {}

    def compile(self, ops: Sequence[ObservationOp]
                ) -> tuple[tuple[Step, ...], float]:
        """``(steps, total unit cost)`` for one traversal of ``ops``."""
        key = tuple(ops)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        steps: list[Step] = []
        total_cost = 0.0
        for op in key:
            if isinstance(op, InstrOp):
                step, cost = _compile_instr_op(op, self.ctx)
            elif isinstance(op, ObservationOp):
                step, cost = op.compile_step(self.ctx)
            else:
                raise TypeError(f"not an observation op: {op!r}")
            steps.append(step)
            total_cost += cost
        compiled = (tuple(steps), total_cost)
        self._memo[key] = compiled
        return compiled


def make_hook(steps: tuple[Step, ...], total_cost: float,
              costs: CostCounter) -> Callable[[Frame], None]:
    """Wrap one edge's compiled steps into one billed hook."""
    n_ops = len(steps)
    if n_ops == 1:
        single = steps[0]

        def hook(frame: Frame) -> None:
            single(frame)
            costs.instrumentation += total_cost
            costs.instrumentation_ops += 1
        return hook

    def hook_multi(frame: Frame) -> None:
        for step in steps:
            step(frame)
        costs.instrumentation += total_cost
        costs.instrumentation_ops += n_ops
    return hook_multi


def _is_hash(store: CounterStore) -> bool:
    from .runtime import HashStore
    return isinstance(store, HashStore)


Contribution = tuple[Mapping[int, Sequence[ObservationOp]], HookContext]


def attach_observations(machine: Machine, func_name: str,
                        contributions: Sequence[Contribution]) -> None:
    """Attach one function's observations from any number of profilers.

    ``contributions`` is a sequence of ``(edge_ops, ctx)`` pairs, one
    per profiler: ``edge_ops`` maps CFG edge uid to that profiler's op
    list for the edge.  Ops landing on the same edge from different
    profilers are fused into ONE hook, executed in contribution order,
    and billed once to the machine's cost counter (cost = sum of unit
    costs, op count = total steps) -- the machine supports a single
    hook per edge, so fusion here is what makes profilers composable.
    """
    merged: dict[int, tuple[list[Step], float]] = {}
    for edge_ops, ctx in contributions:
        compiler = StepCompiler(ctx)
        for edge_uid, ops in edge_ops.items():
            if not ops:
                continue
            steps, cost = compiler.compile(ops)
            entry = merged.get(edge_uid)
            if entry is None:
                merged[edge_uid] = (list(steps), cost)
            else:
                entry[0].extend(steps)
                merged[edge_uid] = (entry[0], entry[1] + cost)
    for edge_uid, (steps, total_cost) in merged.items():
        machine.set_edge_hook(
            func_name, edge_uid,
            make_hook(tuple(steps), total_cost, machine.costs))
