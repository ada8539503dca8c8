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
``(step closure, unit cost)`` pairs.

Accounts: one execution can carry several independent instrumentation
plans.  An *account* is the profiler list one plan's lone run would
have had, with its own :class:`~repro.interp.costs.CostCounter` and,
in every function it observes, its own path register -- a slot past
the IR's registers reserved with
:meth:`~repro.interp.machine.Machine.reserve_register` and carried in
each of its contexts as ``HookContext.reg``.  The machine runs one hook
per edge, so :func:`attach_observations` fuses every account's ops on
an edge into that hook: it runs each account's steps in turn and, after
each account's steps, adds that account's per-edge total to the
account's counter.  Each account therefore sums the same floats in the
same order as its lone run, and its overhead is bit-identical.

Step hoisting: structurally identical op lists (common on the many
cold edges a plan poisons with the same ``SetReg``) are compiled once
per :class:`StepCompiler` and shared across edges -- steps close over
the context's store/state/register, never over the edge, so sharing is
safe.

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
    per-function collection state (tables the steps write into),
    ``cost_model`` prices each op, and ``reg`` is the frame register
    slot of the owning account's path register (set when the account is
    attached).
    """

    __slots__ = ("cost_model", "store", "checked", "state", "reg")

    def __init__(self, cost_model: CostModel,
                 store: Optional[CounterStore] = None,
                 checked: bool = False, state: Any = None):
        self.cost_model = cost_model
        self.store = store
        self.checked = checked
        self.state = state
        self.reg: Optional[int] = None


def _compile_instr_op(op: InstrOp, ctx: HookContext) -> tuple[Step, float]:
    """The specialised fast path for the Ball-Larus path-register ops."""
    cost_model = ctx.cost_model
    store = ctx.store
    if store is None:
        raise TypeError(
            f"{type(op).__name__} requires a counter store in its context")
    reg = ctx.reg
    if isinstance(op, SetReg):
        value = op.value

        def set_step(frame: Frame, _v=value, _r=reg) -> None:
            frame.regs[_r] = _v
        return set_step, cost_model.reg_set
    if isinstance(op, AddReg):
        value = op.value

        def add_step(frame: Frame, _v=value, _r=reg) -> None:
            frame.regs[_r] += _v
        return add_step, cost_model.reg_add
    count_cost = (cost_model.count_hash if _is_hash(store)
                  else cost_model.count_array)
    if isinstance(op, CountReg):
        add = op.add
        if ctx.checked:
            def count_step(frame: Frame, _a=add, _r=reg) -> None:
                path = frame.regs[_r]
                if path < 0:
                    store.bump_cold()
                else:
                    store.bump(path + _a)
            return count_step, count_cost + cost_model.poison_check

        def count_step_free(frame: Frame, _a=add, _r=reg) -> None:
            store.bump(frame.regs[_r] + _a)
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


Part = tuple[tuple[Step, ...], float, CostCounter]


def make_hook(parts: Sequence[Part]) -> Callable[[Frame], None]:
    """Wrap one edge's compiled steps into one billed hook.

    ``parts`` holds one ``(steps, total unit cost, counter)`` triple per
    account with ops on the edge, in account order: each account's
    steps run, then its total is billed to its own counter.
    """
    if len(parts) == 1:
        steps, total_cost, costs = parts[0]
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

    billed = tuple((steps, total_cost, len(steps), costs)
                   for steps, total_cost, costs in parts)

    def hook_accounts(frame: Frame) -> None:
        for steps, total_cost, n_ops, costs in billed:
            for step in steps:
                step(frame)
            costs.instrumentation += total_cost
            costs.instrumentation_ops += n_ops
    return hook_accounts


def _is_hash(store: CounterStore) -> bool:
    from .runtime import HashStore
    return isinstance(store, HashStore)


Contribution = tuple[Mapping[int, Sequence[ObservationOp]], HookContext]


def attach_observations(
        machine: Machine, func_name: str,
        accounts: Sequence[tuple[CostCounter, Sequence[Contribution]]],
) -> None:
    """Attach one function's observations from any number of accounts.

    ``accounts`` holds one ``(costs, contributions)`` pair per account:
    ``costs`` is the counter that account bills, and ``contributions``
    one ``(edge_ops, ctx)`` pair per profiler in it, where ``edge_ops``
    maps CFG edge uid to that profiler's op list for the edge.  Each
    account gets its own path register in this function, recorded in
    its contexts' ``reg``.  The machine runs one hook per edge, so all
    ops landing on an edge are fused into that hook: an account's ops
    run in contribution order and are billed once to its counter (cost
    = sum of unit costs, op count = total steps), one account after the
    other.
    """
    merged: dict[int, list[Part]] = {}
    for costs, contributions in accounts:
        reg = machine.reserve_register(func_name)
        own: dict[int, tuple[list[Step], float]] = {}
        for edge_ops, ctx in contributions:
            ctx.reg = reg
            compiler = StepCompiler(ctx)
            for edge_uid, ops in edge_ops.items():
                if not ops:
                    continue
                steps, cost = compiler.compile(ops)
                entry = own.get(edge_uid)
                if entry is None:
                    own[edge_uid] = (list(steps), cost)
                else:
                    entry[0].extend(steps)
                    own[edge_uid] = (entry[0], entry[1] + cost)
        for edge_uid, (steps, total_cost) in own.items():
            merged.setdefault(edge_uid, []).append(
                (tuple(steps), total_cost, costs))
    for edge_uid, parts in merged.items():
        machine.set_edge_hook(func_name, edge_uid, make_hook(parts))
