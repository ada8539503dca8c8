"""Score a plan from a module's recording instead of executing it.

Every op a plan places has a fixed unit cost (:mod:`repro.interp.costs`),
and the counter index a Ball-Larus path bumps depends only on the edges
the path takes.  So a plan's counter stores and cost counter follow
from what :func:`~repro.core.stream.record_module` already observed:

* each distinct recorded path runs the plan's ops along its edges once
  -- first the *init part* of the back edge it started after (if any),
  last the *count part* of the back edge it ended at (if any) -- and
  every resulting bump is applied with the path's multiplicity;
* paths replay in first-seen order.  A
  :class:`~repro.core.runtime.HashStore`'s final state depends only on
  the order in which keys first arrive, because keys never leave, and
  that order is the order the paths were first seen;
* instrumentation is billed per edge: traversals from the recording's
  edge profile times the unit costs of the edge's ops.  The unit costs
  are whole numbers, so these float sums are exact and equal the
  executing run's per-traversal sums.

:func:`~repro.core.pipeline.run_with_plan` stays the executing oracle
(the way the tuple backend stays for the compiled one); the tests hold
the two equal on every plan the harness scores.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..interp.costs import DEFAULT_COSTS, CostCounter, CostModel
from ..interp.machine import RunResult
from .attach import StepCompiler
from .ops import AddReg, CountConst, CountReg, InstrOp, SetReg
from .pipeline import FunctionPlan, ModulePlan, ProfileRun
from .runtime import HashStore, make_store
from .stream import Recording

# The counter indices a path bumps, in order; None is a cold bump.
Bumps = list[Optional[int]]


class ReplayError(Exception):
    """A plan whose placement the replay cannot attribute to paths."""


def _split_fold(ops: Sequence[InstrOp]
                ) -> tuple[tuple[InstrOp, ...], tuple[InstrOp, ...]]:
    """A back edge's folded ops as ``(count part, init part)``.

    The placer folds the tail's exit-dummy ops (counting the path that
    ends) before the header's entry-dummy ops (initialising the next),
    each part at most one op.  Split by op type, never by dummy
    liveness: a live exit dummy may carry nothing once its count was
    pushed up onto the loop exits.  A lone ``CountConst`` fires as the
    back edge is traversed, which is when the ending path completes.
    """
    ops = tuple(ops)
    if len(ops) >= 2:
        return ops[:1], ops[1:]
    if ops and isinstance(ops[0], SetReg):
        return (), ops
    return ops, ()


def _run_ops(ops: Sequence[InstrOp], reg: int, bumps: Bumps,
             checked: bool) -> int:
    """Apply ``ops`` to path register ``reg``, appending each counter
    bump; the register afterwards."""
    for op in ops:
        if isinstance(op, SetReg):
            reg = op.value
        elif isinstance(op, AddReg):
            reg += op.value
        elif isinstance(op, CountReg):
            bumps.append(None if checked and reg < 0 else reg + op.add)
        elif isinstance(op, CountConst):
            bumps.append(op.value)
        else:
            raise ReplayError(f"not a path-register op: {op!r}")
    return reg


def _op_cost(op: InstrOp, cost_model: CostModel, count_cost: float,
             checked: bool) -> float:
    if isinstance(op, SetReg):
        return cost_model.reg_set
    if isinstance(op, AddReg):
        return cost_model.reg_add
    if isinstance(op, CountReg) and checked:
        return count_cost + cost_model.poison_check
    return count_cost


class _FunctionReplay:
    """One instrumented function's ops, indexed for path walks."""

    def __init__(self, name: str, fplan: FunctionPlan):
        placement = fplan.placement
        dag = fplan.dag
        assert placement is not None and dag is not None
        self.func = fplan.func
        self.edge_ops = placement.edge_ops
        self.checked = fplan.poison_style == "check"
        self.store = make_store(placement.num_hot, placement.counter_span,
                                fplan.use_hash)
        self.init_of: dict[str, tuple[InstrOp, ...]] = {}
        self.count_of: dict[str, tuple[InstrOp, ...]] = {}
        for back in dag.back_edges:
            count, init = _split_fold(placement.edge_ops.get(back.uid, ()))
            if self.count_of.setdefault(back.src, count) != count:
                raise ReplayError(
                    f"{name}: back edges leaving {back.src!r} disagree on "
                    f"the count part of their folded ops")
            if self.init_of.setdefault(back.dst, init) != init:
                raise ReplayError(
                    f"{name}: back edges entering {back.dst!r} disagree "
                    f"on the init part of their folded ops")

    def bumps(self, blocks: tuple[str, ...]) -> Bumps:
        """The counter bumps one completion of the path makes."""
        cfg = self.func.cfg
        targets = self.func.edge_by_target
        bumps: Bumps = []
        reg = 0
        if blocks[0] != cfg.entry:
            reg = _run_ops(self.init_of[blocks[0]], reg, bumps, self.checked)
        for src, dst in zip(blocks, blocks[1:]):
            reg = _run_ops(self.edge_ops.get(targets[src][dst].uid, ()),
                           reg, bumps, self.checked)
        if blocks[-1] != cfg.exit:
            _run_ops(self.count_of[blocks[-1]], reg, bumps, self.checked)
        return bumps

    def edge_cost(self, ops: Sequence[InstrOp],
                  cost_model: CostModel) -> float:
        count_cost = (cost_model.count_hash
                      if isinstance(self.store, HashStore)
                      else cost_model.count_array)
        return sum(_op_cost(op, cost_model, count_cost, self.checked)
                   for op in ops)


def replay_plan(plan: ModulePlan, recording: Recording,
                profilers: tuple[str, ...]) -> ProfileRun:
    """The :class:`ProfileRun` a lone ``run_with_plan(plan,
    profilers=profilers)`` of the recorded module yields: its counter
    stores and its cost counter (the registry ``profilers``' ops billed
    too), read off ``recording`` without running anything.  The
    profilers' own results are not collected."""
    cost_model = DEFAULT_COSTS
    costs = CostCounter(base=recording.base_cost)
    edges = recording.edges
    # Per function and edge: (unit cost, op count) of everything placed.
    billed: dict[str, dict[int, list]] = {}
    functions: dict[str, _FunctionReplay] = {}
    for name, fplan in plan.functions.items():
        if not fplan.instrumented or fplan.placement is None:
            continue
        replay = functions[name] = _FunctionReplay(name, fplan)
        own = billed.setdefault(name, {})
        for uid, ops in fplan.placement.edge_ops.items():
            if ops:
                own[uid] = [replay.edge_cost(ops, cost_model), len(ops)]
    if profilers:
        # Imported lazily: repro.profilers imports repro.core.
        from ..profilers import create_profilers

        for profiler in create_profilers(profilers):
            observations = profiler.instrument(plan.module, cost_model)
            for name, fobs in observations.functions.items():
                own = billed.setdefault(name, {})
                compiler = StepCompiler(fobs.context)
                for uid, ops in fobs.edge_ops.items():
                    if ops:
                        steps, cost = compiler.compile(ops)
                        entry = own.setdefault(uid, [0.0, 0])
                        entry[0] += cost
                        entry[1] += len(steps)
    for name, own in billed.items():
        freq = edges[name].edge_freq
        for uid, (cost, n_ops) in own.items():
            traversals = freq.get(uid, 0)
            costs.instrumentation += traversals * cost
            costs.instrumentation_ops += traversals * n_ops
    counts = recording.paths
    for function, blocks in recording.distinct_paths:
        replay = functions.get(function)
        if replay is None:
            continue
        times = counts[function].counts[blocks]
        store = replay.store
        for index in replay.bumps(blocks):
            if index is None:
                store.cold += times
            else:
                store.add(index, times)
    run = RunResult(
        return_value=recording.return_value,
        instructions_executed=recording.instructions_executed,
        costs=costs,
        invocations={name: fp.entry_count
                     for name, fp in edges.functions.items()})
    return ProfileRun(plan, run, {name: replay.store
                                  for name, replay in functions.items()})
