"""Generic worklist dataflow framework over :mod:`repro.cfg` graphs.

A :class:`DataflowProblem` describes one analysis: a direction
(``forward`` or ``backward``), a boundary value for the graph's
entry/exit, an initial interior value, a ``meet`` over predecessor (or
successor) values — union for *may* problems, intersection for *must*
problems — and a per-block ``transfer`` function.  :func:`solve` runs the
classic iterative worklist algorithm to a fixpoint and returns the
``in``/``out`` value maps.

Shipped clients:

* :class:`ReachingDefinitions` — forward/may; which ``(block, index,
  register)`` definition sites reach each block.
* :class:`DefiniteAssignment` — forward/must; which registers are
  assigned on *every* path from entry (parameters are assigned at the
  boundary).  The use-before-def lint is built on this.
* :class:`LiveRegisters` — backward/may; register liveness, equivalent
  to :class:`repro.opt.liveness.Liveness` but expressed on the framework.
"""

from __future__ import annotations

import abc
from typing import Generic, NamedTuple, TypeVar

from ..cfg.graph import ControlFlowGraph
from ..cfg.traversal import postorder, reverse_postorder
from ..ir.function import Function
from ..opt.liveness import block_use_def

T = TypeVar("T")


class DataflowProblem(abc.ABC, Generic[T]):
    """One dataflow analysis over a :class:`ControlFlowGraph`.

    Values of type ``T`` must be immutable (the framework caches and
    compares them); ``frozenset`` is the usual choice.
    """

    #: ``"forward"`` propagates entry→exit, ``"backward"`` exit→entry.
    direction: str = "forward"

    @abc.abstractmethod
    def boundary(self) -> T:
        """Value at the graph boundary (entry in-value, or exit
        out-value for backward problems)."""

    @abc.abstractmethod
    def init(self) -> T:
        """Optimistic initial interior value (top of the lattice)."""

    @abc.abstractmethod
    def meet(self, values: list[T]) -> T:
        """Combine incoming values; called with at least one value."""

    @abc.abstractmethod
    def transfer(self, block: str, value: T) -> T:
        """Apply one block's effect to its in-value (out-value when
        backward)."""


class DataflowResult(Generic[T]):
    """Fixpoint ``in``/``out`` values per block.

    For forward problems ``in_of`` is the value on block entry and
    ``out_of`` the value after the block's transfer; for backward
    problems ``in_of`` is the value at the block's *exit* (the meet over
    successors) and ``out_of`` the value propagated to predecessors.
    """

    def __init__(self, in_values: dict[str, T], out_values: dict[str, T],
                 iterations: int):
        self._in = in_values
        self._out = out_values
        self.iterations = iterations

    def in_of(self, block: str) -> T:
        return self._in[block]

    def out_of(self, block: str) -> T:
        return self._out[block]


def solve(cfg: ControlFlowGraph,
          problem: DataflowProblem[T]) -> DataflowResult[T]:
    """Run ``problem`` to a fixpoint with a worklist."""
    forward = problem.direction == "forward"
    if forward:
        order = reverse_postorder(cfg)
        sources = cfg.preds
        sinks = cfg.succs
        start = cfg.entry
    else:
        order = postorder(cfg)
        sources = cfg.succs
        sinks = cfg.preds
        start = cfg.exit
    position = {name: i for i, name in enumerate(order)}
    in_values: dict[str, T] = {}
    out_values: dict[str, T] = {}
    for name in cfg.blocks:
        out_values[name] = problem.init()
        in_values[name] = problem.init()

    pending = set(order)
    iterations = 0
    while pending:
        # Deterministic worklist: process in (reverse) postorder position.
        name = min(pending, key=lambda n: position[n])
        pending.discard(name)
        iterations += 1
        incoming = [out_values[p] for p in sources(name)
                    if p in position]
        if name == start:
            incoming.append(problem.boundary())
        value = problem.meet(incoming) if incoming else problem.init()
        in_values[name] = value
        new_out = problem.transfer(name, value)
        if new_out != out_values[name]:
            out_values[name] = new_out
            for succ in sinks(name):
                if succ in position:
                    pending.add(succ)
    return DataflowResult(in_values, out_values, iterations)


# ---------------------------------------------------------------------------
# Clients
# ---------------------------------------------------------------------------

class Def(NamedTuple):
    """One definition site: instruction ``index`` in ``block`` writes
    register ``reg``."""

    block: str
    index: int
    reg: str


class ReachingDefinitions(DataflowProblem[frozenset]):
    """Forward/may: the definition sites that reach each block."""

    direction = "forward"

    def __init__(self, func: Function):
        self.func = func
        self._gen: dict[str, frozenset] = {}
        self._kill_regs: dict[str, frozenset] = {}
        for name, block in func.cfg.blocks.items():
            last: dict[str, Def] = {}
            for index, instr in enumerate(block.instructions):
                written = instr.register_written()
                if written is not None:
                    last[written] = Def(name, index, written)
            self._gen[name] = frozenset(last.values())
            self._kill_regs[name] = frozenset(last)
        self.result = solve(func.cfg, self)

    def boundary(self) -> frozenset:
        return frozenset()

    def init(self) -> frozenset:
        return frozenset()

    def meet(self, values: list[frozenset]) -> frozenset:
        return frozenset().union(*values)

    def transfer(self, block: str, value: frozenset) -> frozenset:
        killed = self._kill_regs[block]
        survivors = frozenset(d for d in value if d.reg not in killed)
        return survivors | self._gen[block]

    def reaching(self, block: str) -> frozenset:
        """Definition sites live on entry to ``block``."""
        return self.result.in_of(block)


class DefiniteAssignment(DataflowProblem[frozenset]):
    """Forward/must: registers assigned on *every* path to each block.

    Function parameters are assigned at the boundary.  ``init`` is the
    universe of all registers (optimistic top for an intersection meet).
    """

    direction = "forward"

    def __init__(self, func: Function):
        self.func = func
        self._universe = self._all_registers(func)
        self._defs: dict[str, frozenset] = {}
        for name, block in func.cfg.blocks.items():
            written = {instr.register_written()
                       for instr in block.instructions}
            written.discard(None)
            self._defs[name] = frozenset(w for w in written
                                         if w is not None)
        self.result = solve(func.cfg, self)

    @staticmethod
    def _all_registers(func: Function) -> frozenset:
        regs: set[str] = set(func.params)
        for block in func.cfg.blocks.values():
            for instr in block.instructions:
                written = instr.register_written()
                if written is not None:
                    regs.add(written)
                regs.update(instr.registers_read())
        return frozenset(regs)

    def boundary(self) -> frozenset:
        return frozenset(self.func.params)

    def init(self) -> frozenset:
        return self._universe

    def meet(self, values: list[frozenset]) -> frozenset:
        combined = values[0]
        for value in values[1:]:
            combined = combined & value
        return combined

    def transfer(self, block: str, value: frozenset) -> frozenset:
        return value | self._defs[block]

    def assigned_on_entry(self, block: str) -> frozenset:
        return self.result.in_of(block)


class LiveRegisters(DataflowProblem[frozenset]):
    """Backward/may register liveness on the framework.

    Produces the same ``live_in``/``live_out`` sets as
    :class:`repro.opt.liveness.Liveness` (asserted by the test suite).
    """

    direction = "backward"

    def __init__(self, func: Function):
        self.func = func
        self._use: dict[str, frozenset] = {}
        self._def: dict[str, frozenset] = {}
        for name, block in func.cfg.blocks.items():
            uses, defs = block_use_def(block.instructions)
            self._use[name] = frozenset(uses)
            self._def[name] = frozenset(defs)
        self.result = solve(func.cfg, self)

    def boundary(self) -> frozenset:
        return frozenset()

    def init(self) -> frozenset:
        return frozenset()

    def meet(self, values: list[frozenset]) -> frozenset:
        return frozenset().union(*values)

    def transfer(self, block: str, value: frozenset) -> frozenset:
        return self._use[block] | (value - self._def[block])

    def live_in(self, block: str) -> frozenset:
        return self.result.out_of(block)

    def live_out(self, block: str) -> frozenset:
        return self.result.in_of(block)


class DominatorSets(DataflowProblem[frozenset]):
    """Forward/must: the full dominator set of each block.

    Mostly useful as a framework exerciser; agrees with the
    Cooper–Harvey–Kennedy :class:`DominatorTree` (asserted in tests).
    """

    direction = "forward"

    def __init__(self, cfg: ControlFlowGraph):
        self.cfg = cfg
        self._universe = frozenset(cfg.blocks)
        self.result = solve(cfg, self)

    def boundary(self) -> frozenset:
        return frozenset()

    def init(self) -> frozenset:
        return self._universe

    def meet(self, values: list[frozenset]) -> frozenset:
        combined = values[0]
        for value in values[1:]:
            combined = combined & value
        return combined

    def transfer(self, block: str, value: frozenset) -> frozenset:
        return value | {block}

    def dominators_of(self, block: str) -> frozenset:
        return self.result.out_of(block)
