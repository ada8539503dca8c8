"""IR functions and modules.

A :class:`Function` owns a :class:`~repro.cfg.graph.ControlFlowGraph` whose
blocks hold instruction lists.  Calling :meth:`Function.seal` derives the
CFG edges from each block's terminator, checks the single-exit invariant,
and precomputes the lookup tables the interpreter needs (register slots and
per-block successor-edge maps).
"""

from __future__ import annotations

from typing import Optional

from ..cfg.graph import ControlFlowGraph, Edge
from .instructions import Branch, Call, Instr, Jump, Ret


class IRError(Exception):
    """Raised for malformed IR."""


class Function:
    """An IR function: parameters, local arrays, and a CFG of instructions."""

    def __init__(self, name: str, params: Optional[list[str]] = None):
        self.name = name
        self.params: list[str] = list(params or [])
        self.cfg = ControlFlowGraph(name)
        self.arrays: dict[str, int] = {}  # local array name -> size
        self.sealed = False
        # Blocks inserted by tools (optimizer passes, instrumentation)
        # rather than written by the programmer.  Diagnostics attribute
        # findings in these blocks to the inserting tool and the lint
        # passes do not warn on them by default.
        self.synthetic_blocks: set[str] = set()
        # Filled by seal():
        self.register_slots: dict[str, int] = {}
        self.num_slots = 0
        # block name -> {successor label -> Edge}
        self.edge_by_target: dict[str, dict[str, Edge]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_block(self, name: str) -> str:
        self._check_mutable()
        self.cfg.add_block(name)
        return name

    def add_local_array(self, name: str, size: int) -> None:
        self._check_mutable()
        if size <= 0:
            raise IRError(f"array {name!r} must have positive size")
        if name in self.arrays:
            raise IRError(f"duplicate local array {name!r}")
        self.arrays[name] = size

    def append(self, block: str, instr: Instr) -> None:
        self._check_mutable()
        instrs = self.cfg.blocks[block].instructions
        if instrs and instrs[-1].is_terminator:
            raise IRError(f"block {block!r} already terminated")
        instrs.append(instr)

    def _check_mutable(self) -> None:
        if self.sealed:
            raise IRError(f"function {self.name!r} is sealed")

    # ------------------------------------------------------------------
    # Sealing
    # ------------------------------------------------------------------

    def seal(self, entry: str) -> None:
        """Derive CFG edges from terminators and freeze the function.

        Enforces: every block ends in a terminator; exactly one block ends
        in ``Ret`` (the canonical exit, as the Ball-Larus algorithms
        require a single exit node).
        """
        self._check_mutable()
        cfg = self.cfg
        cfg.set_entry(entry)
        exit_block: Optional[str] = None
        for name, block in cfg.blocks.items():
            if not block.instructions or not block.instructions[-1].is_terminator:
                raise IRError(f"block {name!r} lacks a terminator")
            term = block.instructions[-1]
            if isinstance(term, Jump):
                cfg.add_edge(name, term.target)
            elif isinstance(term, Branch):
                cfg.add_edge(name, term.then_target)
                cfg.add_edge(name, term.else_target)
            elif isinstance(term, Ret):
                if exit_block is not None:
                    raise IRError(
                        f"function {self.name!r} has multiple return blocks "
                        f"({exit_block!r} and {name!r}); lower to one exit")
                exit_block = name
            else:  # pragma: no cover - defensive
                raise IRError(f"unknown terminator in {name!r}: {term!r}")
        if exit_block is None:
            raise IRError(f"function {self.name!r} has no return block")
        cfg.set_exit(exit_block)
        self._assign_slots()
        self._index_edges()
        self.sealed = True

    def _assign_slots(self) -> None:
        slots: dict[str, int] = {}

        def touch(reg: Optional[str]) -> None:
            if reg is not None and reg not in slots:
                slots[reg] = len(slots)

        for param in self.params:
            touch(param)
        for block in self.cfg.blocks.values():
            for instr in block.instructions:
                for reg in instr.registers_read():
                    touch(reg)
                touch(instr.register_written())
        self.register_slots = slots
        self.num_slots = len(slots)

    def _index_edges(self) -> None:
        self.edge_by_target = {}
        for name, block in self.cfg.blocks.items():
            table: dict[str, Edge] = {}
            for edge in block.succ_edges:
                if edge.dst in table:
                    raise IRError(
                        f"parallel edges {name}->{edge.dst} in sealed IR")
                table[edge.dst] = edge
            self.edge_by_target[name] = table

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def mark_synthetic(self, *names: str) -> None:
        """Tag blocks as tool-inserted (marking stays legal after seal)."""
        self.synthetic_blocks.update(names)

    def is_synthetic(self, name: str) -> bool:
        """True when ``name`` was inserted by a tool, not the programmer.

        Robust against :class:`Function` objects unpickled from caches
        written before the tag existed.
        """
        return name in getattr(self, "synthetic_blocks", ())

    def instructions(self, block: str) -> list[Instr]:
        return self.cfg.blocks[block].instructions

    def terminator(self, block: str) -> Instr:
        return self.cfg.blocks[block].instructions[-1]

    def size(self) -> int:
        """Total number of IR statements, the paper's code-size measure."""
        return sum(len(b.instructions) for b in self.cfg.blocks.values())

    def call_sites(self) -> list[tuple[str, int, Call]]:
        """All calls as (block, instruction index, Call) triples."""
        out: list[tuple[str, int, Call]] = []
        for name, block in self.cfg.blocks.items():
            for i, instr in enumerate(block.instructions):
                if isinstance(instr, Call):
                    out.append((name, i, instr))
        return out

    def __repr__(self) -> str:
        return (f"Function({self.name!r}, params={self.params}, "
                f"blocks={self.cfg.num_blocks})")


class Module:
    """A collection of IR functions plus module-level state.

    ``main`` names the entry function.  Global scalars start at 0; global
    arrays are zero-filled.
    """

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: dict[str, Function] = {}
        self.global_scalars: dict[str, float] = {}
        self.global_arrays: dict[str, int] = {}  # name -> size
        self.main = "main"

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise IRError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        return func

    def add_global_scalar(self, name: str, initial: float = 0) -> None:
        if name in self.global_scalars:
            raise IRError(f"duplicate global scalar {name!r}")
        self.global_scalars[name] = initial

    def add_global_array(self, name: str, size: int) -> None:
        if size <= 0:
            raise IRError(f"array {name!r} must have positive size")
        if name in self.global_arrays:
            raise IRError(f"duplicate global array {name!r}")
        self.global_arrays[name] = size

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"unknown function {name!r}") from None

    def size(self) -> int:
        """Total IR statements across all functions."""
        return sum(f.size() for f in self.functions.values())

    def __repr__(self) -> str:
        return f"Module({self.name!r}, functions={list(self.functions)})"
