"""Core control-flow graph data structures.

This module defines the :class:`ControlFlowGraph` used throughout the
reproduction.  The Ball-Larus family of path-profiling algorithms (PP, TPP,
PPP) all operate on a single-entry / single-exit CFG, so that invariant is
enforced here.  Parallel edges are permitted (the CFG->DAG conversion in
:mod:`repro.cfg.dag` introduces "dummy" edges that may parallel real ones),
so edges carry a unique integer id and are hashable by that id.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional


class CFGError(Exception):
    """Raised for structurally invalid control-flow graphs."""


class Edge:
    """A directed control-flow edge.

    Edges are identified by a unique integer id so that parallel edges
    (same source and destination) remain distinct.  The ``dummy`` flag marks
    edges added by the CFG->DAG conversion (entry->loop-header and
    loop-tail->exit); ``back_edge`` records the original back edge a dummy
    edge stands in for.
    """

    __slots__ = ("uid", "src", "dst", "dummy", "back_edge")

    def __init__(self, uid: int, src: str, dst: str, dummy: bool = False,
                 back_edge: Optional["Edge"] = None):
        self.uid = uid
        self.src = src
        self.dst = dst
        self.dummy = dummy
        self.back_edge = back_edge

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Edge) and other.uid == self.uid

    def __repr__(self) -> str:
        mark = "~" if self.dummy else ""
        return f"Edge({self.src}{mark}->{self.dst})"

    @property
    def pair(self) -> tuple[str, str]:
        """The (source, destination) block names."""
        return (self.src, self.dst)


class BasicBlock:
    """A basic block: a named node of the CFG.

    The CFG layer is agnostic to what a block contains; the IR layer stores
    instruction lists in ``instructions``.  ``succ_edges`` / ``pred_edges``
    are maintained by :class:`ControlFlowGraph`.
    """

    __slots__ = ("name", "instructions", "succ_edges", "pred_edges")

    def __init__(self, name: str, instructions: Optional[list] = None):
        self.name = name
        self.instructions = instructions if instructions is not None else []
        self.succ_edges: list[Edge] = []
        self.pred_edges: list[Edge] = []

    def __repr__(self) -> str:
        return f"BasicBlock({self.name!r})"


class ControlFlowGraph:
    """A single-entry, single-exit control-flow graph.

    Blocks are addressed by name.  The graph supports parallel edges; use
    :meth:`edges_between` when more than one edge may connect two blocks.
    """

    def __init__(self, name: str = "cfg"):
        self.name = name
        self.blocks: dict[str, BasicBlock] = {}
        self.entry: Optional[str] = None
        self.exit: Optional[str] = None
        self._edges: dict[int, Edge] = {}
        self._next_uid = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_block(self, name: str, instructions: Optional[list] = None) -> BasicBlock:
        """Create and register a block.  Raises if the name already exists."""
        if name in self.blocks:
            raise CFGError(f"duplicate block name: {name!r}")
        block = BasicBlock(name, instructions)
        self.blocks[name] = block
        return block

    def ensure_block(self, name: str) -> BasicBlock:
        """Return the named block, creating it if absent."""
        if name in self.blocks:
            return self.blocks[name]
        return self.add_block(name)

    def add_edge(self, src: str, dst: str, dummy: bool = False,
                 back_edge: Optional[Edge] = None) -> Edge:
        """Add a directed edge; both endpoints must already exist."""
        if src not in self.blocks:
            raise CFGError(f"unknown source block: {src!r}")
        if dst not in self.blocks:
            raise CFGError(f"unknown destination block: {dst!r}")
        edge = Edge(self._next_uid, src, dst, dummy=dummy, back_edge=back_edge)
        self._next_uid += 1
        self._edges[edge.uid] = edge
        self.blocks[src].succ_edges.append(edge)
        self.blocks[dst].pred_edges.append(edge)
        return edge

    def remove_edge(self, edge: Edge) -> None:
        """Remove an edge from the graph."""
        if edge.uid not in self._edges:
            raise CFGError(f"edge not in graph: {edge!r}")
        del self._edges[edge.uid]
        self.blocks[edge.src].succ_edges.remove(edge)
        self.blocks[edge.dst].pred_edges.remove(edge)

    def set_entry(self, name: str) -> None:
        if name not in self.blocks:
            raise CFGError(f"unknown entry block: {name!r}")
        self.entry = name

    def set_exit(self, name: str) -> None:
        if name not in self.blocks:
            raise CFGError(f"unknown exit block: {name!r}")
        self.exit = name

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges in insertion order."""
        return iter(list(self._edges.values()))

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def succs(self, name: str) -> list[str]:
        """Successor block names (with duplicates for parallel edges)."""
        return [e.dst for e in self.blocks[name].succ_edges]

    def preds(self, name: str) -> list[str]:
        """Predecessor block names (with duplicates for parallel edges)."""
        return [e.src for e in self.blocks[name].pred_edges]

    def out_edges(self, name: str) -> list[Edge]:
        return list(self.blocks[name].succ_edges)

    def in_edges(self, name: str) -> list[Edge]:
        return list(self.blocks[name].pred_edges)

    def edges_between(self, src: str, dst: str) -> list[Edge]:
        """All edges from ``src`` to ``dst`` (may be several)."""
        return [e for e in self.blocks[src].succ_edges if e.dst == dst]

    def edge(self, src: str, dst: str) -> Edge:
        """The unique edge from ``src`` to ``dst``.

        Raises :class:`CFGError` when there is no edge or more than one.
        """
        found = self.edges_between(src, dst)
        if len(found) != 1:
            raise CFGError(
                f"expected exactly one edge {src}->{dst}, found {len(found)}")
        return found[0]

    def has_edge(self, src: str, dst: str) -> bool:
        return bool(self.edges_between(src, dst))

    # ------------------------------------------------------------------
    # Validation & misc
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check single-entry/single-exit structure and adjacency integrity."""
        if self.entry is None or self.entry not in self.blocks:
            raise CFGError("missing or unknown entry block")
        if self.exit is None or self.exit not in self.blocks:
            raise CFGError("missing or unknown exit block")
        if self.blocks[self.entry].pred_edges and self.entry != self.exit:
            # Entry with predecessors is legal in general CFGs (loops back to
            # entry), but the IR lowering never produces it; tolerate it here.
            pass
        for edge in self.edges():
            if edge.src not in self.blocks or edge.dst not in self.blocks:
                raise CFGError(f"dangling edge {edge!r}")
            if edge not in self.blocks[edge.src].succ_edges:
                raise CFGError(f"edge {edge!r} missing from succ list")
            if edge not in self.blocks[edge.dst].pred_edges:
                raise CFGError(f"edge {edge!r} missing from pred list")

    def copy(self) -> "ControlFlowGraph":
        """Structural copy (blocks share instruction lists shallowly)."""
        other = ControlFlowGraph(self.name)
        for name, block in self.blocks.items():
            other.add_block(name, list(block.instructions))
        for edge in self.edges():
            other.add_edge(edge.src, edge.dst, dummy=edge.dummy,
                           back_edge=edge.back_edge)
        other.entry = self.entry
        other.exit = self.exit
        return other

    def __repr__(self) -> str:
        return (f"ControlFlowGraph({self.name!r}, blocks={len(self.blocks)}, "
                f"edges={self.num_edges})")


def build_cfg(name: str, edges: Iterable[tuple[str, str]], entry: str,
              exit_: str) -> ControlFlowGraph:
    """Convenience constructor from an edge list.

    Blocks are created on demand.  Used heavily by tests and examples that
    work with bare graphs rather than full IR functions.
    """
    cfg = ControlFlowGraph(name)
    cfg.ensure_block(entry)
    cfg.ensure_block(exit_)
    for src, dst in edges:
        cfg.ensure_block(src)
        cfg.ensure_block(dst)
        cfg.add_edge(src, dst)
    cfg.set_entry(entry)
    cfg.set_exit(exit_)
    return cfg
