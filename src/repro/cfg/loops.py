"""Natural-loop detection and loop nesting.

Ball-Larus profiling breaks every *back edge* when converting the CFG to a
DAG (Section 3.1 of the paper).  A back edge ``t -> h`` is an edge whose
destination dominates its source; the associated natural loop is the set of
blocks that can reach ``t`` without passing through ``h``.

For safety on irreducible graphs (which our structured front end never
produces, but bare CFGs built by hand might), :func:`find_back_edges` also
returns DFS retreating edges so the derived graph is guaranteed acyclic.
"""

from __future__ import annotations

from typing import Optional

from .graph import ControlFlowGraph, Edge
from .dominators import DominatorTree, compute_dominators


class Loop:
    """A natural loop: header, back edges, and member blocks."""

    def __init__(self, header: str, back_edges: list[Edge], body: set[str]):
        self.header = header
        self.back_edges = back_edges
        self.body = body  # includes the header
        self.parent: Optional["Loop"] = None
        self.children: list["Loop"] = []

    @property
    def depth(self) -> int:
        """Nesting depth; outermost loops have depth 1."""
        d = 1
        node = self.parent
        while node is not None:
            d += 1
            node = node.parent
        return d

    def contains(self, name: str) -> bool:
        return name in self.body

    def exit_edges(self, cfg: ControlFlowGraph) -> list[Edge]:
        """Edges from a block inside the loop to a block outside it.

        Iterates members in sorted order: ``body`` is a set, and callers
        feed the result into block/edge construction, where string-hash
        iteration order would leak into uid assignment and make plans
        differ between otherwise identical processes.
        """
        out: list[Edge] = []
        for name in sorted(self.body):
            for edge in cfg.blocks[name].succ_edges:
                if edge.dst not in self.body:
                    out.append(edge)
        return out

    def entry_edges(self, cfg: ControlFlowGraph) -> list[Edge]:
        """Edges from outside the loop to its header (excluding back edges)."""
        return [e for e in cfg.blocks[self.header].pred_edges
                if e.src not in self.body]

    def __repr__(self) -> str:
        return f"Loop(header={self.header!r}, blocks={len(self.body)})"


def find_back_edges(cfg: ControlFlowGraph,
                    dom: Optional[DominatorTree] = None) -> list[Edge]:
    """All edges that must be broken to make the graph acyclic.

    Returns natural back edges (destination dominates source) plus, for
    irreducible regions, any remaining DFS retreating edges.
    """
    if dom is None:
        dom = compute_dominators(cfg)
    back: list[Edge] = []
    back_ids: set[int] = set()
    for edge in cfg.edges():
        if edge.dummy:
            continue
        if dom.dominates(edge.dst, edge.src):
            back.append(edge)
            back_ids.add(edge.uid)
    # Safety net: break DFS retreating edges left by irreducible regions.
    for edge in _retreating_edges(cfg, back_ids):
        back.append(edge)
        back_ids.add(edge.uid)
    return back


def _retreating_edges(cfg: ControlFlowGraph,
                      already_broken: set[int]) -> list[Edge]:
    """DFS retreating edges ignoring edges already marked as back edges."""
    if cfg.entry is None:
        return []
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[str, int] = {name: WHITE for name in cfg.blocks}
    retreating: list[Edge] = []
    stack: list[tuple[str, list[Edge], int]] = []

    def out_edges(name: str) -> list[Edge]:
        return [e for e in cfg.blocks[name].succ_edges
                if e.uid not in already_broken and not e.dummy]

    color[cfg.entry] = GRAY
    stack.append((cfg.entry, out_edges(cfg.entry), 0))
    while stack:
        name, edges, idx = stack.pop()
        advanced = False
        while idx < len(edges):
            edge = edges[idx]
            idx += 1
            if color[edge.dst] == GRAY:
                retreating.append(edge)
            elif color[edge.dst] == WHITE:
                stack.append((name, edges, idx))
                color[edge.dst] = GRAY
                stack.append((edge.dst, out_edges(edge.dst), 0))
                advanced = True
                break
        if not advanced and idx >= len(edges):
            color[name] = BLACK
    return retreating


def find_loops(cfg: ControlFlowGraph,
               dom: Optional[DominatorTree] = None) -> list[Loop]:
    """Natural loops of the graph, with the nesting forest filled in.

    Back edges that share a header are merged into a single loop, following
    the usual convention.  Loops are returned outermost-first.
    """
    if dom is None:
        dom = compute_dominators(cfg)
    by_header: dict[str, list[Edge]] = {}
    for edge in cfg.edges():
        if edge.dummy:
            continue
        if dom.dominates(edge.dst, edge.src):
            by_header.setdefault(edge.dst, []).append(edge)

    loops: list[Loop] = []
    for header, back_edges in by_header.items():
        body = _natural_loop_body(cfg, header, back_edges)
        loops.append(Loop(header, back_edges, body))

    _build_nesting(loops)
    loops.sort(key=lambda lp: lp.depth)
    return loops


def _natural_loop_body(cfg: ControlFlowGraph, header: str,
                       back_edges: list[Edge]) -> set[str]:
    body = {header}
    stack = [e.src for e in back_edges]
    while stack:
        name = stack.pop()
        if name in body:
            continue
        body.add(name)
        for edge in cfg.blocks[name].pred_edges:
            if edge.src not in body:
                stack.append(edge.src)
    return body


def _build_nesting(loops: list[Loop]) -> None:
    """Set parent/children pointers: the parent is the smallest strict superset."""
    for loop in loops:
        best: Optional[Loop] = None
        for other in loops:
            if other is loop:
                continue
            if loop.header in other.body and loop.body <= other.body \
                    and loop.body != other.body:
                if best is None or len(other.body) < len(best.body):
                    best = other
        loop.parent = best
        if best is not None:
            best.children.append(loop)


def loop_depths(cfg: ControlFlowGraph,
                loops: Optional[list[Loop]] = None) -> dict[str, int]:
    """Nesting depth of each block (0 when outside all loops)."""
    if loops is None:
        loops = find_loops(cfg)
    depth = {name: 0 for name in cfg.blocks}
    for loop in loops:
        d = loop.depth
        for name in loop.body:
            if d > depth[name]:
                depth[name] = d
    return depth


def innermost_loops(loops: list[Loop]) -> list[Loop]:
    """Loops with no nested child loops."""
    return [lp for lp in loops if not lp.children]
