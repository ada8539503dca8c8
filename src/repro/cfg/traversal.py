"""Graph traversals: DFS orders, reachability, topological sorting.

All algorithms are iterative (no recursion) so deeply nested or long CFGs
never hit Python's recursion limit.
"""

from __future__ import annotations

from .graph import CFGError, ControlFlowGraph


def depth_first_order(cfg: ControlFlowGraph) -> list[str]:
    """Blocks in depth-first preorder from the entry."""
    start = cfg.entry
    if start is None:
        raise CFGError("graph has no entry block")
    seen: set[str] = set()
    order: list[str] = []
    stack = [start]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        order.append(name)
        # Reverse so the first successor is visited first.
        stack.extend(reversed(cfg.succs(name)))
    return order


def postorder(cfg: ControlFlowGraph) -> list[str]:
    """Blocks in depth-first postorder from the entry."""
    start = cfg.entry
    if start is None:
        raise CFGError("graph has no entry block")
    seen: set[str] = set()
    order: list[str] = []
    # Stack holds (block, iterator over successor names).
    stack: list[tuple[str, list[str], int]] = []
    seen.add(start)
    stack.append((start, cfg.succs(start), 0))
    while stack:
        name, succs, idx = stack.pop()
        while idx < len(succs) and succs[idx] in seen:
            idx += 1
        if idx == len(succs):
            order.append(name)
        else:
            nxt = succs[idx]
            stack.append((name, succs, idx + 1))
            seen.add(nxt)
            stack.append((nxt, cfg.succs(nxt), 0))
    return order


def reverse_postorder(cfg: ControlFlowGraph) -> list[str]:
    """Blocks in reverse postorder (a topological order on acyclic graphs)."""
    order = postorder(cfg)
    order.reverse()
    return order


def reachable(cfg: ControlFlowGraph) -> set[str]:
    """Blocks reachable from the entry."""
    return set(depth_first_order(cfg))


def topological_order(cfg: ControlFlowGraph) -> list[str]:
    """Topological order of an acyclic graph via Kahn's algorithm.

    Only blocks reachable from the entry are included.  Raises
    :class:`CFGError` if a cycle is reachable (callers convert to a DAG
    first; see :mod:`repro.cfg.dag`).
    """
    if cfg.entry is None:
        raise CFGError("graph has no entry block")
    live = reachable(cfg)
    indeg: dict[str, int] = {name: 0 for name in live}
    for name in live:
        for dst in cfg.succs(name):
            indeg[dst] += 1
    ready = [n for n, d in indeg.items() if d == 0]
    # Keep the order deterministic: entry first, then insertion order.
    ready.sort(key=lambda n: (n != cfg.entry, n))
    order: list[str] = []
    while ready:
        name = ready.pop()
        order.append(name)
        for dst in cfg.succs(name):
            indeg[dst] -= 1
            if indeg[dst] == 0:
                ready.append(dst)
    if len(order) != len(live):
        raise CFGError(f"cycle detected in {cfg.name!r}; not a DAG")
    return order


def reverse_topological_order(cfg: ControlFlowGraph) -> list[str]:
    """Reverse topological order of an acyclic graph."""
    order = topological_order(cfg)
    order.reverse()
    return order


def is_acyclic(cfg: ControlFlowGraph) -> bool:
    """True when no cycle is reachable from the entry."""
    try:
        topological_order(cfg)
    except CFGError:
        return False
    return True
