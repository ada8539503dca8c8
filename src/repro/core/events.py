"""Event counting: move path-register increments off hot edges.

Ball's event-counting algorithm (used by PP, Section 3.1) reassigns edge
values so every path still sums to its unique number, but edges on a
maximum-weight spanning tree carry value zero.  The tree is built over the
DAG plus a virtual ``exit -> entry`` edge (every path conceptually crosses
it once), so the telescoping argument closes:

Pick a vertex potential ``phi`` with ``phi(entry) = phi(exit) = 0`` that
satisfies ``Val(e) + phi(src) - phi(dst) = 0`` for every tree edge; then

    NewVal(e) = Val(e) + phi(src(e)) - phi(dst(e))

is zero on tree edges, and along any entry->exit path the potentials
telescope away, so the path sum is unchanged.

PP and TPP weight the tree with static heuristics
(:mod:`repro.core.heuristics`); PPP weights it with the measured edge
profile (Section 4.5), which moves instrumentation off *actually* hot
edges rather than predicted ones.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from ..cfg.dag import ProfilingDag
from ..cfg.graph import Edge


def max_weight_spanning_tree(edges: Iterable[Edge],
                             weights: Mapping[int, float],
                             joined: Optional[tuple[str, str]] = None
                             ) -> set[int]:
    """Kruskal over ``edges`` taken as undirected, heaviest first (ties
    on uid).

    ``joined`` is a block pair merged before the first edge -- event
    counting's virtual exit->entry edge, which is always in the tree.
    An edge whose ends are already connected, a self-loop included,
    stays out.  Returns the uids of the tree edges.
    """
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        root = parent.setdefault(x, x)
        while root != parent[root]:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a: str, b: str) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
        return True

    if joined is not None:
        union(*joined)
    tree: set[int] = set()
    for e in sorted(edges, key=lambda e: (-weights.get(e.uid, 0.0), e.uid)):
        if union(e.src, e.dst):
            tree.add(e.uid)
    return tree


def _potentials(dag: ProfilingDag, tree: set[int], live: set[int],
                vals: dict[int, int]) -> dict[str, int]:
    """phi per block: BFS over the (undirected) spanning tree from entry.

    For a directed tree edge u->v with value val, phi(v) = phi(u) + val;
    the virtual exit->entry edge has value 0, so phi(exit) = phi(entry) = 0.
    Blocks in components the tree does not reach keep phi = 0 (their edges
    can never lie on a complete live path, so their values are irrelevant).
    """
    graph = dag.dag
    adjacency: dict[str, list[tuple[str, int]]] = {n: [] for n in graph.blocks}
    for e in graph.edges():
        if e.uid not in tree:
            continue
        val = vals.get(e.uid, 0)
        adjacency[e.src].append((e.dst, val))     # forward: phi(dst)=phi(src)+v
        adjacency[e.dst].append((e.src, -val))    # backward
    phi: dict[str, int] = {}
    assert graph.entry is not None and graph.exit is not None
    phi[graph.entry] = 0
    phi[graph.exit] = 0  # via the virtual edge
    stack = [graph.entry, graph.exit]
    while stack:
        u = stack.pop()
        for v, delta in adjacency[u]:
            if v not in phi:
                phi[v] = phi[u] + delta
                stack.append(v)
    for name in graph.blocks:
        phi.setdefault(name, 0)
    return phi


def event_count(dag: ProfilingDag, live: set[int], vals: dict[int, int],
                weights: dict[int, float]) -> dict[int, int]:
    """Reassign edge values; tree (predicted-hot) edges become zero.

    ``vals`` are the path-numbering values; ``weights`` the predicted or
    measured edge frequencies.  The returned increments preserve every
    path's number.
    """
    graph = dag.dag
    assert graph.entry is not None and graph.exit is not None
    tree = max_weight_spanning_tree(
        [e for e in graph.edges() if e.uid in live], weights,
        joined=(graph.exit, graph.entry))
    phi = _potentials(dag, tree, live, vals)
    new_vals: dict[int, int] = {}
    for e in dag.dag.edges():
        if e.uid not in live:
            continue
        new_vals[e.uid] = vals.get(e.uid, 0) + phi[e.src] - phi[e.dst]
    return new_vals


def dag_edge_weights(dag: ProfilingDag, cfg_weights: dict[int, float]
                     ) -> dict[int, float]:
    """Lift CFG edge weights onto DAG edges.

    Real edges take their CFG weight; a dummy edge takes the summed CFG
    weight of the back edges it stands for.
    """
    out: dict[int, float] = {}
    for e in dag.dag.edges():
        if dag.is_entry_dummy(e):
            out[e.uid] = sum(cfg_weights.get(b.uid, 0.0)
                             for b in dag.back_edges_into(e.dst))
        elif dag.is_exit_dummy(e):
            out[e.uid] = sum(cfg_weights.get(b.uid, 0.0)
                             for b in dag.back_edges_from(e.src))
        else:
            cfg_edge = dag.cfg_edge_for(e)
            assert cfg_edge is not None
            out[e.uid] = cfg_weights.get(cfg_edge.uid, 0.0)
    return out
