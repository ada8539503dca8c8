"""CFG -> DAG conversion for Ball-Larus path profiling (Section 3.1).

Every back edge ``tail -> header`` is removed and replaced by two *dummy*
edges: ``entry -> header`` and ``tail -> exit`` (Figure 1(a-b) of the
paper).  Acyclic paths in the resulting DAG correspond exactly to the
Ball-Larus paths of the routine: a path may begin at the routine entry or
(via the first dummy) just after a back edge, and may end at the routine
exit or (via the second dummy) at a back edge.

Dummy edges are deduplicated: one ``entry -> header`` dummy per loop
header and one ``tail -> exit`` dummy per back-edge source, regardless of
how many back edges share that header or tail.  This keeps block sequences
in one-to-one correspondence with DAG paths (two back edges into the same
header start the *same* path, so they must share a path number).

:class:`ProfilingDag` keeps the mapping from DAG edges back to CFG edges so
that instrumentation placed on dummy edges can be restored onto the
corresponding back edge (Figure 1(g)).
"""

from __future__ import annotations

import weakref
from typing import Optional

from .graph import CFGError, ControlFlowGraph, Edge
from .loops import find_back_edges
from .traversal import is_acyclic


class ProfilingDag:
    """A DAG view of a CFG with back edges broken.

    Attributes
    ----------
    cfg:
        The original control-flow graph (never mutated).
    dag:
        A fresh :class:`ControlFlowGraph` with the same block names, real
        edges mirroring the CFG's non-back edges, and dummy edges replacing
        the back edges.
    back_edges:
        The CFG back edges that were broken.
    entry_dummies:
        loop header name -> the dummy DAG edge ``entry -> header``.
    exit_dummies:
        back-edge source name -> the dummy DAG edge ``tail -> exit``.
    """

    def __init__(self, cfg: ControlFlowGraph):
        if cfg.entry is None or cfg.exit is None:
            raise CFGError("profiling DAG requires entry and exit blocks")
        self.cfg = cfg
        self.back_edges = find_back_edges(cfg)
        self.dag = ControlFlowGraph(cfg.name + ".dag")
        self.entry_dummies: dict[str, Edge] = {}
        self.exit_dummies: dict[str, Edge] = {}
        # dag edge uid -> original cfg edge (real edges only)
        self._dag_to_cfg: dict[int, Edge] = {}
        # cfg edge uid -> dag edge (real edges only)
        self._cfg_to_dag: dict[int, Edge] = {}
        self._entry_dummy_uids: set[int] = set()
        self._exit_dummy_uids: set[int] = set()
        self._build()

    def _build(self) -> None:
        cfg, dag = self.cfg, self.dag
        for name in cfg.blocks:
            dag.add_block(name)
        assert cfg.entry is not None and cfg.exit is not None
        dag.set_entry(cfg.entry)
        dag.set_exit(cfg.exit)
        broken = {e.uid for e in self.back_edges}
        for edge in cfg.edges():
            if edge.uid in broken:
                continue
            mirrored = dag.add_edge(edge.src, edge.dst)
            self._dag_to_cfg[mirrored.uid] = edge
            self._cfg_to_dag[edge.uid] = mirrored
        for back in self.back_edges:
            # A back edge into the entry block needs no entry dummy: paths
            # restarting at that header already start at the entry (and the
            # dummy would be a self-loop).
            if back.dst != cfg.entry and back.dst not in self.entry_dummies:
                dummy = dag.add_edge(cfg.entry, back.dst, dummy=True,
                                     back_edge=back)
                self.entry_dummies[back.dst] = dummy
                self._entry_dummy_uids.add(dummy.uid)
            if back.src not in self.exit_dummies:
                dummy = dag.add_edge(back.src, cfg.exit, dummy=True,
                                     back_edge=back)
                self.exit_dummies[back.src] = dummy
                self._exit_dummy_uids.add(dummy.uid)
        if not is_acyclic(dag):
            raise CFGError(
                f"breaking back edges left a cycle in {cfg.name!r}")

    # ------------------------------------------------------------------

    def cfg_edge_for(self, dag_edge: Edge) -> Optional[Edge]:
        """The CFG edge mirrored by a real DAG edge (None for dummies)."""
        return self._dag_to_cfg.get(dag_edge.uid)

    def dag_edge_for(self, cfg_edge: Edge) -> Optional[Edge]:
        """The DAG edge mirroring a real CFG edge (None for back edges)."""
        return self._cfg_to_dag.get(cfg_edge.uid)

    def dummies_for(self, back_edge: Edge) -> tuple[Optional[Edge], Edge]:
        """The (entry->header, tail->exit) dummy pair for a back edge.

        The entry dummy is None for back edges into the entry block (see
        the construction note above).
        """
        return (self.entry_dummies.get(back_edge.dst),
                self.exit_dummies[back_edge.src])

    def is_entry_dummy(self, edge: Edge) -> bool:
        return edge.uid in self._entry_dummy_uids

    def is_exit_dummy(self, edge: Edge) -> bool:
        return edge.uid in self._exit_dummy_uids

    def back_edges_into(self, header: str) -> list[Edge]:
        """The broken back edges whose destination is ``header``."""
        return [b for b in self.back_edges if b.dst == header]

    def back_edges_from(self, tail: str) -> list[Edge]:
        """The broken back edges whose source is ``tail``."""
        return [b for b in self.back_edges if b.src == tail]

    def __repr__(self) -> str:
        return (f"ProfilingDag({self.cfg.name!r}, "
                f"back_edges={len(self.back_edges)})")


def build_profiling_dag(cfg: ControlFlowGraph) -> ProfilingDag:
    """Break back edges and return the profiling DAG for ``cfg``."""
    return ProfilingDag(cfg)


# Sealed function -> its profiling DAG.  The DAG holds the CFG, not the
# function, so an entry goes with its function.
_SEALED_DAGS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def function_dag(func) -> ProfilingDag:
    """The profiling DAG of an IR function's CFG, built once per sealed
    function (sealing freezes the CFG); planners and flow
    reconstruction only read it."""
    if not func.sealed:
        return ProfilingDag(func.cfg)
    dag = _SEALED_DAGS.get(func)
    if dag is None:
        dag = _SEALED_DAGS[func] = ProfilingDag(func.cfg)
    return dag
