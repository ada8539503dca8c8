"""Path numbering: Ball-Larus (Figure 2) and PPP's smart variant (Figure 6).

Both assign a value ``Val(e)`` to each live DAG edge so that the sum of
edge values along any entry->exit DAG path is a unique number in
``[0, N-1]``, where ``N`` is the number of such paths.  They differ only
in the order a block's outgoing edges are visited:

* Ball-Larus visits edges in increasing ``NumPaths(target)``, which keeps
  the assigned values small;
* smart path numbering (PPP, Section 4.5) visits edges in decreasing
  execution frequency, so the hottest outgoing edge of every block gets
  value zero and usually ends up carrying no instrumentation at all.

Cold-edge elimination is expressed through the ``live`` set: edges outside
it do not exist for numbering purposes, which is exactly TPP/PPP's
cold-path removal (Section 3.2).
"""

from __future__ import annotations

from typing import Literal, Optional

from ..cfg.dag import ProfilingDag
from ..cfg.graph import Edge
from ..cfg.traversal import reverse_topological_order

Order = Literal["ballarus", "smart"]


class PathNumbering:
    """Edge values and path counts for one (possibly pruned) profiling DAG.

    Attributes
    ----------
    val:
        Edge value per live DAG edge uid.
    num_paths:
        ``NumPaths(v)``: live paths from each block to the exit.
    total:
        Number of complete entry->exit paths, i.e. the path numbers are
        ``[0, total - 1]``.
    """

    def __init__(self, dag: ProfilingDag, live: Optional[set[int]] = None,
                 order: Order = "ballarus",
                 edge_freq: Optional[dict[int, float]] = None):
        if order == "smart" and edge_freq is None:
            raise ValueError("smart numbering requires edge frequencies")
        self.dag = dag
        self.live = (live if live is not None
                     else {e.uid for e in dag.dag.edges()})
        self.order = order
        self.edge_freq = edge_freq or {}
        self.val: dict[int, int] = {}
        self.num_paths: dict[str, int] = {}
        self.out_order: dict[str, list[Edge]] = {}
        self._number()

    def _number(self) -> None:
        graph = self.dag.dag
        exit_name = graph.exit
        assert exit_name is not None
        for v in reverse_topological_order(graph):
            if v == exit_name:
                self.num_paths[v] = 1
                self.out_order[v] = []
                continue
            out = [e for e in graph.out_edges(v) if e.uid in self.live]
            if self.order == "ballarus":
                out.sort(key=lambda e: (self.num_paths.get(e.dst, 0), e.uid))
            else:
                out.sort(key=lambda e: (-self.edge_freq.get(e.uid, 0), e.uid))
            self.out_order[v] = out
            total = 0
            for e in out:
                self.val[e.uid] = total
                total += self.num_paths.get(e.dst, 0)
            self.num_paths[v] = total

    @property
    def total(self) -> int:
        entry = self.dag.dag.entry
        assert entry is not None
        return self.num_paths.get(entry, 0)

    # ------------------------------------------------------------------

    def decode(self, number: int) -> Optional[list[Edge]]:
        """The DAG edge sequence whose values sum to ``number``.

        Returns None when the number is out of range (e.g. a poisoned cold
        path recorded into the extended counter space).
        """
        if not 0 <= number < self.total:
            return None
        graph = self.dag.dag
        exit_name = graph.exit
        v = graph.entry
        assert v is not None
        remaining = number
        path: list[Edge] = []
        while v != exit_name:
            chosen: Optional[Edge] = None
            for e in self.out_order[v]:
                width = self.num_paths.get(e.dst, 0)
                base = self.val[e.uid]
                if width and base <= remaining < base + width:
                    chosen = e
                    break
            if chosen is None:  # pragma: no cover - numbering is total
                return None
            remaining -= self.val[chosen.uid]
            path.append(chosen)
            v = chosen.dst
        return path

    def number_of(self, path: list[Edge]) -> int:
        """The path number of a DAG edge sequence (sum of edge values)."""
        return sum(self.val[e.uid] for e in path)


def number_paths(dag: ProfilingDag, live: Optional[set[int]] = None,
                 order: Order = "ballarus",
                 edge_freq: Optional[dict[int, float]] = None
                 ) -> PathNumbering:
    """Number the paths of a profiling DAG (see :class:`PathNumbering`)."""
    return PathNumbering(dag, live=live, order=order, edge_freq=edge_freq)
