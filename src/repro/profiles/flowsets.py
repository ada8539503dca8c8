"""Flow-value sets: the dynamic programs of the paper's appendix.

Figures 14 and 15 of the paper compute, for every vertex and edge of the
profiling DAG, a multiset of *flow values* ``[(f, b) -> delta]``: delta
paths from here to the exit whose definite (resp. potential) frequency is
``f`` and which contain ``b`` branch edges.  The branch counter ``b`` is
what upgrades Ball, Mataga & Sagiv's original unit-flow algorithms to the
paper's branch-flow metric: an entry's branch flow is ``f * b``, and its
unit flow, the originals' value, is ``f`` alone.

*Definite flow* of a path is the minimum frequency the edge profile
guarantees it; *potential flow* is the maximum frequency consistent with
the edge profile (the min of its edge frequencies).

The multisets can grow combinatorially (the paper's own accuracy tooling
ran out of memory on gcc), so each set is capped: only the
:data:`FLOW_SET_CAP` entries with the largest flow are kept.  Dropping
low-flow entries can only shrink definite flow and hide cold estimated
paths, i.e. the approximation is conservative for the coverage numbers
built on top.
"""

from __future__ import annotations

from typing import Literal

from ..cfg.dag import ProfilingDag, function_dag
from ..cfg.graph import Edge
from ..cfg.traversal import reverse_topological_order
from .edge_profile import FunctionEdgeProfile

FlowSet = dict[tuple[float, int], float]  # (f, b) -> delta

Mode = Literal["definite", "potential"]


class DagFrequencies:
    """Edge and block frequencies lifted from the CFG profile onto the DAG.

    A dummy edge inherits the frequency of the back edge it replaces; a
    block's DAG frequency is the sum of its incoming DAG edge frequencies
    (plus the invocation count for the entry block).
    """

    def __init__(self, dag: ProfilingDag, profile: FunctionEdgeProfile):
        self.dag = dag
        self.edge: dict[int, float] = {}
        for dag_edge in dag.dag.edges():
            if dag.is_entry_dummy(dag_edge):
                backs = dag.back_edges_into(dag_edge.dst)
                self.edge[dag_edge.uid] = sum(profile.freq(b) for b in backs)
            elif dag.is_exit_dummy(dag_edge):
                backs = dag.back_edges_from(dag_edge.src)
                self.edge[dag_edge.uid] = sum(profile.freq(b) for b in backs)
            else:
                cfg_edge = dag.cfg_edge_for(dag_edge)
                assert cfg_edge is not None
                self.edge[dag_edge.uid] = profile.freq(cfg_edge)
        self.block: dict[str, float] = {}
        entry = dag.dag.entry
        for name, blk in dag.dag.blocks.items():
            total = sum(self.edge[e.uid] for e in blk.pred_edges)
            if name == entry:
                total += profile.entry_count
                # Back edges into the entry have no entry dummy (see
                # ProfilingDag); their restarts still reach the entry.
                total += sum(profile.freq(b) for b in dag.back_edges
                             if b.dst == entry)
            self.block[name] = total

    @property
    def total(self) -> float:
        """Total routine flow F: the DAG frequency of the exit block."""
        exit_name = self.dag.dag.exit
        assert exit_name is not None
        return self.block[exit_name]


def dag_edge_is_branch(dag: ProfilingDag, edge: Edge) -> bool:
    """Whether a DAG edge is a branch under the paper's definition.

    Real edges and exit dummies are judged by the *CFG* out-degree of their
    (original) source block: an exit dummy stands for a back edge, whose
    taking was a branch decision iff the loop tail had other successors.
    Entry dummies represent path starts, not decisions, and never count.
    """
    if edge.dummy:
        if dag.is_exit_dummy(edge):
            # tail -> exit dummy: decided at the back edge's source
            return len(dag.cfg.blocks[edge.src].succ_edges) > 1
        return False  # entry -> header dummy
    cfg_edge = dag.cfg_edge_for(edge)
    assert cfg_edge is not None
    return len(dag.cfg.blocks[cfg_edge.src].succ_edges) > 1


#: Most entries a flow set keeps.
FLOW_SET_CAP = 50_000


def _capped(flow_set: FlowSet) -> tuple[FlowSet, bool]:
    if len(flow_set) <= FLOW_SET_CAP:
        return flow_set, False
    ranked = sorted(flow_set.items(),
                    key=lambda kv: (-(kv[0][0] * max(kv[0][1], 1)), kv[0]))
    return dict(ranked[:FLOW_SET_CAP]), True


class FlowSets:
    """Computed flow-value sets for one function's profiling DAG.

    Attributes
    ----------
    vertex / edge:
        ``M[v]`` and ``M[e]`` of Figures 14/15.  Edge sets hold the
        *unshifted* branch counts; a vertex set entry for a branch edge has
        ``b`` one higher than the edge entry it came from.
    truncated:
        True when any set hit the cap (results become conservative
        underestimates).
    """

    def __init__(self, dag: ProfilingDag, freqs: DagFrequencies, mode: Mode):
        if mode not in ("definite", "potential"):
            raise ValueError(f"unknown mode {mode!r}")
        self.dag = dag
        self.freqs = freqs
        self.mode = mode
        self.vertex: dict[str, FlowSet] = {}
        self.edge: dict[int, FlowSet] = {}
        self.is_branch: dict[int, bool] = {}
        self.truncated = False
        self._compute()

    def _compute(self) -> None:
        dag = self.dag.dag
        freqs = self.freqs
        exit_name = dag.exit
        assert exit_name is not None
        total = freqs.total
        self.vertex[exit_name] = {(total, 0): 1}
        order = reverse_topological_order(dag)
        for v in order:
            if v == exit_name:
                continue
            acc: FlowSet = {}
            for e in dag.out_edges(v):
                tgt_set = self.vertex.get(e.dst, {})
                fe = freqs.edge[e.uid]
                es: FlowSet = {}
                if self.mode == "definite":
                    slack = freqs.block[e.dst] - fe
                    for (f, b), delta in tgt_set.items():
                        if f > slack:
                            key = (f - slack, b)
                            es[key] = es.get(key, 0) + delta
                else:
                    for (f, b), delta in tgt_set.items():
                        key = (min(f, fe), b)
                        es[key] = es.get(key, 0) + delta
                es, cut = _capped(es)
                self.truncated = self.truncated or cut
                self.edge[e.uid] = es
                branchy = dag_edge_is_branch(self.dag, e)
                self.is_branch[e.uid] = branchy
                shift = 1 if branchy else 0
                for (f, b), delta in es.items():
                    key = (f, b + shift)
                    acc[key] = acc.get(key, 0) + delta
            acc, cut = _capped(acc)
            self.truncated = self.truncated or cut
            self.vertex[v] = acc

    # ------------------------------------------------------------------

    def entry_set(self) -> FlowSet:
        entry = self.dag.dag.entry
        assert entry is not None
        return self.vertex.get(entry, {})

    def total_flow(self) -> float:
        """Total definite (or potential) branch flow of the routine.

        For definite flow this is DF(P), the numerator of edge-profile
        coverage (Section 6.2).
        """
        return sum(f * b * delta
                   for (f, b), delta in self.entry_set().items())


def compute_flow_sets(dag: ProfilingDag, profile: FunctionEdgeProfile,
                      mode: Mode) -> FlowSets:
    """Run the Figure 14 (definite) or Figure 15 (potential) algorithm."""
    return FlowSets(dag, DagFrequencies(dag, profile), mode)


def profile_flow_sets(func, profile: FunctionEdgeProfile,
                      mode: Mode) -> FlowSets:
    """:func:`compute_flow_sets` over ``func``'s profiling DAG, computed
    once per profile (planning and every scoring of one profile ask for
    the same sets)."""
    key = (func, mode)
    sets = profile.flow_memo.get(key)
    if sets is None:
        sets = profile.flow_memo[key] = compute_flow_sets(
            function_dag(func), profile, mode)
    return sets
