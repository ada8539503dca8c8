"""Flow-conservation counter inference: sparse probes, full profiles.

Kirchhoff's law holds on a control-flow graph once it is augmented with a
virtual exit->entry edge whose count is the invocation count: at every
block, flow in equals flow out.  The classic Knuth / Ball-Larus result
follows: place counters only on the *cotree* edges of a spanning tree and
every tree-edge (and hence block) count is determined exactly by the
conservation equations.  Choosing a maximum-*weight* spanning tree puts
the probes on the cheapest (coldest) edges, which is exactly how the
paper's event counting picks its increment placement (Section 3.1).

This module implements the placement and the inference:

* :func:`plan_probes` — maximum-weight spanning tree (Kruskal over the
  undirected real-edge multigraph) weighted by a measured edge profile or
  the paper's static estimator; the cotree edges are the probes.  The
  virtual edge is *excluded* from the tree: the Machine counts
  invocations natively and unconditionally, so its count is known for
  free and the placement needs only ``E - V + C`` real probes
  (``C`` = undirected components).
* :class:`ReconStep` — one precomputed leaf-peeling step: a spanning
  tree always has a vertex incident to exactly one unsolved tree edge,
  and that vertex's conservation equation solves it.  The step list is a
  deterministic straight-line program, so reconstruction is exact
  integer arithmetic with no search and no floating point.
* :func:`reconstruct` — run the steps over sparse probe counts and the
  invocation count, returning the full dense edge-count map.
* :func:`basis_flows` / :func:`enumerate_walk_flows` — the proof
  obligations consumed by the ``V6xx`` checks in
  :mod:`repro.analysis.verify`.  Reconstruction is a linear map, and the
  fundamental cycles of the cotree edges (plus the virtual edge's
  entry->exit tree path) span the whole conservation solution space, so
  exact round-trip on those basis flows proves exact round-trip on every
  realizable execution; the bounded walk enumeration additionally checks
  execution-shaped (non-negative, entry->exit) flows directly.

Self-loop edges cancel out of their own vertex's equation, so they can
never be inferred; Kruskal never admits them to the tree, which makes
them probes automatically.  Parallel edges are supported the same way:
at most one of a parallel bundle enters the tree.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Mapping, Optional

from ..cfg.graph import ControlFlowGraph, Edge
from ..cfg.loops import find_back_edges
from ..core.heuristics import static_edge_weights
from ..ir.function import Function
from ..profiles.edge_profile import FunctionEdgeProfile

#: Term id standing for the virtual exit->entry edge, whose count is the
#: invocation count (always measured natively by the Machine).
VIRTUAL_UID = -1

#: Bound on the walk enumeration used by the round-trip proof.
DEFAULT_WALK_CAP = 256


class ConservationError(Exception):
    """Raised when a CFG cannot support counter inference (no entry/exit)."""


@dataclass(frozen=True)
class ReconStep:
    """One leaf-peeling step: ``count(uid) = sum(coeff * count(term))``.

    ``terms`` pairs are ``(edge uid, +1 | -1)``; the uid
    :data:`VIRTUAL_UID` denotes the invocation count.  Every term is
    known when the step runs: a probe, the virtual edge, or a tree edge
    solved by an earlier step.
    """

    uid: int
    vertex: str
    terms: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ProbePlacement:
    """A proof-carrying sparse counter placement for one function."""

    func: str
    entry: str
    exit: str
    probe_uids: frozenset[int]
    tree_uids: frozenset[int]
    steps: tuple[ReconStep, ...]
    #: ``(uid, src, dst)`` for every real edge, sorted by uid.
    edge_keys: tuple[tuple[int, str, str], ...]

    @property
    def num_edges(self) -> int:
        return len(self.edge_keys)

    @property
    def num_probes(self) -> int:
        return len(self.probe_uids)

    @property
    def dropped_fraction(self) -> float:
        """Fraction of edges whose counter the placement proves redundant."""
        if not self.edge_keys:
            return 0.0
        return 1.0 - self.num_probes / self.num_edges

    @property
    def probe_keys(self) -> frozenset[tuple[str, str]]:
        """``(block, target)`` pairs of the probe edges, as the code
        generator addresses edges.  Only meaningful on sealed IR
        functions, which never carry parallel edges."""
        return frozenset((src, dst) for uid, src, dst in self.edge_keys
                         if uid in self.probe_uids)


def measured_edge_weights(profile: FunctionEdgeProfile) -> dict[int, float]:
    """Edge weights from a measured profile (PPP-style, Section 4.5)."""
    return {e.uid: float(profile.freq(e)) for e in profile.func.cfg.edges()}


def plan_probes(cfg: ControlFlowGraph,
                weights: Optional[Mapping[int, float]] = None,
                name: str = "") -> ProbePlacement:
    """Choose probe edges and precompute the reconstruction program.

    ``weights`` maps edge uid to predicted frequency; when omitted the
    paper's static estimator supplies them.  Ties break on uid, so the
    placement is deterministic for a given CFG and weight map.
    """
    if cfg.entry is None or cfg.exit is None:
        raise ConservationError(f"{name or cfg.name}: CFG has no entry/exit")
    if weights is None:
        weights = static_edge_weights(cfg)

    edges = sorted(cfg.edges(), key=lambda e: e.uid)

    # Kruskal maximum-weight spanning forest over the undirected graph.
    parent = {b: b for b in cfg.blocks}

    def find(block: str) -> str:
        root = block
        while parent[root] != root:
            root = parent[root]
        while parent[block] != root:
            parent[block], block = root, parent[block]
        return root

    tree_uids: set[int] = set()
    for e in sorted(edges, key=lambda e: (-weights.get(e.uid, 0.0), e.uid)):
        if e.src == e.dst:
            continue  # self-loops cancel out of conservation: always probed
        ra, rb = find(e.src), find(e.dst)
        if ra != rb:
            parent[ra] = rb
            tree_uids.add(e.uid)

    probe_uids = frozenset(e.uid for e in edges if e.uid not in tree_uids)
    steps = _derive_steps(cfg, tree_uids)
    return ProbePlacement(
        func=name or cfg.name,
        entry=cfg.entry,
        exit=cfg.exit,
        probe_uids=probe_uids,
        tree_uids=frozenset(tree_uids),
        steps=steps,
        edge_keys=tuple((e.uid, e.src, e.dst) for e in edges),
    )


def plan_function_probes(func: Function,
                         profile: Optional[FunctionEdgeProfile] = None,
                         ) -> ProbePlacement:
    """Plan probes for a sealed IR function.

    With a measured profile the hottest edges go probe-free (PPP's
    weighting); without one the static loop-depth estimator stands in,
    exactly as TPP keeps the static heuristics.
    """
    weights = measured_edge_weights(profile) if profile is not None else None
    return plan_probes(func.cfg, weights=weights, name=func.name)


# Static-weight placements are pure functions of the (sealed, immutable)
# IR function, and both the sparse profiler and the translation validator
# re-derive them on hot paths; memoise per function object.
_STATIC_PLACEMENTS: "weakref.WeakKeyDictionary[Function, ProbePlacement]" \
    = weakref.WeakKeyDictionary()


def static_placement(func: Function) -> ProbePlacement:
    """:func:`plan_function_probes` under static weights, memoised."""
    placement = _STATIC_PLACEMENTS.get(func)
    if placement is None:
        placement = plan_function_probes(func)
        _STATIC_PLACEMENTS[func] = placement
    return placement


def _derive_steps(cfg: ControlFlowGraph,
                  tree_uids: set[int]) -> tuple[ReconStep, ...]:
    """Leaf-peel the spanning forest into an ordered solve program."""
    unknown: dict[int, Edge] = {
        e.uid: e for e in cfg.edges() if e.uid in tree_uids}
    incident: dict[str, set[int]] = {b: set() for b in cfg.blocks}
    for e in unknown.values():
        incident[e.src].add(e.uid)
        incident[e.dst].add(e.uid)

    steps: list[ReconStep] = []
    while unknown:
        leaves = sorted(b for b, uids in incident.items() if len(uids) == 1)
        if not leaves:  # pragma: no cover - a forest always has a leaf
            raise ConservationError("spanning edge set contains a cycle")
        vertex = leaves[0]
        uid = next(iter(incident[vertex]))
        edge = unknown.pop(uid)
        incident[edge.src].discard(uid)
        incident[edge.dst].discard(uid)
        steps.append(ReconStep(uid, vertex, _equation_terms(cfg, vertex, uid)))
    return tuple(steps)


def _equation_terms(cfg: ControlFlowGraph, vertex: str,
                    unknown_uid: int) -> tuple[tuple[int, int], ...]:
    """Solve the vertex's conservation equation for ``unknown_uid``.

    The equation at ``v`` is ``sum(in) + [v==entry]*N = sum(out) +
    [v==exit]*N``; self-loops appear on both sides and are dropped.
    """
    ins = [e for e in cfg.in_edges(vertex) if e.src != e.dst]
    outs = [e for e in cfg.out_edges(vertex) if e.src != e.dst]
    unknown_is_in = any(e.uid == unknown_uid for e in ins)
    if unknown_is_in:
        plus = [e.uid for e in outs]
        minus = [e.uid for e in ins if e.uid != unknown_uid]
        n_coeff = ((1 if vertex == cfg.exit else 0)
                   - (1 if vertex == cfg.entry else 0))
    else:
        plus = [e.uid for e in ins]
        minus = [e.uid for e in outs if e.uid != unknown_uid]
        n_coeff = ((1 if vertex == cfg.entry else 0)
                   - (1 if vertex == cfg.exit else 0))
    terms = ([(uid, 1) for uid in sorted(plus)]
             + [(uid, -1) for uid in sorted(minus)])
    if n_coeff:
        terms.append((VIRTUAL_UID, n_coeff))
    return tuple(terms)


def reconstruct(placement: ProbePlacement,
                probe_counts: Mapping[int, int],
                entry_count: int,
                keep_zeros: bool = False) -> dict[int, int]:
    """Derive every edge count from the sparse probe counts.

    ``probe_counts`` maps probe edge uid to measured count; omitted probes
    count as zero (dense collection also drops never-traversed edges).
    With ``keep_zeros`` the result covers every real edge; without, the
    zero entries are dropped so the output is byte-identical to a dense
    edge-count collection.
    """
    counts: dict[int, int] = {VIRTUAL_UID: entry_count}
    for uid in placement.probe_uids:
        counts[uid] = probe_counts.get(uid, 0)
    for step in placement.steps:
        counts[step.uid] = sum(coeff * counts[term]
                               for term, coeff in step.terms)
    del counts[VIRTUAL_UID]
    if keep_zeros:
        return dict(sorted(counts.items()))
    return {uid: c for uid, c in sorted(counts.items()) if c != 0}


def block_counts(cfg: ControlFlowGraph, edge_counts: Mapping[int, int],
                 entry_count: int) -> dict[str, int]:
    """Block execution counts from full edge counts (+ invocations)."""
    freq: dict[str, int] = {}
    for name in cfg.blocks:
        total = sum(edge_counts.get(e.uid, 0) for e in cfg.in_edges(name))
        if name == cfg.entry:
            total += entry_count
        freq[name] = total
    return freq


# ---------------------------------------------------------------------------
# Proof obligations (consumed by the V6xx checks in analysis/verify.py)
# ---------------------------------------------------------------------------


def basis_flows(cfg: ControlFlowGraph, placement: ProbePlacement,
                ) -> list[tuple[int, dict[int, int]]]:
    """A basis of the conservation solution space, as (N, edge-count) pairs.

    One fundamental-cycle circulation per probe edge (the probe plus the
    tree path closing its cycle; N = 0), plus the virtual edge's flow
    (the entry->exit tree path; N = 1).  Reconstruction is linear, so
    exactness on these flows proves exactness on every solution of the
    conservation system -- in particular on every real execution.
    Counts may be negative here (circulations run tree edges backwards);
    the arithmetic is over the integers.
    """
    edges = {uid: (src, dst) for uid, src, dst in placement.edge_keys}
    adj: dict[str, list[tuple[str, int, int]]] = {b: [] for b in cfg.blocks}
    for uid in sorted(placement.tree_uids):
        src, dst = edges[uid]
        adj[src].append((dst, uid, 1))
        adj[dst].append((src, uid, -1))
    for neighbours in adj.values():
        neighbours.sort()

    def tree_path(a: str, b: str) -> Optional[dict[int, int]]:
        """Signed edge counts of the unique tree path a -> b (BFS)."""
        if a == b:
            return {}
        prev: dict[str, tuple[str, int, int]] = {}
        frontier = [a]
        seen = {a}
        while frontier:
            nxt: list[str] = []
            for block in frontier:
                for other, uid, sign in adj[block]:
                    if other in seen:
                        continue
                    seen.add(other)
                    prev[other] = (block, uid, sign)
                    nxt.append(other)
            frontier = nxt
        if b not in prev:
            return None
        flow: dict[int, int] = {}
        block = b
        while block != a:
            block, uid, sign = prev[block]
            flow[uid] = flow.get(uid, 0) + sign
        return flow

    flows: list[tuple[int, dict[int, int]]] = []
    for uid in sorted(placement.probe_uids):
        src, dst = edges[uid]
        flow = {uid: 1}
        if src != dst:
            path = tree_path(dst, src)
            if path is None:  # pragma: no cover - cotree endpoints connect
                continue
            for puid, sign in path.items():
                flow[puid] = flow.get(puid, 0) + sign
        flows.append((0, flow))
    virtual_path = tree_path(placement.entry, placement.exit)
    if virtual_path is not None:
        flows.append((1, virtual_path))
    return flows


def enumerate_walk_flows(cfg: ControlFlowGraph,
                         max_walks: int = DEFAULT_WALK_CAP,
                         back_edge_budget: int = 2,
                         ) -> tuple[list[dict[int, int]], bool]:
    """Bounded deterministic enumeration of entry->exit execution flows.

    Each walk is a single activation (N = 1); every back/retreating edge
    may be taken at most ``back_edge_budget`` times, which bounds the
    enumeration because every CFG cycle contains such an edge.  Returns
    the walks' edge-count vectors plus an ``exhausted`` flag: False when
    the ``max_walks`` cap truncated the space.
    """
    if cfg.entry is None or cfg.exit is None:
        raise ConservationError(f"{cfg.name}: CFG has no entry/exit")
    budgeted = {e.uid for e in find_back_edges(cfg)}
    walks: list[dict[int, int]] = []
    exhausted = True
    counts: dict[int, int] = {}
    budget: dict[int, int] = {uid: back_edge_budget for uid in budgeted}
    exit_block = cfg.exit

    def dfs(block: str) -> None:
        nonlocal exhausted
        if len(walks) >= max_walks:
            exhausted = False
            return
        if block == exit_block:
            walks.append({uid: c for uid, c in counts.items() if c})
            return
        for e in sorted(cfg.out_edges(block), key=lambda e: e.uid):
            if e.uid in budgeted:
                if budget[e.uid] == 0:
                    continue
                budget[e.uid] -= 1
            counts[e.uid] = counts.get(e.uid, 0) + 1
            dfs(e.dst)
            counts[e.uid] -= 1
            if e.uid in budgeted:
                budget[e.uid] += 1

    dfs(cfg.entry)
    return walks, exhausted
