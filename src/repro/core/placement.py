"""Instrumentation placement, pushing, and combining.

Implements the placement half of PP/TPP/PPP (Sections 3.1, 4.4, 4.6):

1. every nonzero event-counted edge value becomes ``r += v``;
2. ``r = 0`` is placed on the entry's outgoing edges and *pushed down*
   through blocks whose incoming edges all carry a pushable ``r = 0``,
   combining with the first ``r += v`` it meets into ``r = v``;
3. ``count[r]++`` is placed on the exit's incoming edges and *pushed up*
   through blocks whose outgoing edges all carry a pushable count,
   combining with ``r += v`` into ``count[r+v]++`` and with ``r = v`` into
   ``count[v]++`` (Figure 1(e-f));
4. cold edges are *poisoned*: with free poisoning (PPP, Section 4.6) the
   path register is set so that any counter index it can subsequently
   produce lands in ``[N, ...]``, past the hot range, eliminating TPP's
   per-path poison check; with check-style poisoning (original TPP) the
   register is set to a large negative value and every count is checked;
5. dummy-edge instrumentation is folded back onto the corresponding back
   edges: count part (from the tail->exit dummy) first, then the
   set/increment part (from the entry->header dummy), Figure 1(g).

The push rules differ exactly where the paper says they do: TPP stops
pushing at a block with *any* cold incident edge on the relevant side,
PPP ignores cold edges (Section 4.4, Figure 5) -- which both removes
instrumentation from paths that become obvious and combines counts with
increments across the formerly-blocking merge.

Whether a pushed-through cold merge causes cold executions to be counted
as hot paths (the paper's overcount) falls out naturally: the poisoning
``SetReg`` sits on the cold edge itself, but an execution that *rejoins*
the hot region downstream of a pushed count has already been counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfg.dag import ProfilingDag
from ..cfg.graph import Edge
from ..cfg.traversal import reverse_topological_order, topological_order
from .ops import AddReg, CountConst, CountReg, InstrOp, SetReg

# Edge states during pushing.  Pushable states can keep moving; the rest
# are terminal.
_NONE = "none"          # zero-value edge, nothing placed
_ADD = "add"            # r += v (terminal unless consumed by a count)
_INIT0 = "init0"        # r = 0 (pushable)
_INIT = "init"          # r = v (terminal)
_COUNT0 = "count0"      # count[r]++ (pushable)
_COUNT = "count"        # count[r+v]++ (terminal)
_COUNTCONST = "countconst"  # count[v]++ (terminal)

CHECK_POISON_VALUE = -(2 ** 60)


@dataclass
class PlacementResult:
    """Final instrumentation: ops per *CFG* edge uid, plus counter geometry.

    ``num_hot`` is N (hot counter indices are ``[0, N-1]``);
    ``counter_span`` is the full index space needed once free poisoning may
    write indices at and above N.  ``static_ops`` counts placed operations
    (a compile-size measure the harness reports).
    """

    edge_ops: dict[int, list[InstrOp]] = field(default_factory=dict)
    num_hot: int = 0
    counter_span: int = 0
    static_ops: int = 0

    def ops_for(self, cfg_edge: Edge) -> list[InstrOp]:
        return self.edge_ops.get(cfg_edge.uid, [])


class _Placer:
    def __init__(self, dag: ProfilingDag, live: set[int],
                 increments: dict[int, int], num_hot: int,
                 push_ignore_cold: bool, poison_style: str):
        self.dag = dag
        self.graph = dag.dag
        self.live = live
        self.increments = increments
        self.num_hot = num_hot
        self.push_ignore_cold = push_ignore_cold
        self.poison_style = poison_style
        # state per live dag edge uid: (kind, value)
        self.state: dict[int, tuple[str, int]] = {}
        for e in self.graph.edges():
            if e.uid in live:
                v = increments.get(e.uid, 0)
                self.state[e.uid] = (_ADD, v) if v else (_NONE, 0)
        self.poison: dict[int, int] = {}  # cold dag edge uid -> poison value
        self.max_index = num_hot - 1

    # -- helpers --------------------------------------------------------

    def _live_out(self, name: str) -> list[Edge]:
        return [e for e in self.graph.out_edges(name) if e.uid in self.live]

    def _live_in(self, name: str) -> list[Edge]:
        return [e for e in self.graph.in_edges(name) if e.uid in self.live]

    def _has_cold_out(self, name: str) -> bool:
        return any(e.uid not in self.live for e in self.graph.out_edges(name))

    def _has_cold_in(self, name: str) -> bool:
        return any(e.uid not in self.live for e in self.graph.in_edges(name))

    # -- phases ---------------------------------------------------------

    def place(self) -> PlacementResult:
        self._place_inits()
        self._place_counts()
        self._place_poison()
        return self._realize()

    def _seed_init(self, edge: Edge) -> None:
        kind, v = self.state[edge.uid]
        if kind == _ADD:
            self.state[edge.uid] = (_INIT, v)
        elif kind == _NONE:
            self.state[edge.uid] = (_INIT0, 0)
        # other kinds impossible at seeding time

    def _place_inits(self) -> None:
        entry = self.graph.entry
        exit_ = self.graph.exit
        assert entry is not None and exit_ is not None
        for e in self._live_out(entry):
            self._seed_init(e)
        for w in topological_order(self.graph):
            if w in (entry, exit_):
                continue
            incoming = self._live_in(w)
            if not incoming:
                continue
            if not self.push_ignore_cold and self._has_cold_in(w):
                continue  # TPP: a cold merge blocks pushing
            if any(self.state[e.uid][0] != _INIT0 for e in incoming):
                continue
            outgoing = self._live_out(w)
            for e in incoming:
                self.state[e.uid] = (_NONE, 0)
            for e in outgoing:
                self._seed_init(e)

    def _seed_count(self, edge: Edge) -> None:
        kind, v = self.state[edge.uid]
        if kind == _ADD:
            self.state[edge.uid] = (_COUNT, v)
        elif kind == _INIT:
            self.state[edge.uid] = (_COUNTCONST, v)
        elif kind == _INIT0:
            self.state[edge.uid] = (_COUNTCONST, 0)
        elif kind == _NONE:
            self.state[edge.uid] = (_COUNT0, 0)
        # _COUNT*/duplicate seeding impossible: each edge seeded once

    def _place_counts(self) -> None:
        entry = self.graph.entry
        exit_ = self.graph.exit
        assert entry is not None and exit_ is not None
        for e in self._live_in(exit_):
            self._seed_count(e)
        for w in reverse_topological_order(self.graph):
            if w in (entry, exit_):
                continue
            outgoing = self._live_out(w)
            if not outgoing:
                continue
            if not self.push_ignore_cold and self._has_cold_out(w):
                continue  # TPP: a cold split blocks pushing
            if any(self.state[e.uid][0] != _COUNT0 for e in outgoing):
                continue
            incoming = self._live_in(w)
            if not incoming:
                continue  # nowhere to push; keep the counts where they are
            for e in outgoing:
                self.state[e.uid] = (_NONE, 0)
            for e in incoming:
                self._seed_count(e)

    # -- poisoning ------------------------------------------------------

    def _prefix_ranges(self) -> tuple[dict[str, int], dict[str, int]]:
        """Min/max partial sum of increments along live paths from a block.

        Partial sums (not just complete-path sums) bound every counter
        index a poisoned execution can produce at whatever count op it
        crosses, so poison values derived from these keep all cold counts
        at or above N.
        """
        lo: dict[str, int] = {}
        hi: dict[str, int] = {}
        for v in reverse_topological_order(self.graph):
            out = self._live_out(v)
            lo_v, hi_v = 0, 0
            for e in out:
                inc = self.increments.get(e.uid, 0)
                lo_v = min(lo_v, inc + lo.get(e.dst, 0))
                hi_v = max(hi_v, inc + hi.get(e.dst, 0))
            lo[v] = lo_v
            hi[v] = hi_v
        return lo, hi

    def _place_poison(self) -> None:
        cold = [e for e in self.graph.edges() if e.uid not in self.live]
        if not cold:
            return
        if self.poison_style == "check":
            for e in cold:
                self.poison[e.uid] = CHECK_POISON_VALUE
            return
        lo, hi = self._prefix_ranges()
        n = self.num_hot
        for e in cold:
            value = n - lo.get(e.dst, 0)
            self.poison[e.uid] = value
            self.max_index = max(self.max_index, value + hi.get(e.dst, 0))

    # -- realization ----------------------------------------------------

    def _ops_of(self, edge: Edge) -> list[InstrOp]:
        if edge.uid in self.poison:
            return [SetReg(self.poison[edge.uid], poison=True)]
        kind, v = self.state.get(edge.uid, (_NONE, 0))
        if kind == _NONE:
            return []
        if kind == _ADD:
            return [AddReg(v)]
        if kind == _INIT0:
            return [SetReg(0)]
        if kind == _INIT:
            return [SetReg(v)]
        if kind == _COUNT0:
            return [CountReg(0)]
        if kind == _COUNT:
            return [CountReg(v)]
        if kind == _COUNTCONST:
            return [CountConst(v)]
        raise AssertionError(kind)  # pragma: no cover

    def _realize(self) -> PlacementResult:
        result = PlacementResult(num_hot=self.num_hot,
                                 counter_span=self.max_index + 1)
        for e in self.graph.edges():
            if e.dummy:
                continue
            ops = self._ops_of(e)
            if ops:
                cfg_edge = self.dag.cfg_edge_for(e)
                assert cfg_edge is not None
                result.edge_ops[cfg_edge.uid] = ops
        for back in self.dag.back_edges:
            entry_dummy, exit_dummy = self.dag.dummies_for(back)
            ops: list[InstrOp] = []
            if exit_dummy.uid in self.live:
                # Count the ending path first ...
                ops.extend(self._ops_of(exit_dummy))
            if entry_dummy is not None:
                # ... then initialise the starting one.  (Back edges into
                # the entry block have no entry dummy; the new path picks
                # up its initialisation from the entry's out-edges.)
                if entry_dummy.uid in self.live:
                    ops.extend(self._ops_of(entry_dummy))
                elif entry_dummy.uid in self.poison:
                    ops.append(SetReg(self.poison[entry_dummy.uid],
                                      poison=True))
            if ops:
                result.edge_ops[back.uid] = ops
        result.static_ops = sum(len(v) for v in result.edge_ops.values())
        return result


def place_instrumentation(dag: ProfilingDag, live: set[int],
                          increments: dict[int, int], num_hot: int,
                          push_ignore_cold: bool = False,
                          poison_style: str = "free") -> PlacementResult:
    """Place, push, and combine instrumentation; see the module docstring."""
    if poison_style not in ("free", "check"):
        raise ValueError(f"unknown poison style {poison_style!r}")
    placer = _Placer(dag, live, increments, num_hot, push_ignore_cold,
                     poison_style)
    return placer.place()
