"""Edge profiles: per-function edge and block frequencies.

Edge profiles are the cheap profile every technique in the paper assumes is
already available (dynamic optimizers collect them with sampling or
hardware support at 0.5-3% overhead).  TPP and PPP consume them to decide
what to instrument; the definite/potential-flow algorithms consume them to
estimate path profiles.
"""

from __future__ import annotations

from typing import Optional

from ..cfg.graph import Edge
from ..cfg.loops import find_back_edges
from ..ir.function import Function, Module


class FunctionEdgeProfile:
    """Edge frequencies for one function.

    ``entry_count`` is the number of invocations; block frequencies are
    derived as invocation count (for the entry) plus incoming edge counts.
    """

    def __init__(self, func: Function, edge_freq: dict[int, int],
                 entry_count: int):
        self.func = func
        self.edge_freq = dict(edge_freq)
        self.entry_count = entry_count
        self._block_freq: Optional[dict[str, int]] = None
        self._back_edge_uids: Optional[set[int]] = None
        # Flow sets reconstructed from this profile (see
        # :func:`~repro.profiles.flowsets.profile_flow_sets`), by
        # (function, mode, metric, cap).  Not pickled.
        self.flow_memo: dict = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["flow_memo"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.flow_memo = {}

    def invalidate(self) -> None:
        """Drop what was derived from the counts, after editing them in
        place."""
        self._block_freq = None
        self.flow_memo = {}

    def freq(self, edge: Edge) -> int:
        """Traversal count of a CFG edge."""
        return self.edge_freq.get(edge.uid, 0)

    def block_freq(self, name: str) -> int:
        """Execution count of a block."""
        if self._block_freq is None:
            freqs: dict[str, int] = {b: 0 for b in self.func.cfg.blocks}
            entry = self.func.cfg.entry
            assert entry is not None
            freqs[entry] += self.entry_count
            for edge in self.func.cfg.edges():
                freqs[edge.dst] += self.edge_freq.get(edge.uid, 0)
            self._block_freq = freqs
        return self._block_freq[name]

    @property
    def back_edge_uids(self) -> set[int]:
        if self._back_edge_uids is None:
            self._back_edge_uids = {
                e.uid for e in find_back_edges(self.func.cfg)}
        return self._back_edge_uids

    def unit_flow(self) -> int:
        """The number of dynamic Ball-Larus paths this function executed.

        Every invocation starts one path and every back-edge traversal
        starts another, so the total equals invocations plus back-edge
        frequency.
        """
        return self.entry_count + sum(
            self.edge_freq.get(uid, 0) for uid in self.back_edge_uids)

    def branch_flow(self) -> float:
        """Total branch flow of the routine.

        Exactly the sum of branch-edge frequencies (Section 5.2: "the sum
        of branch edge frequencies"), so total actual branch flow is known
        from the edge profile alone -- which is what lets PPP evaluate
        routine coverage at instrumentation time (Section 4.1).
        """
        cfg = self.func.cfg
        return float(sum(
            self.edge_freq.get(e.uid, 0) for e in cfg.edges()
            if len(cfg.blocks[e.src].succ_edges) > 1))

    def executed(self) -> bool:
        return self.entry_count > 0


class EdgeProfile:
    """Module-wide edge profile."""

    def __init__(self, module: Module,
                 functions: dict[str, FunctionEdgeProfile]):
        self.module = module
        self.functions = functions

    @classmethod
    def from_run(cls, module: Module, edge_counts: dict[str, dict[int, int]],
                 invocations: dict[str, int]) -> "EdgeProfile":
        """Build from the raw dictionaries a profiling Machine run collects."""
        functions = {
            name: FunctionEdgeProfile(func, edge_counts.get(name, {}),
                                      invocations.get(name, 0))
            for name, func in module.functions.items()
        }
        return cls(module, functions)

    def __getitem__(self, name: str) -> FunctionEdgeProfile:
        return self.functions[name]

    def total_unit_flow(self) -> int:
        """Program-wide dynamic path count (the paper's 'total program flow
        in terms of unit flow', the denominator of PPP's global cold-edge
        criterion in Section 4.2)."""
        return sum(fp.unit_flow() for fp in self.functions.values())

    def merge(self, other: "EdgeProfile") -> "EdgeProfile":
        """Combine two runs' profiles (the paper merges the profiles of
        multi-run ref inputs, Section 7.2).  Both must profile the same
        module object."""
        if other.module is not self.module:
            raise ValueError("can only merge profiles of the same module")
        functions = {}
        for name, fp in self.functions.items():
            other_fp = other.functions[name]
            freq = dict(fp.edge_freq)
            for uid, count in other_fp.edge_freq.items():
                freq[uid] = freq.get(uid, 0) + count
            functions[name] = FunctionEdgeProfile(
                fp.func, freq, fp.entry_count + other_fp.entry_count)
        return EdgeProfile(self.module, functions)

    def scale(self, factor: float) -> "EdgeProfile":
        """A copy with all counts scaled (useful for staleness experiments)."""
        functions = {}
        for name, fp in self.functions.items():
            scaled = {uid: int(c * factor) for uid, c in fp.edge_freq.items()}
            functions[name] = FunctionEdgeProfile(
                fp.func, scaled, int(fp.entry_count * factor))
        return EdgeProfile(self.module, functions)
