"""Hot-path reconstruction from flow-value sets (appendix, Figure 16).

Given the ``M`` maps of Figure 14/15, this enumerates the concrete paths
whose (definite or potential) flow exceeds a cutoff.  It follows the
paper's corrected algorithm: the per-call ``used`` set and the
``debit = min(delta', delta_g)`` bookkeeping are the fixes Bond & McKinley
confirmed with Ball (reference [9] in the paper); without them a flow-value
entry shared by several paths is over- or under-debited.

For potential flow the paper prescribes two changes, which we implement
as: recurse with the matched edge entry's own flow value ``g``, and relax
the match from ``g == f`` to the *smallest* ``g >= f`` whose min with the
edge frequency reproduces ``f``.

Paths are returned as Ball-Larus block sequences (dummy edges stripped),
identical to the ground-truth tracer's path keys, so estimated and actual
profiles compare directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cfg.graph import Edge
from .flowsets import FlowSets

def dag_path_to_blocks(path: list[Edge]) -> Optional[tuple[str, ...]]:
    """Convert a DAG edge sequence into a Ball-Larus block sequence.

    A leading entry->header dummy means the path starts at the header; a
    trailing tail->exit dummy means it ends at the tail.  The result is
    exactly the key the ground-truth tracer records.
    """
    if not path:
        return None
    first = path[0]
    blocks: list[str] = [first.dst if first.dummy else first.src]
    for edge in path[1:] if first.dummy else path:
        if edge.dummy:
            continue  # the exit dummy ends the path at its source
        blocks.append(edge.dst)
    return tuple(blocks)


# A reconstructed path: block sequence, estimated frequency, branch count.


@dataclass(frozen=True)
class ReconstructedPath:
    blocks: tuple[str, ...]
    freq: float
    branches: int

    def flow(self, metric: str = "branch") -> float:
        return self.freq * self.branches if metric == "branch" else self.freq


class _Enumerator:
    def __init__(self, sets: FlowSets, cutoff: float, max_paths: int):
        self.sets = sets
        self.dag = sets.dag
        self.freqs = sets.freqs
        self.cutoff = cutoff
        self.max_paths = max_paths
        self.paths: list[ReconstructedPath] = []
        self.exit_name = sets.dag.dag.exit

    def run(self) -> list[ReconstructedPath]:
        entry = self.dag.dag.entry
        assert entry is not None
        items = sorted(self.sets.entry_set().items(),
                       key=lambda kv: (-kv[0][0] * kv[0][1], kv[0]))
        for (f, b), delta in items:
            if f * b <= self.cutoff:
                break  # sorted by decreasing flow
            if len(self.paths) >= self.max_paths:
                break
            self._enumerate(entry, [], f, b, f, delta)
        return self.paths

    def _enumerate(self, v: str, path: list[Edge], f: float, b: int,
                   f_prime: float, delta: float) -> None:
        if len(self.paths) >= self.max_paths:
            return
        if v == self.exit_name:
            self._record(path, f_prime, b)
            return
        remaining = delta
        used: set[tuple[int, float, int]] = set()
        while remaining > 0:
            match = self._find(v, f, b, used)
            if match is None:
                return  # dead end (possible only under set truncation)
            edge, g, c, delta_g, child_f = match
            debit = min(remaining, delta_g)
            path.append(edge)
            self._enumerate(edge.dst, path, child_f, c, f_prime, debit)
            path.pop()
            used.add((edge.uid, g, c))
            remaining -= debit
            if len(self.paths) >= self.max_paths:
                return

    def _find(self, v: str, f: float, b: int,
              used: set[tuple[int, float, int]]
              ) -> Optional[tuple[Edge, float, int, float, float]]:
        """Find an out edge and an M[e] entry matching the target (f, b).

        Returns (edge, g, c, delta_g, child flow value for the recursion).
        Edge entries store unshifted branch counts, so a branch edge's
        entry must have ``c == b - 1``.
        """
        sets = self.sets
        freqs = self.freqs
        best: Optional[tuple[Edge, float, int, float, float]] = None
        for edge in sorted(self.dag.dag.out_edges(v), key=lambda e: e.uid):
            edge_set = sets.edge.get(edge.uid)
            if not edge_set:
                continue
            want_c = b - 1 if sets.is_branch.get(edge.uid) else b
            if sets.mode == "definite":
                entry = edge_set.get((f, want_c))
                if entry and (edge.uid, f, want_c) not in used:
                    slack = freqs.block[edge.dst] - freqs.edge[edge.uid]
                    return (edge, f, want_c, entry, f + slack)
            else:
                # Potential flow: the smallest entry with g >= f.  The
                # subpath's own potential g may exceed the whole path's
                # potential f when the bottleneck edge lies earlier; any
                # g >= f continues a path whose overall min stays f.
                for (g, c), delta_g in edge_set.items():
                    if c != want_c or g < f:
                        continue
                    if (edge.uid, g, c) in used:
                        continue
                    if best is None or g < best[1]:
                        best = (edge, g, c, delta_g, g)
        return best

    def _record(self, path: list[Edge], freq: float, b_left: int) -> None:
        if b_left != 0:
            # Branch bookkeeping should come out exact; a nonzero residue
            # can only appear under set truncation.  Skip the bogus path.
            return
        blocks = dag_path_to_blocks(path)
        if blocks is None:
            return
        total_b = sum(1 for e in path if self.sets.is_branch.get(e.uid))
        self.paths.append(ReconstructedPath(blocks, freq, total_b))


def reconstruct_hot_paths(sets: FlowSets, cutoff: float,
                          max_paths: int = 5000) -> list[ReconstructedPath]:
    """Enumerate paths with flow above ``cutoff`` from a flow-set computation.

    ``cutoff`` is an absolute flow value under the branch-flow metric.
    ``max_paths`` bounds the enumeration; hitting it is reported by simply
    returning that many of the hottest paths (entries are visited hottest
    first).
    """
    return _Enumerator(sets, cutoff, max_paths).run()
