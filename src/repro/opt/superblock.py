"""Superblock formation from hot paths (the paper's motivating consumer).

The paper's introduction argues compilers need path profiles to "find,
analyze, and optimize hot paths", citing superblock/hyperblock formation.
This module closes that loop: given hot paths (from PPP, or from an
edge-profile estimate, for comparison), it forms *superblocks* by tail
duplication -- every block after the trace head is cloned so the hot path
becomes a straight-line, single-entry region with side exits only.  The
scalar cleanup passes then optimize across the straightened merges.

Semantics are trivially preserved (clones are exact copies whose
off-trace edges target the original blocks); the property tests execute
before/after to enforce it.

The benefit metric is *merge crossings*: dynamic traversals of edges into
join blocks (blocks with several predecessors).  Joins are what cut
optimization scope and instruction fetch; a superblock removes them from
the hot path.  :func:`merge_crossings` measures it from an edge profile,
and the study in :mod:`repro.harness.superblock_study` compares formation
guided by PPP's measured paths against formation guided by the edge
profile's potential-flow estimate -- path profiling's payoff, quantified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.function import Function, Module
from ..ir.instructions import Branch, Jump
from ..profiles.edge_profile import EdgeProfile
from ..profiles.path_profile import PathKey
from .rebuild import block_map, rebuild_function, retarget

GROWTH_BUDGET = 0.5  # superblocks may grow a function by 50%


@dataclass
class SuperblockStats:
    """What formation did."""

    traces_formed: int = 0
    blocks_duplicated: int = 0
    traces_skipped: int = 0
    formed: list[tuple[str, PathKey]] = field(default_factory=list)


class _Former:
    def __init__(self, func: Function, budget_blocks: int):
        self.blocks = block_map(func)
        self.entry = func.cfg.entry
        self.func = func
        self.budget = budget_blocks
        self.counter = 0
        self.stats = SuperblockStats()

    def _has_edge(self, src: str, dst: str) -> bool:
        instrs = self.blocks.get(src)
        if not instrs:
            return False
        term = instrs[-1]
        if isinstance(term, Jump):
            return term.target == dst
        if isinstance(term, Branch):
            return dst in (term.then_target, term.else_target)
        return False

    def form(self, path: PathKey) -> bool:
        """Tail-duplicate one hot path; returns False when skipped."""
        if len(path) < 3:
            return False  # nothing to straighten
        # The whole path must still exist (earlier traces may have
        # redirected edges away from these originals).
        for src, dst in zip(path, path[1:]):
            if not self._has_edge(src, dst):
                return False
        # Once the first join is duplicated, its clone adds a predecessor
        # to the next path block, which then needs cloning too: classic
        # tail duplication clones everything from the first join onward.
        clones_needed = 0
        cloning = False
        for name in path[1:]:
            if self._is_exit(name):
                break
            if cloning or self._pred_count(name) > 1:
                cloning = True
                clones_needed += 1
        if clones_needed == 0:
            return False  # already straight-line
        if self.stats.blocks_duplicated + clones_needed > self.budget:
            return False
        self.counter += 1
        tag = f"@sb{self.counter}"
        prev = path[0]
        for name in path[1:]:
            if self._is_exit(name):
                break  # never clone the return block (single-exit IR)
            if self._pred_count(name) <= 1:
                prev = name
                continue  # already single-entry; keep the original
            clone = f"{name}{tag}"
            self.blocks[clone] = list(self.blocks[name])
            self.stats.blocks_duplicated += 1
            # Redirect the trace edge prev -> name onto the clone.
            self.blocks[prev] = (
                self.blocks[prev][:-1]
                + [retarget(self.blocks[prev][-1], {name: clone})])
            prev = clone
        return True

    def _is_exit(self, name: str) -> bool:
        from ..ir.instructions import Ret
        instrs = self.blocks.get(name)
        return bool(instrs) and isinstance(instrs[-1], Ret)

    def _pred_count(self, name: str) -> int:
        count = 0
        for instrs in self.blocks.values():
            if not instrs:
                continue
            term = instrs[-1]
            if isinstance(term, Jump) and term.target == name:
                count += 1
            elif isinstance(term, Branch) \
                    and name in (term.then_target, term.else_target):
                count += 1
        return count

    def finish(self) -> Function:
        assert self.entry is not None
        return rebuild_function(self.func.name, list(self.func.params),
                                dict(self.func.arrays), self.blocks,
                                self.entry,
                                synthetic=set(getattr(self.func,
                                                      "synthetic_blocks",
                                                      ())))


def form_superblocks(module: Module,
                     hot_paths: list[tuple[str, PathKey, float]]
                     ) -> tuple[Module, SuperblockStats]:
    """Form superblocks for hot paths, hottest first, within a growth
    budget.  ``hot_paths`` is (function, path blocks, flow), as produced
    by :meth:`PathProfile.hot_paths` or an estimated profile ranking.
    """
    stats = SuperblockStats()
    by_function: dict[str, list[tuple[PathKey, float]]] = {}
    for func_name, blocks, flow in hot_paths:
        by_function.setdefault(func_name, []).append((blocks, flow))

    out = Module(module.name)
    out.main = module.main
    out.global_scalars = dict(module.global_scalars)
    out.global_arrays = dict(module.global_arrays)
    for name, func in module.functions.items():
        traces = sorted(by_function.get(name, []), key=lambda t: -t[1])
        if not traces:
            out.functions[name] = func
            continue
        budget = max(2, int(func.cfg.num_blocks * GROWTH_BUDGET))
        former = _Former(func, budget)
        for blocks, _flow in traces:
            if former.form(blocks):
                stats.traces_formed += 1
                stats.formed.append((name, blocks))
            else:
                stats.traces_skipped += 1
        stats.blocks_duplicated += former.stats.blocks_duplicated
        out.functions[name] = former.finish()
    return out, stats


def merge_crossings(module: Module, profile: EdgeProfile) -> float:
    """Dynamic traversals of edges into join blocks, per the module run.

    Every such crossing enters a block with several predecessors -- the
    boundary that blocks straight-line optimization and fetch.  Superblock
    formation exists to push hot flow off these edges.
    """
    total = 0.0
    for name, func in module.functions.items():
        fp = profile[name]
        for edge in func.cfg.edges():
            if len(func.cfg.blocks[edge.dst].pred_edges) > 1:
                total += fp.freq(edge)
    return total
