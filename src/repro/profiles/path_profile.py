"""Path profiles: exact or estimated per-path execution counts.

A *path key* is the tuple of block names executed between a Ball-Larus
path start (routine entry, or loop header right after a back edge) and
path end (back edge, or routine exit).  The ground-truth tracer
(:mod:`repro.interp.machine`) produces exactly these keys, and the
reconstruction algorithms (:mod:`repro.profiles.reconstruct`) produce the
same keys from estimated profiles, so the two sides compare directly.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..ir.function import Function, Module
from .flow import Metric, path_branches, path_flow

PathKey = tuple[str, ...]


class FunctionPathProfile:
    """Path execution counts for one function."""

    def __init__(self, func: Function, counts: dict[PathKey, float]):
        self.func = func
        self.counts = dict(counts)
        self._branches: dict[PathKey, int] = {}

    def branches(self, path: PathKey) -> int:
        """Number of branch decisions on the path (cached)."""
        cached = self._branches.get(path)
        if cached is None:
            cached = path_branches(self.func, path)
            self._branches[path] = cached
        return cached

    def flow(self, path: PathKey, metric: Metric = "branch") -> float:
        return path_flow(self.counts.get(path, 0), self.branches(path),
                         metric)

    def total_flow(self, metric: Metric = "branch") -> float:
        return sum(self.flow(p, metric) for p in self.counts)

    def add(self, path: PathKey, count: float) -> None:
        self.counts[path] = self.counts.get(path, 0) + count

    def __len__(self) -> int:
        return len(self.counts)


class PathProfile:
    """Module-wide path profile (ground truth or estimated)."""

    def __init__(self, module: Module,
                 functions: dict[str, FunctionPathProfile]):
        self.module = module
        self.functions = functions

    @classmethod
    def from_trace(cls, module: Module,
                   path_counts: dict[str, dict[PathKey, int]]) -> "PathProfile":
        """Build from the raw dictionaries a tracing Machine run collects."""
        functions = {
            name: FunctionPathProfile(func, path_counts.get(name, {}))
            for name, func in module.functions.items()
        }
        return cls(module, functions)

    @classmethod
    def empty(cls, module: Module) -> "PathProfile":
        return cls(module, {name: FunctionPathProfile(func, {})
                            for name, func in module.functions.items()})

    def __getitem__(self, name: str) -> FunctionPathProfile:
        return self.functions[name]

    def merge(self, other: "PathProfile") -> "PathProfile":
        """Combine two runs' path profiles (multi-run inputs, Section 7.2)."""
        if other.module is not self.module:
            raise ValueError("can only merge profiles of the same module")
        functions = {}
        for name, fp in self.functions.items():
            counts = dict(fp.counts)
            for path, count in other.functions[name].counts.items():
                counts[path] = counts.get(path, 0) + count
            functions[name] = FunctionPathProfile(fp.func, counts)
        return PathProfile(self.module, functions)

    def items(self) -> Iterator[tuple[str, PathKey, float]]:
        """Iterate (function name, path, count) over all recorded paths."""
        for name, fp in self.functions.items():
            for path, count in fp.counts.items():
                yield name, path, count

    def distinct_paths(self) -> int:
        """Number of distinct (function, path) pairs (Table 2 column 1)."""
        return sum(len(fp) for fp in self.functions.values())

    def dynamic_paths(self) -> float:
        """Total path executions (Table 1's 'dynamic paths')."""
        return sum(sum(fp.counts.values()) for fp in self.functions.values())

    def total_flow(self, metric: Metric = "branch") -> float:
        return sum(fp.total_flow(metric) for fp in self.functions.values())

    def flow_of(self, func_name: str, path: PathKey,
                metric: Metric = "branch") -> float:
        return self.functions[func_name].flow(path, metric)

    def hot_paths(self, threshold_fraction: float,
                  metric: Metric = "branch",
                  total: Optional[float] = None
                  ) -> list[tuple[str, PathKey, float]]:
        """Paths whose flow is at least ``threshold_fraction`` of total
        program flow, hottest first (Section 6.1 / Table 2).

        The paper uses 0.125% as the primary threshold and 1% as the
        stricter one.
        """
        if total is None:
            total = self.total_flow(metric)
        cutoff = threshold_fraction * total
        hot = [(name, path, self.flow_of(name, path, metric))
               for name, path, _count in self.items()
               if self.flow_of(name, path, metric) >= cutoff]
        hot.sort(key=lambda item: (-item[2], item[0], item[1]))
        return hot

    def average_path_stats(self) -> tuple[float, float]:
        """(average branches, average block count) per dynamic path.

        Table 1 reports average branches and average instructions per
        dynamic path; block count weighted by execution approximates the
        instruction column once multiplied by instructions-per-block, and
        the exact instruction average is computed by the harness from IR
        block sizes.
        """
        total_paths = 0.0
        total_branches = 0.0
        total_blocks = 0.0
        for name, fp in self.functions.items():
            for path, count in fp.counts.items():
                total_paths += count
                total_branches += count * fp.branches(path)
                total_blocks += count * len(path)
        if total_paths == 0:
            return (0.0, 0.0)
        return (total_branches / total_paths, total_blocks / total_paths)

    def average_instructions_per_path(self) -> float:
        """Average executed IR statements per dynamic path (Table 1)."""
        total_paths = 0.0
        total_instrs = 0.0
        for name, fp in self.functions.items():
            sizes = {bname: len(block.instructions)
                     for bname, block in fp.func.cfg.blocks.items()}
            for path, count in fp.counts.items():
                total_paths += count
                total_instrs += count * sum(sizes[b] for b in path)
        if total_paths == 0:
            return 0.0
        return total_instrs / total_paths
