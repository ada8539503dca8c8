"""A hardware hot-path table (HPT), after Vaswani et al. [29].

The paper's related work describes a programmable hardware path profiler
that tracks paths in a fixed-size, set-associative *hot path table*: under
1% overhead (it is hardware), and "its accuracy is high (above 90% on
average) when the HPT is large enough".  This module simulates exactly
the part that determines accuracy -- the finite table -- so the
reproduction can chart accuracy against HPT capacity and compare the
hardware approach's failure mode (capacity evictions on warm-path
programs) with PPP's.

Each completed Ball-Larus path (standing in for the hardware's
branch-outcome shifter) indexes a set by a hash of (function, path);
ways within a set are managed with smallest-count eviction, the policy
the hardware uses to keep hot entries resident.  The paths arrive as a
recorded :class:`~repro.core.stream.PathStream` that is replayed into
the table in completion order, so one execution serves every table
geometry.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from ..ir.function import Module
from ..profiles.flow import path_branches
from ..profiles.metrics import EstimatedFlows
from ..profiles.path_profile import PathKey
from .stream import PathStream

DEFAULT_SETS = 64
DEFAULT_WAYS = 4


@dataclass
class HptEntry:
    function: str
    blocks: PathKey
    count: int = 0


@dataclass
class HptResult:
    entries: list[HptEntry] = field(default_factory=list)
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    return_value: object = None

    @property
    def capacity_pressure(self) -> float:
        """Evictions per recorded path: 0 when the table never thrashed."""
        total = self.hits + self.misses
        return self.evictions / total if total else 0.0

    def estimated_flows(self, module: Module) -> EstimatedFlows:
        """Each resident path's count weighted by its branches (the
        paper's branch-flow metric)."""
        flows: EstimatedFlows = {}
        for entry in self.entries:
            func = module.functions[entry.function]
            weight = float(entry.count) * path_branches(func, entry.blocks)
            key = (entry.function, entry.blocks)
            flows[key] = flows.get(key, 0.0) + weight
        return flows


class HotPathTable:
    """The set-associative table, fed one completed path per call."""

    def __init__(self, sets: int = DEFAULT_SETS, ways: int = DEFAULT_WAYS):
        if sets <= 0 or ways <= 0:
            raise ValueError("HPT geometry must be positive")
        self.sets = sets
        self.ways = ways
        self.table: list[list[HptEntry]] = [[] for _ in range(sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __call__(self, function: str, blocks: PathKey) -> None:
        self.insert(self.set_index(function, blocks), function, blocks)

    def set_index(self, function: str, blocks: PathKey) -> int:
        """The set a path maps to."""
        # Deterministic across processes (Python's str hash is salted).
        key = "\x00".join((function,) + blocks).encode()
        return zlib.crc32(key) % self.sets

    def insert(self, index: int, function: str, blocks: PathKey) -> None:
        """Record one completed path in set ``index``."""
        bucket = self.table[index]
        for entry in bucket:
            if entry.function == function and entry.blocks == blocks:
                entry.count += 1
                self.hits += 1
                return
        self.misses += 1
        if len(bucket) < self.ways:
            bucket.append(HptEntry(function, blocks, 1))
            return
        # Evict the coldest way; the newcomer starts over at 1.
        victim = min(range(len(bucket)), key=lambda i: bucket[i].count)
        bucket[victim] = HptEntry(function, blocks, 1)
        self.evictions += 1

    def replay(self, stream: PathStream) -> HptResult:
        """Feed every path of ``stream`` through the table, in order,
        hashing each distinct path once; the table's result."""
        indices = [self.set_index(f, b) for f, b in stream.paths]
        insert = self.insert
        paths = stream.paths
        for event in stream.events:
            insert(indices[event], *paths[event])
        return self.result(stream.return_value)

    def result(self, return_value: object = None) -> HptResult:
        entries = [entry for bucket in self.table for entry in bucket]
        entries.sort(key=lambda e: -e.count)
        return HptResult(entries=entries, hits=self.hits,
                         misses=self.misses, evictions=self.evictions,
                         return_value=return_value)
