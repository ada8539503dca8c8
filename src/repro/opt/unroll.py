"""Profile-guided loop unrolling (Section 7.3).

Follows the paper's description of Scale: hot inner loops are unrolled by
a factor of four (the same factor as the Alpha compiler and Jikes RVM);
loops with a low average trip count (< 8) or whose unrolled body would
exceed 256 IR statements are unrolled less or not at all.

Unrolling replicates the loop body: iteration copies are chained so the
back edge is taken once per ``factor`` iterations, with every copy keeping
its exit tests (the general while-loop-safe scheme).  This preserves
semantics exactly while making Ball-Larus paths through the loop up to
four times longer -- the paper's point: harder, more realistic paths.

Only innermost loops with a single back edge are candidates (Scale
likewise skips most while loops, so "unrolling applicability is limited in
the integer C programs").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfg.loops import Loop, find_loops, innermost_loops
from ..ir.function import Function, Module
from ..ir.instructions import Instr
from ..profiles.edge_profile import EdgeProfile, FunctionEdgeProfile
from .rebuild import block_map, rebuild_function, retarget

UNROLL_FACTOR = 4        # Section 7.3
MIN_TRIP_COUNT = 8.0     # Section 7.3: below this, unroll less or not at all
MAX_UNROLLED_SIZE = 256  # Section 7.3


@dataclass
class UnrollStats:
    """Feeds Table 1's 'avg unroll factor' column (weighted by dynamic
    loop iterations)."""

    loops_unrolled: int = 0
    loops_considered: int = 0
    # (factor, dynamic iterations) per considered loop
    weighted: list[tuple[int, float]] = field(default_factory=list)

    @property
    def average_unroll_factor(self) -> float:
        total_iters = sum(w for _f, w in self.weighted)
        if total_iters == 0:
            return 1.0
        return sum(f * w for f, w in self.weighted) / total_iters


def _loop_trips(loop: Loop, func: Function,
                profile: FunctionEdgeProfile) -> float:
    entries = sum(profile.freq(e) for e in loop.entry_edges(func.cfg))
    if entries <= 0:
        return 0.0
    return profile.block_freq(loop.header) / entries


def _loop_size(loop: Loop, func: Function) -> int:
    return sum(len(func.cfg.blocks[b].instructions) for b in loop.body)


def _choose_factor(trips: float, size: int) -> int:
    """The largest factor <= :data:`UNROLL_FACTOR` that meets the paper's
    gates."""
    factor = UNROLL_FACTOR
    while factor > 1:
        if trips >= MIN_TRIP_COUNT and size * factor <= MAX_UNROLLED_SIZE:
            return factor
        factor //= 2
    return 1


def _unroll_loop(blocks: dict[str, list[Instr]], loop: Loop,
                 factor: int, tag: str) -> None:
    """Replicate the body ``factor - 1`` times and rechain back edges."""
    latch = loop.back_edges[0].src
    header = loop.header

    def copy_name(bname: str, k: int) -> str:
        return f"{bname}{tag}u{k}"

    # Copies 1..factor-1; copy k's latch jumps to copy k+1's header (or the
    # original header for the last copy).  The original latch (copy 0)
    # jumps to copy 1's header.
    for k in range(1, factor):
        next_header = header if k == factor - 1 else copy_name(header, k + 1)
        # Sorted: body is a set, and the iteration order here decides the
        # order copied blocks enter the function (hence edge uids).
        table = {bname: copy_name(bname, k) for bname in sorted(loop.body)}
        table[header] = copy_name(header, k)
        for bname in sorted(loop.body):
            retable = dict(table)
            if bname == latch:
                retable[header] = next_header
            blocks[copy_name(bname, k)] = [
                retarget(instr, retable) for instr in blocks[bname]]
    # Original latch now enters the first copy.
    blocks[latch] = [
        retarget(instr, {header: copy_name(header, 1)})
        for instr in blocks[latch]]


def unroll_module(module: Module, profile: EdgeProfile
                  ) -> tuple[Module, UnrollStats]:
    """Unroll hot inner loops; returns the new module and statistics."""
    stats = UnrollStats()
    new_module = Module(module.name)
    new_module.main = module.main
    new_module.global_scalars = dict(module.global_scalars)
    new_module.global_arrays = dict(module.global_arrays)
    for name, func in module.functions.items():
        fprofile = profile[name]
        loops = innermost_loops(find_loops(func.cfg))
        blocks = block_map(func)
        changed = False
        for loop in loops:
            if len(loop.back_edges) != 1:
                continue  # the general scheme needs a single latch
            stats.loops_considered += 1
            trips = _loop_trips(loop, func, fprofile)
            iterations = float(sum(fprofile.freq(b)
                                   for b in loop.back_edges))
            size = _loop_size(loop, func)
            chosen = _choose_factor(trips, size)
            stats.weighted.append((chosen, iterations))
            if chosen <= 1:
                continue
            _unroll_loop(blocks, loop, chosen, f"@{loop.header}")
            stats.loops_unrolled += 1
            changed = True
        if changed:
            entry = func.cfg.entry
            assert entry is not None
            new_module.functions[name] = rebuild_function(
                name, list(func.params), dict(func.arrays), blocks, entry,
                synthetic=set(getattr(func, "synthetic_blocks", ())))
        else:
            new_module.functions[name] = func
    return new_module, stats
