"""The staged-optimization front half: profile, inline, re-profile, unroll.

Mirrors the paper's methodology (Section 7.3): collect an edge profile,
perform edge-profile-guided inlining and unrolling, and hand the expanded
module to the path profilers.  The intermediate re-profile after inlining
keeps the unroller's trip counts accurate for the restructured code --
just as a staged dynamic optimizer's continuously-collected edge profile
would.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..interp.machine import Machine, RunResult
from ..ir.function import Module
from ..profiles.edge_profile import EdgeProfile
from .cleanup import CleanupStats, cleanup_module
from .inline import CODE_BLOAT, MAX_CALLEE_SIZE, InlineStats, inline_module
from .licm import licm_module
from .unroll import UNROLL_FACTOR, UnrollStats, unroll_module


def _scalar_opts(module: Module) -> tuple[Module, CleanupStats]:
    """The "standard scalar optimizations" stage: folding/propagation/DCE,
    loop-invariant code motion, then another folding round to clean up
    what LICM exposed (and merge preheaders into straight-line chains)."""
    module, stats = cleanup_module(module)
    module, _licm_stats = licm_module(module)
    module, more = cleanup_module(module)
    for field_name in ("constants_folded", "copies_propagated",
                       "dead_removed", "branches_resolved",
                       "blocks_threaded", "blocks_merged"):
        setattr(stats, field_name,
                getattr(stats, field_name) + getattr(more, field_name))
    return module, stats


@dataclass
class OptimizationResult:
    """The expanded module plus everything Table 1 reports about it."""

    module: Module
    baseline_module: Module  # scalar-optimized but not inlined/unrolled
    inline_stats: InlineStats
    unroll_stats: UnrollStats
    cleanup_stats: CleanupStats
    baseline_cost: float   # cost-model cost of the baseline module
    optimized_cost: float  # cost-model cost of the expanded module

    @property
    def speedup(self) -> float:
        """Original cost / optimized cost (Table 1's speedup column)."""
        if self.optimized_cost == 0:
            return 1.0
        return self.baseline_cost / self.optimized_cost


def _edge_profiled_run(module: Module, args: tuple,
                       backend: str | None) -> tuple[EdgeProfile, RunResult]:
    """Run the module once with edge profiling enabled.  Edge counting
    is not billed, so the run's cost is the plain run's cost."""
    machine = Machine(module, collect_edge_profile=True, backend=backend)
    result = machine.run(args=args)
    assert result.edge_counts is not None and result.invocations is not None
    return EdgeProfile.from_run(module, result.edge_counts,
                                result.invocations), result


def collect_edge_profile(module: Module, args: tuple = (),
                         backend: str | None = None) -> EdgeProfile:
    """Run the module once with edge profiling enabled."""
    return _edge_profiled_run(module, args, backend)[0]


def expand_module(module: Module, args: tuple = (),
                  code_bloat: float = CODE_BLOAT,
                  max_callee_size: int = MAX_CALLEE_SIZE,
                  unroll_factor: int = UNROLL_FACTOR,
                  scalar_cleanup: bool = True,
                  check_behaviour: bool = True,
                  backend: str | None = None) -> OptimizationResult:
    """Inline and unroll under edge-profile guidance.

    Per the paper's Table 1 methodology, standard scalar optimizations
    run on *both* versions: the baseline is the scalar-optimized module,
    and the expanded module gets one more scalar pass after inlining and
    unrolling.  When ``check_behaviour`` is set, the expanded module is
    verified to produce the same return value as the original (profiling
    transformations must never change semantics).  ``backend`` selects
    the interpreter backend of every machine the expansion runs.
    """
    if scalar_cleanup:
        baseline, cleanup_stats = _scalar_opts(module)
    else:
        baseline, cleanup_stats = module, CleanupStats()
    profile, base_result = _edge_profiled_run(baseline, args, backend)
    inlined, inline_stats = inline_module(
        baseline, profile, code_bloat=code_bloat,
        max_callee_size=max_callee_size)
    profile2 = collect_edge_profile(inlined, args, backend)
    unrolled, unroll_stats = unroll_module(inlined, profile2,
                                           factor=unroll_factor)
    if scalar_cleanup:
        unrolled, more_stats = _scalar_opts(unrolled)
        cleanup_stats.constants_folded += more_stats.constants_folded
        cleanup_stats.copies_propagated += more_stats.copies_propagated
        cleanup_stats.dead_removed += more_stats.dead_removed
        cleanup_stats.branches_resolved += more_stats.branches_resolved
        cleanup_stats.blocks_threaded += more_stats.blocks_threaded
    opt_machine = Machine(unrolled, backend=backend)
    opt_result = opt_machine.run(args=args)
    if check_behaviour and opt_result.return_value != base_result.return_value:
        raise AssertionError(
            f"inlining/unrolling changed behaviour of {module.name!r}: "
            f"{base_result.return_value!r} -> {opt_result.return_value!r}")
    return OptimizationResult(
        module=unrolled,
        baseline_module=baseline,
        inline_stats=inline_stats,
        unroll_stats=unroll_stats,
        cleanup_stats=cleanup_stats,
        baseline_cost=base_result.costs.base,
        optimized_cost=opt_result.costs.base,
    )
