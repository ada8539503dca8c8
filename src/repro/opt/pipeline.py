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
from typing import Callable, Optional

from ..interp.machine import Machine
from ..ir.function import Module
from ..profiles.edge_profile import EdgeProfile
from .cleanup import CleanupStats, cleanup_module
from .inline import CODE_BLOAT, InlineStats, inline_module
from .licm import licm_module
from .unroll import UnrollStats, unroll_module


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


# module -> (edge profile, return value, unbilled base cost)
ModuleProfiler = Callable[[Module], tuple[EdgeProfile, object, float]]


def _edge_profiled_run(module: Module, backend: str | None
                       ) -> tuple[EdgeProfile, object, float]:
    """Run the module once with edge profiling enabled.  Edge counting
    is not billed, so the run's cost is the plain run's cost."""
    machine = Machine(module, collect_edge_profile=True, backend=backend)
    result = machine.run()
    assert result.edge_counts is not None and result.invocations is not None
    return (EdgeProfile.from_run(module, result.edge_counts,
                                 result.invocations),
            result.return_value, result.costs.base)


def collect_edge_profile(module: Module) -> EdgeProfile:
    """Run the module once with edge profiling enabled."""
    return _edge_profiled_run(module, None)[0]


def expand_module(module: Module, code_bloat: float = CODE_BLOAT,
                  backend: str | None = None,
                  profile: Optional[ModuleProfiler] = None
                  ) -> OptimizationResult:
    """Inline and unroll under edge-profile guidance.

    Per the paper's Table 1 methodology, standard scalar optimizations
    run on *both* versions: the baseline is the scalar-optimized module,
    and the expanded module gets one more scalar pass after inlining and
    unrolling.  The expanded module is verified to produce the same
    return value as the original (profiling transformations must never
    change semantics).  ``profile`` observes the baseline, inlined and
    expanded modules; by default it is an edge-profiled run on
    ``backend``.
    """
    profile = profile or (lambda m: _edge_profiled_run(m, backend))
    baseline, cleanup_stats = _scalar_opts(module)
    base_profile, base_return, base_cost = profile(baseline)
    inlined, inline_stats = inline_module(baseline, base_profile,
                                          code_bloat=code_bloat)
    unrolled, unroll_stats = unroll_module(inlined, profile(inlined)[0])
    unrolled, more_stats = _scalar_opts(unrolled)
    cleanup_stats.constants_folded += more_stats.constants_folded
    cleanup_stats.copies_propagated += more_stats.copies_propagated
    cleanup_stats.dead_removed += more_stats.dead_removed
    cleanup_stats.branches_resolved += more_stats.branches_resolved
    cleanup_stats.blocks_threaded += more_stats.blocks_threaded
    _profile, opt_return, opt_cost = profile(unrolled)
    if opt_return != base_return:
        raise AssertionError(
            f"inlining/unrolling changed behaviour of {module.name!r}: "
            f"{base_return!r} -> {opt_return!r}")
    return OptimizationResult(
        module=unrolled,
        baseline_module=baseline,
        inline_stats=inline_stats,
        unroll_stats=unroll_stats,
        cleanup_stats=cleanup_stats,
        baseline_cost=base_cost,
        optimized_cost=opt_cost,
    )
