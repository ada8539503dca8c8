"""Does better path information make better superblocks?

The end-to-end payoff study: form superblocks (a) from PPP's measured
path profile and (b) from the edge profile's potential-flow estimate --
the best path guess available without path profiling -- under the same
growth budget, then measure how many dynamic *merge crossings* remain on
each transformed program.  Fewer crossings mean more execution runs
straight-line inside superblocks, which is exactly what trace schedulers
and path-based optimizers need.

This quantifies the paper's opening argument: edge profiles mispredict
hot paths, so the superblocks they seed straighten the wrong code.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import build_estimated_profile, edge_profile_estimate
from ..engine import ProfilingSession, WorkloadResult
from ..opt.superblock import form_superblocks, merge_crossings
from .report import render_table


@dataclass
class SuperblockComparison:
    benchmark: str
    baseline_crossings: float      # merge crossings with no superblocks
    ppp_crossings: float           # after PPP-guided formation
    edge_crossings: float          # after edge-estimate-guided formation
    ppp_traces: int
    edge_traces: int

    @property
    def ppp_reduction(self) -> float:
        if self.baseline_crossings == 0:
            return 0.0
        return 1.0 - self.ppp_crossings / self.baseline_crossings

    @property
    def edge_reduction(self) -> float:
        if self.baseline_crossings == 0:
            return 0.0
        return 1.0 - self.edge_crossings / self.baseline_crossings


TOP_N = 12  # traces formed per guide: the hottest paths it ranks


def compare_superblocks(result: WorkloadResult, *,
                        session: ProfilingSession) -> SuperblockComparison:
    module = result.expanded
    baseline = merge_crossings(module, result.edge_profile)

    # (a) PPP-guided: hottest measured/estimated paths.
    ppp_run = result.techniques["ppp"].run
    estimated = build_estimated_profile(ppp_run, result.edge_profile)
    ppp_ranked = sorted(estimated.flows.items(),
                        key=lambda kv: (-kv[1], kv[0]))[:TOP_N]
    ppp_paths = [(name, blocks, flow)
                 for (name, blocks), flow in ppp_ranked]
    ppp_module, ppp_stats = form_superblocks(module, ppp_paths)
    _pa, ppp_profile, ppp_rv = session.trace(ppp_module)
    assert ppp_rv == result.return_value, \
        "superblock formation changed behaviour"
    ppp_after = merge_crossings(ppp_module, ppp_profile)

    # (b) edge-profile-guided: potential-flow estimate, same budget.
    edge_flows = edge_profile_estimate(module, result.edge_profile)
    edge_ranked = sorted(edge_flows.items(),
                         key=lambda kv: (-kv[1], kv[0]))[:TOP_N]
    edge_paths = [(name, blocks, flow)
                  for (name, blocks), flow in edge_ranked]
    edge_module, edge_stats = form_superblocks(module, edge_paths)
    _ea, edge_profile, edge_rv = session.trace(edge_module)
    assert edge_rv == result.return_value
    edge_after = merge_crossings(edge_module, edge_profile)

    return SuperblockComparison(
        benchmark=result.workload.name,
        baseline_crossings=baseline,
        ppp_crossings=ppp_after,
        edge_crossings=edge_after,
        ppp_traces=ppp_stats.traces_formed,
        edge_traces=edge_stats.traces_formed,
    )


def superblock_table(results: dict[str, WorkloadResult], *,
                     session: ProfilingSession) -> str:
    rows = []
    for name, result in results.items():
        cmp = compare_superblocks(result, session=session)
        rows.append([cmp.benchmark,
                     f"{cmp.baseline_crossings:.0f}",
                     f"{cmp.ppp_reduction * 100:.0f}%",
                     f"{cmp.edge_reduction * 100:.0f}%",
                     cmp.ppp_traces, cmp.edge_traces])
    return render_table(
        ["Benchmark", "Merge crossings", "PPP cut", "Edge cut",
         "PPP traces", "Edge traces"], rows,
        title=("Superblock formation: merge crossings removed when "
               "traces come from PPP vs the edge-profile estimate."))
