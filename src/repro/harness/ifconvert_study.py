"""If-conversion x path profiling: how predication reshapes profiles.

Converting mispredictable diamonds into selects removes branch decisions,
so the Ball-Larus path population shrinks -- sometimes dramatically --
and PPP's instrumentation gets cheaper and more complete.  The price is
executing both arms.  This study reports both sides per workload:

* distinct paths and PPP overhead, before vs after if-conversion;
* the baseline work increase (both-arms execution);
* PPP accuracy on the converted code (fewer paths are easier to profile).
"""

from __future__ import annotations

from dataclasses import dataclass
from ..engine import ProfilingSession, ScoreRequest, WorkloadResult
from ..opt.ifconvert import if_convert_module
from .report import render_table


@dataclass
class IfConvertComparison:
    benchmark: str
    diamonds_converted: int
    distinct_before: int
    distinct_after: int
    ppp_overhead_before: float
    ppp_overhead_after: float
    baseline_growth: float  # both-arms execution cost, relative
    accuracy_after: float


def compare_ifconvert(result: WorkloadResult,
                      session: ProfilingSession) -> IfConvertComparison:
    module = result.expanded
    converted, stats = if_convert_module(module, result.edge_profile)
    actual_after, profile_after, rv = session.trace(converted)
    assert rv == result.return_value, \
        "if-conversion changed behaviour"
    [tech] = session.plan_and_score([ScoreRequest(
        "ppp", converted, profile_after)])
    assert tech.run is not None
    before_cost = result.techniques["ppp"].run.run.costs.base
    after_cost = tech.run.run.costs.base
    return IfConvertComparison(
        benchmark=result.workload.name,
        diamonds_converted=stats.diamonds_converted,
        distinct_before=result.actual.distinct_paths(),
        distinct_after=actual_after.distinct_paths(),
        ppp_overhead_before=result.techniques["ppp"].overhead,
        ppp_overhead_after=tech.overhead,
        baseline_growth=(after_cost / before_cost - 1.0
                         if before_cost else 0.0),
        accuracy_after=tech.accuracy,
    )


def ifconvert_table(results: dict[str, WorkloadResult],
                    session: ProfilingSession) -> str:
    rows = []
    for name, result in results.items():
        cmp = compare_ifconvert(result, session=session)
        rows.append([
            cmp.benchmark, cmp.diamonds_converted,
            cmp.distinct_before, cmp.distinct_after,
            f"{cmp.ppp_overhead_before * 100:.1f}%",
            f"{cmp.ppp_overhead_after * 100:.1f}%",
            f"{cmp.baseline_growth * 100:+.0f}%",
            f"{cmp.accuracy_after * 100:.0f}%",
        ])
    return render_table(
        ["Benchmark", "Converted", "Paths", "Paths'",
         "PPP ovh", "PPP ovh'", "Base work", "Acc'"], rows,
        title=("If-conversion x PPP: predicating mispredictable diamonds "
               "shrinks the path population."))
