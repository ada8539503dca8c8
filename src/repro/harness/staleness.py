"""Profile staleness: how PPP degrades when its edge profile is old.

The paper's methodology uses *self advice* -- the edge profile comes from
the same run being profiled -- and argues that is realistic for a dynamic
optimizer (Section 7.2).  This study quantifies the other direction: plan
PPP from an edge profile collected on a *smaller* run of the same program
(a stale profile, as an offline-advice system would have), then profile
the full-size run with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..engine import ProfilingSession, ScoreRequest
from .report import render_table
from ..workloads import Workload


@dataclass
class StalenessRow:
    benchmark: str
    fresh_accuracy: float
    stale_accuracy: float
    fresh_coverage: float
    stale_coverage: float
    fresh_overhead: float
    stale_overhead: float


def staleness_study(workload: Workload, *,
                    session: ProfilingSession) -> StalenessRow:
    """Fresh (self) advice vs stale (scale-1 run) advice on the scale-2
    run of one workload.

    Works on the unexpanded modules: inlining/unrolling decisions depend
    on the profile, so expanded CFGs would differ between the two scales
    and the profile could not transfer.  (Scale only changes loop-bound
    constants, so the unexpanded CFGs are identical.)
    """
    small_module = session.compile(workload, 1)
    big_module = session.compile(workload, 2)
    _sa, small_profile, _sr = session.trace(small_module)
    _actual, fresh_profile, _rv = session.trace(big_module)

    # Transfer the small run's edge profile onto the big module.
    stale_profile = session.remap_profile(small_profile, big_module).profile

    # Plan from the (possibly stale) advice; score everything against
    # the big run's own ground truth and fresh profile.
    fresh, stale = session.plan_and_score([
        ScoreRequest("ppp", big_module, profile,
                     score_profile=fresh_profile,
                     label=f"ppp-{label}-advice")
        for label, profile in (("fresh", fresh_profile),
                               ("stale", stale_profile))])
    return StalenessRow(
        benchmark=workload.name,
        fresh_accuracy=fresh.accuracy, stale_accuracy=stale.accuracy,
        fresh_coverage=fresh.coverage, stale_coverage=stale.coverage,
        fresh_overhead=fresh.overhead, stale_overhead=stale.overhead,
    )


def staleness_table(workloads: list[Workload],
                    session: ProfilingSession) -> str:
    rows = []
    for workload in workloads:
        r = staleness_study(workload, session=session)
        rows.append([r.benchmark,
                     f"{r.fresh_accuracy * 100:.0f}%",
                     f"{r.stale_accuracy * 100:.0f}%",
                     f"{r.fresh_coverage * 100:.0f}%",
                     f"{r.stale_coverage * 100:.0f}%",
                     f"{r.fresh_overhead * 100:.1f}%",
                     f"{r.stale_overhead * 100:.1f}%"])
    return render_table(
        ["Benchmark", "Acc fresh", "Acc stale", "Cov fresh", "Cov stale",
         "Ovh fresh", "Ovh stale"], rows,
        title=("Staleness: PPP planned from self advice vs a smaller "
               "run's edge profile."))
