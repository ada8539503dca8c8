"""Robustness of PPP planning to sampled (noisy) edge profiles.

Dynamic optimizers collect edge profiles by sampling; the profile PPP
plans from is therefore thinned and noisy.  This study plans PPP from
profiles sampled at decreasing rates and scores the result against the
unsampled ground truth.  Because all of PPP's criteria are *relative*
thresholds (fractions of block frequency, total flow, trip counts), the
plans should degrade gracefully -- which is what makes the technique
deployable in the setting the paper targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..engine import ProfilingSession, ScoreRequest, WorkloadResult
from ..profiles.sampling import sample_edge_profile
from .report import render_table

DEFAULT_RATES = (1.0, 0.1, 0.01)


@dataclass
class SamplingRow:
    benchmark: str
    rate: float
    accuracy: float
    coverage: float
    overhead: float


def sampling_requests(result: WorkloadResult,
                      rates: tuple[float, ...] = DEFAULT_RATES
                      ) -> list[ScoreRequest]:
    """One workload's sampled plans: PPP planned from the edge profile
    sampled at each rate.  Scoring always uses the *true* edge profile
    and ground truth; only the planning input was degraded."""
    return [ScoreRequest("ppp", result.expanded,
                         (result.edge_profile if rate >= 1.0
                          else sample_edge_profile(result.edge_profile, rate,
                                                   seed=1)),
                         score_profile=result.edge_profile,
                         label=f"ppp-sampled-1/{int(1 / rate):d}")
            for rate in rates]


def sampling_study(result: WorkloadResult,
                   rates: tuple[float, ...] = DEFAULT_RATES,
                   *, session: ProfilingSession) -> list[SamplingRow]:
    techs = session.plan_and_score(sampling_requests(result, rates))
    return [SamplingRow(benchmark=result.workload.name, rate=rate,
                        accuracy=tech.accuracy, coverage=tech.coverage,
                        overhead=tech.overhead)
            for rate, tech in zip(rates, techs)]


def sampling_table(results: dict[str, WorkloadResult], *,
                   session: ProfilingSession) -> str:
    cells = []
    for name, result in results.items():
        for row in sampling_study(result, session=session):
            cells.append([row.benchmark, f"1/{int(1 / row.rate):d}",
                          f"{row.accuracy * 100:.0f}%",
                          f"{row.coverage * 100:.0f}%",
                          f"{row.overhead * 100:.1f}%"])
    return render_table(
        ["Benchmark", "Sample rate", "Accuracy", "Coverage", "Overhead"],
        cells,
        title=("PPP planned from sampled edge profiles "
               "(scored against unsampled ground truth)."))
