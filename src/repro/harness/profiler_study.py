"""The profiler-plugin study: what the extra registry profilers see.

Runs the ``values`` and ``tripcounts`` plugins over each expanded suite
module and summarises the questions a dynamic optimizer would ask them:
how many register write sites are *invariant* (one value dominates, so
the site is a specialisation candidate), and how loop trip counts
distribute (short episodes favour unrolling by the observed count).

The study reuses profiles already carried on a
:class:`~repro.engine.results.WorkloadResult` when the session ran with
a ``--profilers`` selection; otherwise it reads them from the session's
profile stage, which the harness asks each workload's build to fill
from the suite's own execution of the expanded module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, cast

from ..engine import ProfilingSession, WorkloadResult
from ..profilers.tripcount import Histogram, TripProfile, mean_trips
from ..profilers.value_profile import ValueProfile, top_values
from .report import render_table

#: A site is invariant when its top value carries at least this share.
INVARIANT_SHARE = 0.90

STUDY_PROFILERS = ("values", "tripcounts")


@dataclass
class ProfilerStudyRow:
    benchmark: str
    sites: int              # observed register write sites
    invariant_sites: int    # sites dominated by a single value
    lost_records: int       # records beyond the per-site value cap
    loops: int              # loops with at least one completed episode
    episodes: int           # completed loop episodes
    mean_trip_count: float  # mean trips per completed episode

    @property
    def invariant_fraction(self) -> float:
        return self.invariant_sites / self.sites if self.sites else 0.0


def _site_stats(values: ValueProfile) -> tuple[int, int, int]:
    sites = invariant = lost = 0
    for func_sites in values.values():
        for site in func_sites.values():
            sites += 1
            lost += cast(int, site["lost"])
            counts = cast(Dict[object, int], site["values"])
            total = sum(counts.values()) + cast(int, site["lost"])
            ranked = top_values(site, 1)
            if ranked and total and ranked[0][1] / total >= INVARIANT_SHARE:
                invariant += 1
    return sites, invariant, lost


def _trip_stats(trips: TripProfile) -> tuple[int, int, float]:
    loops = episodes = 0
    weighted = 0.0
    for func_loops in trips.values():
        for hist in func_loops.values():
            count = sum(cast(Histogram, hist).values())
            if not count:
                continue
            loops += 1
            episodes += count
            weighted += mean_trips(cast(Histogram, hist)) * count
    return loops, episodes, (weighted / episodes if episodes else 0.0)


def study_profilers(session: ProfilingSession) -> tuple[str, ...]:
    """The plugins :func:`profiler_study` asks the session's profile
    stage for: none when the session's own ``--profilers`` selection
    already carries them on every result."""
    if all(name in session.profilers for name in STUDY_PROFILERS):
        return ()
    return STUDY_PROFILERS


def profiler_study(result: WorkloadResult,
                   session: ProfilingSession) -> ProfilerStudyRow:
    """Summarise one workload's value and trip-count profiles."""
    profiles = result.profiles
    if not all(name in profiles for name in STUDY_PROFILERS):
        profiles = session.profile_module(result.expanded, STUDY_PROFILERS)
    sites, invariant, lost = _site_stats(
        cast(ValueProfile, profiles["values"]))
    loops, episodes, mean_count = _trip_stats(
        cast(TripProfile, profiles["tripcounts"]))
    return ProfilerStudyRow(
        benchmark=result.workload.name,
        sites=sites, invariant_sites=invariant, lost_records=lost,
        loops=loops, episodes=episodes, mean_trip_count=mean_count)


def profiler_table(results: Dict[str, WorkloadResult],
                   session: ProfilingSession) -> str:
    rows: List[List[str]] = []
    for result in results.values():
        r = profiler_study(result, session=session)
        rows.append([r.benchmark, str(r.sites),
                     f"{r.invariant_fraction * 100:.0f}%",
                     str(r.lost_records), str(r.loops), str(r.episodes),
                     f"{r.mean_trip_count:.1f}"])
    return render_table(
        ["Benchmark", "Sites", "Invariant", "Lost", "Loops", "Episodes",
         "Mean trips"], rows,
        title=("Profiler plugins: value-invariance and loop trip counts "
               "over the expanded suite."))
