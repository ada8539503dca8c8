"""Figure 13: the leave-one-out study of PPP's techniques (Section 8.3).

For the benchmarks where PPP improves on TPP by more than 5%, each of
PPP's techniques is disabled in turn and the resulting overhead is
reported normalised to TPP's (values below 1.0 beat TPP).  SAC covers
both the global edge criterion and self-adjustment, as in the paper.

Section 8.3 also sketches a *one-at-a-time* methodology (TPP plus a single
technique); :func:`one_at_a_time` reproduces that for LC and SPN, the two
techniques the leave-one-out view undervalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..core import ppp_config_only, ppp_config_without
from ..engine import ProfilingSession, ScoreRequest, WorkloadResult
from .report import render_table

TECHNIQUE_LABELS = ("SAC", "FP", "Push", "SPN", "LC")
IMPROVEMENT_GATE = 0.05  # Section 8.3: benchmarks where PPP wins by > 5%


@dataclass
class AblationRow:
    benchmark: str
    tpp_overhead: float
    ppp_overhead: float
    # overheads with one technique removed, keyed by technique label
    without: dict[str, float]


def _normalise(overhead: float, tpp_overhead: float) -> float:
    """Overhead relative to TPP.  When TPP itself has ~zero overhead the
    ratio is meaningless; report 1.0 (parity)."""
    if tpp_overhead <= 1e-9:
        return 1.0
    return overhead / tpp_overhead


def select_benchmarks(results: dict[str, WorkloadResult],
                      gate: float = IMPROVEMENT_GATE) -> list[str]:
    """Benchmarks where PPP improves on TPP by more than ``gate``."""
    out = []
    for name, r in results.items():
        tpp = r.techniques["tpp"].overhead
        ppp = r.techniques["ppp"].overhead
        if tpp > 0 and (tpp - ppp) / tpp > gate:
            out.append(name)
    return out


def leave_one_out_requests(result: WorkloadResult) -> list[ScoreRequest]:
    """One workload's Figure 13 plans: PPP with each technique disabled.

    The variant configs key separate cache entries, while ground truth
    and the edge profile come from the shared suite artifacts.
    """
    return [ScoreRequest("ppp", result.expanded, result.edge_profile,
                         result.actual, config=ppp_config_without(technique),
                         label=f"ppp-{technique}",
                         expected_return=result.return_value)
            for technique in TECHNIQUE_LABELS]


def leave_one_out(results: dict[str, WorkloadResult],
                  benchmarks: list[str] | None = None,
                  *, session: ProfilingSession) -> list[AblationRow]:
    """Re-plan and re-run PPP with each technique disabled."""
    chosen = benchmarks if benchmarks is not None \
        else select_benchmarks(results)
    techs = iter(session.plan_and_score([
        request for name in chosen
        for request in leave_one_out_requests(results[name])]))
    rows: list[AblationRow] = []
    for name in chosen:
        r = results[name]
        rows.append(AblationRow(
            benchmark=name,
            tpp_overhead=r.techniques["tpp"].overhead,
            ppp_overhead=r.techniques["ppp"].overhead,
            without={technique: next(techs).overhead
                     for technique in TECHNIQUE_LABELS},
        ))
    return rows


def figure13(results: dict[str, WorkloadResult], *,
             session: ProfilingSession) -> str:
    rows = leave_one_out(results, session=session)
    headers = (["Benchmark", "PPP"]
               + [f"no {t}" for t in TECHNIQUE_LABELS])
    cells = []
    for row in rows:
        line: list[object] = [
            row.benchmark,
            f"{_normalise(row.ppp_overhead, row.tpp_overhead):.2f}"]
        for t in TECHNIQUE_LABELS:
            line.append(f"{_normalise(row.without[t], row.tpp_overhead):.2f}")
        cells.append(line)
    if not cells:
        cells.append(["(no benchmark improves on TPP by > 5%)"] +
                     [""] * (len(headers) - 1))
    return render_table(
        headers, cells,
        title=("Figure 13. PPP leave-one-out overhead normalised to TPP "
               "(lower is better; 1.00 = TPP)."))


ONE_AT_A_TIME = ("LC", "SPN")
ONE_AT_A_TIME_LABELS = {"none": "ppp-none",
                        **{t: f"ppp+{t}" for t in ONE_AT_A_TIME}}


def one_at_a_time_requests(result: WorkloadResult) -> list[ScoreRequest]:
    """One workload's one-at-a-time plans: the none-enabled config, then
    that config plus each of LC and SPN."""
    return [ScoreRequest("ppp", result.expanded, result.edge_profile,
                         result.actual, config=ppp_config_only(technique),
                         label=label, expected_return=result.return_value)
            for technique, label in ONE_AT_A_TIME_LABELS.items()]


def one_at_a_time(results: dict[str, WorkloadResult],
                  benchmarks: list[str] | None = None,
                  *, session: ProfilingSession) -> str:
    """Section 8.3's alternative view: TPP-equivalent PPP plus exactly one
    of LC and SPN, reported as overhead relative to the none-enabled
    config."""
    chosen = benchmarks if benchmarks is not None \
        else select_benchmarks(results)
    headers = ["Benchmark", "none"] + list(ONE_AT_A_TIME)
    techs = iter(session.plan_and_score([
        request for name in chosen
        for request in one_at_a_time_requests(results[name])]))
    cells = []
    for name in chosen:
        cells.append([name] + [f"{next(techs).overhead * 100:.1f}%"
                               for _ in ONE_AT_A_TIME_LABELS])
    if not cells:
        cells.append(["(no benchmark improves on TPP by > 5%)"] +
                     [""] * (len(headers) - 1))
    return render_table(headers, cells,
                        title=("One-at-a-time overheads (Section 8.3): "
                               "baseline config plus one technique."))
