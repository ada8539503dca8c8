"""Figures 9-12 of the paper, as text series.

Figure 9: accuracy (fraction of hot path flow predicted) of edge
profiling, TPP, and PPP.
Figure 10: coverage (fraction of the actual path profile definitely
measured) of edge profiling, TPP, and PPP.
Figure 11: fraction of dynamic paths instrumented by PP, TPP, and PPP,
with the hashed portion shown separately (the paper's stripes).
Figure 12: runtime overhead of PP, TPP, and PPP (deterministic cost-model
overhead in this reproduction).
"""

from __future__ import annotations

from ..engine import WorkloadResult
from ..workloads import FP, INT
from .report import mean, render_table


def _ordered(results: dict[str, WorkloadResult]) -> list[WorkloadResult]:
    ints = [r for r in results.values() if r.category == INT]
    fps = [r for r in results.values() if r.category == FP]
    return ints + fps


def figure9(results: dict[str, WorkloadResult]) -> str:
    headers = ["Benchmark", "Edge", "TPP", "PPP"]
    rows = []
    series = {"edge": [], "tpp": [], "ppp": []}
    for r in _ordered(results):
        tpp = r.techniques["tpp"].accuracy
        ppp = r.techniques["ppp"].accuracy
        rows.append([r.workload.name, f"{r.edge_accuracy * 100:.0f}%",
                     f"{tpp * 100:.0f}%", f"{ppp * 100:.0f}%"])
        series["edge"].append(r.edge_accuracy)
        series["tpp"].append(tpp)
        series["ppp"].append(ppp)
    rows.append(["Average", f"{mean(series['edge']) * 100:.0f}%",
                 f"{mean(series['tpp']) * 100:.0f}%",
                 f"{mean(series['ppp']) * 100:.0f}%"])
    return render_table(headers, rows,
                        title=("Figure 9. Accuracy: fraction of hot path "
                               "flow predicted."))


def figure10(results: dict[str, WorkloadResult]) -> str:
    headers = ["Benchmark", "Edge", "TPP", "PPP"]
    rows = []
    series = {"edge": [], "tpp": [], "ppp": []}
    for r in _ordered(results):
        tpp = r.techniques["tpp"].coverage
        ppp = r.techniques["ppp"].coverage
        rows.append([r.workload.name, f"{r.edge_coverage * 100:.0f}%",
                     f"{tpp * 100:.0f}%", f"{ppp * 100:.0f}%"])
        series["edge"].append(r.edge_coverage)
        series["tpp"].append(tpp)
        series["ppp"].append(ppp)
    rows.append(["Average", f"{mean(series['edge']) * 100:.0f}%",
                 f"{mean(series['tpp']) * 100:.0f}%",
                 f"{mean(series['ppp']) * 100:.0f}%"])
    return render_table(headers, rows,
                        title=("Figure 10. Coverage: fraction of the "
                               "actual path profile measured."))


def figure11(results: dict[str, WorkloadResult]) -> str:
    headers = ["Benchmark", "PP", "PP hash", "TPP", "TPP hash",
               "PPP", "PPP hash"]
    rows = []
    for r in _ordered(results):
        cells: list[object] = [r.workload.name]
        for t in ("pp", "tpp", "ppp"):
            tech = r.techniques[t]
            cells.append(f"{tech.instrumented_fraction * 100:.0f}%")
            cells.append(f"{tech.hashed_fraction * 100:.0f}%")
        rows.append(cells)
    avg: list[object] = ["Average"]
    for t in ("pp", "tpp", "ppp"):
        avg.append(f"{mean([r.techniques[t].instrumented_fraction for r in results.values()]) * 100:.0f}%")
        avg.append(f"{mean([r.techniques[t].hashed_fraction for r in results.values()]) * 100:.0f}%")
    rows.append(avg)
    return render_table(headers, rows,
                        title=("Figure 11. Fraction of dynamic paths "
                               "instrumented (hash = hashed portion)."))


def figure12(results: dict[str, WorkloadResult]) -> str:
    headers = ["Benchmark", "PP", "TPP", "PPP"]
    rows = []
    for r in _ordered(results):
        rows.append([r.workload.name]
                    + [f"{r.techniques[t].overhead * 100:.1f}%"
                       for t in ("pp", "tpp", "ppp")])
    for label, cat in (("INT Avg", INT), ("FP Avg", FP)):
        sub = [r for r in results.values() if r.category == cat]
        if sub:
            rows.append([label]
                        + [f"{mean([r.techniques[t].overhead for r in sub]) * 100:.1f}%"
                           for t in ("pp", "tpp", "ppp")])
    rows.append(["Average"]
                + [f"{mean([r.techniques[t].overhead for r in results.values()]) * 100:.1f}%"
                   for t in ("pp", "tpp", "ppp")])
    return render_table(headers, rows,
                        title=("Figure 12. Path profiling overhead "
                               "(cost-model instrumentation cost / "
                               "baseline cost)."))
