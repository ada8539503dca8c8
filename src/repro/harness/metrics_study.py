"""Unit flow vs branch flow: why the paper introduced the new metric.

Section 5.1 argues unit flow "produces non-intuitive flows" -- it changes
under inlining and under-weights long paths -- and proposes branch flow.
This study quantifies the difference on real workloads:

* the total-flow drift under inlining/unrolling (unit flow shrinks as
  paths merge; branch flow is conserved up to transformation effects);
* how differently the two metrics rank hot paths (Jaccard overlap of the
  hot sets), i.e. how much the evaluation metric itself changes which
  paths a consumer would optimize.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import WorkloadResult
from ..profiles.metrics import HOT_THRESHOLD
from .report import render_table


@dataclass
class MetricComparison:
    benchmark: str
    unit_flow_original: float
    unit_flow_expanded: float
    branch_flow_original: float
    branch_flow_expanded: float
    hot_set_overlap: float  # Jaccard of unit-hot vs branch-hot path sets

    @property
    def unit_drift(self) -> float:
        """Relative change of unit flow under expansion."""
        if self.unit_flow_original == 0:
            return 0.0
        return self.unit_flow_expanded / self.unit_flow_original - 1.0


def compare_metrics(result: WorkloadResult) -> MetricComparison:
    orig, expanded = result.actual_original, result.actual
    unit_hot = {(n, p) for n, p, _f
                in expanded.hot_paths(HOT_THRESHOLD, "unit")}
    branch_hot = {(n, p) for n, p, _f
                  in expanded.hot_paths(HOT_THRESHOLD, "branch")}
    union = unit_hot | branch_hot
    overlap = (len(unit_hot & branch_hot) / len(union)) if union else 1.0
    return MetricComparison(
        benchmark=result.workload.name,
        unit_flow_original=orig.total_flow("unit"),
        unit_flow_expanded=expanded.total_flow("unit"),
        branch_flow_original=orig.total_flow("branch"),
        branch_flow_expanded=expanded.total_flow("branch"),
        hot_set_overlap=overlap,
    )


def metrics_table(results: dict[str, WorkloadResult]) -> str:
    rows = []
    for name, result in results.items():
        cmp = compare_metrics(result)
        rows.append([
            cmp.benchmark,
            f"{cmp.unit_flow_original:.0f}",
            f"{cmp.unit_flow_expanded:.0f}",
            f"{cmp.unit_drift * 100:+.0f}%",
            f"{cmp.branch_flow_original:.0f}",
            f"{cmp.branch_flow_expanded:.0f}",
            f"{cmp.hot_set_overlap * 100:.0f}%",
        ])
    return render_table(
        ["Benchmark", "Unit orig", "Unit exp", "drift",
         "Branch orig", "Branch exp", "hot overlap"], rows,
        title=("Unit vs branch flow: unit flow drifts under expansion "
               "and ranks hot paths differently."))
