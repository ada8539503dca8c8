"""NET vs PPP: quantifying the paper's Dynamo critique (Section 2).

The paper argues PPP improves on Dynamo's NET because a path profile can
"distinguish between the cases of a few dominant hot paths and many
'warm' paths through wider coverage".  This study measures exactly that:
for each workload, how much of the actual hot-path flow do NET's
one-trace-per-head selections capture, versus PPP's estimated profile?
On skewed benchmarks (mcf-like) NET does fine; on warm-path benchmarks
(vpr/crafty-like) it leaves most of the flow on the table.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import build_estimated_profile
from ..core.net import NetSelector
from ..engine import ProfilingSession, WorkloadResult
from ..profiles.metrics import actual_hot_paths
from .report import render_table


@dataclass
class NetComparison:
    benchmark: str
    traces_selected: int
    actual_hot_paths: int
    net_hot_flow_captured: float   # fraction of hot flow NET's traces cover
    ppp_hot_flow_captured: float   # same for PPP's estimated profile


def _captured(hot: dict, selected: set) -> float:
    total = sum(hot.values())
    if total <= 0:
        return 1.0
    return sum(flow for key, flow in hot.items() if key in selected) / total


def compare_net(result: WorkloadResult, *,
                session: ProfilingSession) -> NetComparison:
    """One benchmark's NET-vs-PPP hot-flow capture numbers, NET fed the
    expanded module's cached path stream."""
    stream = session.path_stream(result.expanded)
    net = NetSelector().replay(stream)
    assert net.return_value == result.return_value, \
        "NET selection must not perturb execution"
    hot = actual_hot_paths(result.actual)
    net_selected = {(t.function, t.blocks) for t in net.traces}
    ppp_run = result.techniques["ppp"].run
    estimated = build_estimated_profile(ppp_run, result.edge_profile)
    # PPP "selects" as many paths as NET did, hottest-estimated first --
    # same budget, so the comparison isolates selection quality ... but
    # never fewer than |H_actual| (PPP's consumer would take them all).
    budget = max(len(net_selected), len(hot))
    ranked = sorted(estimated.flows.items(), key=lambda kv: (-kv[1], kv[0]))
    ppp_selected = {key for key, _f in ranked[:budget]}
    return NetComparison(
        benchmark=result.workload.name,
        traces_selected=len(net_selected),
        actual_hot_paths=len(hot),
        net_hot_flow_captured=_captured(hot, net_selected),
        ppp_hot_flow_captured=_captured(hot, ppp_selected),
    )


def net_table(results: dict[str, WorkloadResult], *,
              session: ProfilingSession) -> str:
    rows = []
    for name, result in results.items():
        cmp = compare_net(result, session=session)
        rows.append([cmp.benchmark, cmp.traces_selected,
                     cmp.actual_hot_paths,
                     f"{cmp.net_hot_flow_captured * 100:.0f}%",
                     f"{cmp.ppp_hot_flow_captured * 100:.0f}%"])
    return render_table(
        ["Benchmark", "NET traces", "Hot paths", "NET capture",
         "PPP capture"], rows,
        title=("NET (Dynamo) vs PPP: fraction of actual hot-path flow "
               "captured."))
