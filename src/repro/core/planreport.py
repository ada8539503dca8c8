"""Human-readable instrumentation plan reports.

Renders a :class:`~repro.core.pipeline.ModulePlan` the way a compiler
writer wants to read it: per routine, the decision (instrumented or why
not), the counter geometry, and each instrumented edge with its ops --
the textual equivalent of the paper's Figure 1(g)/3(e) diagrams.
"""

from __future__ import annotations

from .ops import describe
from .pipeline import FunctionPlan, ModulePlan


def format_function_plan(plan: FunctionPlan) -> str:
    func = plan.func
    lines = [f"routine {func.name}:"]
    if not plan.instrumented:
        lines.append(f"  not instrumented ({plan.reason})")
        if plan.coverage_estimate is not None:
            lines.append(f"  edge-profile coverage estimate: "
                         f"{plan.coverage_estimate * 100:.0f}%")
        return "\n".join(lines)
    storage = "hash table" if plan.use_hash else "array"
    lines.append(f"  {plan.num_paths} possible paths -> {storage}")
    if plan.cold_cfg:
        lines.append(f"  {len(plan.cold_cfg)} cold edges removed "
                     f"(poisoning: {plan.poison_style})")
    if plan.sac_iterations:
        lines.append(f"  self-adjusting criterion ran "
                     f"{plan.sac_iterations} iteration(s)")
    if plan.placement is not None:
        lines.append(f"  {plan.placement.static_ops} instrumentation ops "
                     f"on {len(plan.placement.edge_ops)} edges; counter "
                     f"span {plan.placement.counter_span}")
        by_pair = {}
        for edge in func.cfg.edges():
            ops = plan.placement.ops_for(edge)
            if ops:
                by_pair[(edge.src, edge.dst)] = describe(ops)
        width = max((len(f"{s} -> {d}") for s, d in by_pair), default=0)
        for (src, dst), text in sorted(by_pair.items()):
            label = f"{src} -> {dst}"
            lines.append(f"    {label:<{width}}  {text}")
    return "\n".join(lines)


def format_plan(plan: ModulePlan) -> str:
    """The whole module plan as text."""
    header = (f"{plan.technique.upper()} plan for module "
              f"{plan.module.name!r}: "
              f"{len(plan.instrumented_functions())} of "
              f"{len(plan.functions)} routines instrumented, "
              f"{plan.static_ops()} static ops")
    parts = [header]
    for fplan in plan.functions.values():
        parts.append(format_function_plan(fplan))
    return "\n\n".join(parts)
