"""Constructing and scoring estimated path profiles (Sections 5 and 6).

An instrumented run yields measured counters for ``P_instr``; the
remaining paths ``P_uninstr`` are estimated with the definite-flow profile
computed from the edge profile.  When a technique adds *no* instrumentation
anywhere (the paper's swim/mgrid case), the estimated profile falls back to
potential flow so that it matches the edge-profiling estimate
(Section 6.1).

This module also evaluates the run: accuracy (Wall's weight matching),
coverage with the overcount penalty, and the fraction of dynamic paths
instrumented (Figures 9, 10, 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cfg.graph import Edge
from ..profiles.definite import definite_flow_sets
from ..profiles.edge_profile import EdgeProfile
from ..profiles.flow import path_branches
from ..profiles.metrics import (EstimatedFlows, FunctionCoverage,
                                accuracy, coverage)
from ..profiles.path_profile import PathKey, PathProfile
from ..profiles.potential import potential_flow_sets
from ..profiles.reconstruct import dag_path_to_blocks, reconstruct_hot_paths
from .pipeline import FunctionPlan, ModulePlan, ProfileRun

# Flows are branch flows (Section 5.1).  Reconstruction extends the
# estimate well below the 0.125% hot threshold.
RECONSTRUCT_FRACTION = 0.0002
MAX_PATHS_PER_FUNCTION = 4000


def path_dag_edges(plan: FunctionPlan,
                   blocks: PathKey) -> Optional[list[Edge]]:
    """Map a traced block sequence onto the plan's DAG edge sequence.

    Returns None when the path cannot be expressed in the DAG (should not
    happen for traces of the same CFG).
    """
    dag = plan.dag
    if dag is None:
        return None
    edges: list[Edge] = []
    cfg = plan.func.cfg
    if blocks[0] != cfg.entry:
        dummy = dag.entry_dummies.get(blocks[0])
        if dummy is None:
            return None
        edges.append(dummy)
    for src, dst in zip(blocks, blocks[1:]):
        cfg_edges = cfg.edges_between(src, dst)
        if not cfg_edges:
            return None
        dag_edge = dag.dag_edge_for(cfg_edges[0])
        if dag_edge is None:
            return None
        edges.append(dag_edge)
    if blocks[-1] != cfg.exit:
        dummy = dag.exit_dummies.get(blocks[-1])
        if dummy is None:
            return None
        edges.append(dummy)
    return edges


def path_is_instrumented(plan: FunctionPlan, blocks: PathKey) -> bool:
    """Whether the instrumentation can measure this path (it lies entirely
    in the pruned DAG of an instrumented routine)."""
    if not plan.instrumented or plan.numbering is None:
        return False
    edges = path_dag_edges(plan, blocks)
    if edges is None:
        return False
    return all(e.uid in plan.live for e in edges)


def measured_paths(run: ProfileRun, name: str) -> dict[PathKey, float]:
    """Decode one function's hot counters into path block sequences."""
    plan = run.plan.functions[name]
    if plan.instrumented and plan.func.cfg.num_edges == 0:
        # A single-block routine has no edge to instrument; real PP's
        # instrumentation degenerates to counting invocations (count[0]++
        # at entry), which the machine always records.
        entry = plan.func.cfg.entry
        assert entry is not None
        invocations = (run.run.invocations or {}).get(name, 0)
        return {(entry,): invocations} if invocations else {}
    store = run.stores.get(name)
    if store is None or plan.numbering is None:
        return {}
    out: dict[PathKey, float] = {}
    for index, count in store.hot_items():
        edge_path = plan.numbering.decode(index)
        if edge_path is None:
            continue
        blocks = dag_path_to_blocks(edge_path)
        if blocks is not None:
            out[blocks] = out.get(blocks, 0) + count
    return out


@dataclass
class EstimatedProfile:
    """An estimated path profile plus the bookkeeping evaluation needs."""

    flows: EstimatedFlows                     # (func, path) -> estimated flow
    measured: dict[str, dict[PathKey, float]]  # per function: measured paths
    source: str                                # "instrumentation"/"potential"


def _reconstruction_cutoff(edge_profile: EdgeProfile) -> float:
    program_flow = sum(fp.branch_flow()
                       for fp in edge_profile.functions.values())
    return RECONSTRUCT_FRACTION * program_flow


def build_estimated_profile(run: ProfileRun, edge_profile: EdgeProfile
                            ) -> EstimatedProfile:
    """Measured flow for P_instr plus definite flow for P_uninstr.

    Falls back to potential flow when the plan instrumented nothing
    (Section 6.1's exception).
    """
    plan = run.plan
    if not plan.any_instrumented():
        flows = edge_profile_estimate(plan.module, edge_profile)
        return EstimatedProfile(flows, {}, "potential")
    cutoff = _reconstruction_cutoff(edge_profile)
    flows: EstimatedFlows = {}
    measured: dict[str, dict[PathKey, float]] = {}
    for name, fplan in plan.functions.items():
        profile = edge_profile[name]
        if not profile.executed():
            continue
        seen = measured_paths(run, name)
        measured[name] = seen
        for blocks, count in seen.items():
            flows[(name, blocks)] = count * path_branches(fplan.func, blocks)
        # Definite flow fills in everything the instrumentation missed:
        # skipped routines, obvious paths and loops, and cold paths.
        sets = definite_flow_sets(fplan.func, profile)
        for rec in reconstruct_hot_paths(sets, cutoff,
                                         MAX_PATHS_PER_FUNCTION):
            key = (name, rec.blocks)
            if key not in flows:
                flows[key] = rec.flow()
    return EstimatedProfile(flows, measured, "instrumentation")


def edge_profile_estimate(module, edge_profile: EdgeProfile
                          ) -> EstimatedFlows:
    """The pure edge-profiling estimate: potential-flow reconstruction
    (Ball et al. found it predicts hot paths best; Section 6.1)."""
    cutoff = _reconstruction_cutoff(edge_profile)
    flows: EstimatedFlows = {}
    for name, func in module.functions.items():
        profile = edge_profile[name]
        if not profile.executed():
            continue
        sets = potential_flow_sets(func, profile)
        for rec in reconstruct_hot_paths(sets, cutoff,
                                         MAX_PATHS_PER_FUNCTION):
            key = (name, rec.blocks)
            flow = rec.flow()
            if flow > flows.get(key, 0.0):
                flows[key] = flow
    return flows


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------

def evaluate_accuracy(actual: PathProfile, estimated: EstimatedFlows
                      ) -> float:
    """Figure 9's quantity for one technique on one program."""
    return accuracy(actual, estimated)


def evaluate_coverage(run: ProfileRun, actual: PathProfile,
                      edge_profile: EdgeProfile) -> float:
    """Figure 10's quantity: instrumented + definite - overcount, over F(P)."""
    plan = run.plan
    cutoff = _reconstruction_cutoff(edge_profile)
    parts: list[FunctionCoverage] = []
    for name, fplan in plan.functions.items():
        fp_actual = actual[name]
        profile = edge_profile[name]
        part = FunctionCoverage()
        if fplan.instrumented:
            for blocks, count in fp_actual.counts.items():
                if path_is_instrumented(fplan, blocks):
                    part.actual_instr_flow += fp_actual.flow(blocks)
            for blocks, count in measured_paths(run, name).items():
                part.measured_flow += count * fp_actual.branches(blocks)
            # Definite flow of what the instrumentation cannot see.
            sets = definite_flow_sets(fplan.func, profile)
            for rec in reconstruct_hot_paths(sets, cutoff,
                                             MAX_PATHS_PER_FUNCTION):
                if not path_is_instrumented(fplan, rec.blocks):
                    part.definite_uninstr_flow += rec.flow()
        elif profile.executed():
            sets = definite_flow_sets(fplan.func, profile)
            part.definite_uninstr_flow = sets.total_flow()
        parts.append(part)
    return coverage(actual.total_flow(), parts)


def evaluate_edge_coverage(actual: PathProfile,
                           edge_profile: EdgeProfile) -> float:
    """Edge-profile coverage DF(P)/F(P) (the Figure 10 baseline)."""
    total_df = 0.0
    for name, func in actual.module.functions.items():
        profile = edge_profile[name]
        if not profile.executed():
            continue
        total_df += definite_flow_sets(func, profile).total_flow()
    total = actual.total_flow()
    if total <= 0:
        return 1.0
    return max(0.0, min(1.0, total_df / total))


@dataclass
class InstrumentedFraction:
    """Figure 11's quantities for one technique on one program."""

    instrumented: float  # fraction of dynamic paths instrumentation measures
    hashed: float        # the portion of those counted through a hash table


def instrumented_fraction(plan: ModulePlan,
                          actual: PathProfile) -> InstrumentedFraction:
    total = actual.dynamic_paths()
    if total <= 0:
        return InstrumentedFraction(0.0, 0.0)
    instr = 0.0
    hashed = 0.0
    for name, fplan in plan.functions.items():
        if not fplan.instrumented:
            continue
        fp = actual[name]
        for blocks, count in fp.counts.items():
            if path_is_instrumented(fplan, blocks):
                instr += count
                if fplan.use_hash:
                    hashed += count
    return InstrumentedFraction(instr / total, hashed / total)
