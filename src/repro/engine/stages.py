"""The decomposed compile → optimize → profile → plan → execute → score
pipeline.

Each function here is one pure, independently-cacheable stage of the
paper's per-benchmark methodology (compiling, expansion and recording
are single calls the session makes directly: ``Workload.compile``,
:func:`~repro.opt.expand_module`, :func:`~repro.core.record_module`).
The stages take explicit inputs and return plain picklable artifacts;
they never touch the cache themselves --
:class:`~repro.engine.session.ProfilingSession` wraps each stage with
content-addressed memoisation and composes them into the per-benchmark
methodology.
"""

from __future__ import annotations

from typing import Callable

from ..core import (DEFAULT_CONFIG, ModulePlan, ProfileRun, ProfilerConfig,
                    build_estimated_profile, edge_profile_estimate,
                    evaluate_accuracy, evaluate_coverage,
                    evaluate_edge_coverage, instrumented_fraction, plan_pp,
                    plan_ppp, plan_tpp, run_with_plan)
from ..interp.machine import Machine
from ..ir.function import Module
from ..opt import OptimizationResult
from ..profiles import EdgeProfile, PathProfile
from ..profiles.metrics import HOT_THRESHOLD
from ..workloads import Workload
from .results import TechniqueResult, WorkloadResult


# ----------------------------------------------------------------------
# Stage: profile (ground truth)
# ----------------------------------------------------------------------

def ground_truth(module: Module,
                 backend: str | None = None
                 ) -> tuple[PathProfile, EdgeProfile, object]:
    """Trace the module once: path profile, edge profile, return value.
    A :func:`~repro.core.record_module` run without the path listener,
    which costs the tuple backend about 7% and serves no caller here."""
    result = Machine(module, collect_edge_profile=True, trace_paths=True,
                     backend=backend).run()
    assert result.edge_counts is not None and result.path_counts is not None
    return (PathProfile.from_trace(module, result.path_counts),
            EdgeProfile.from_run(module, result.edge_counts,
                                 result.invocations),
            result.return_value)


# ----------------------------------------------------------------------
# Stage: plan
# ----------------------------------------------------------------------

def plan_stage(technique: str, module: Module,
               edge_profile: EdgeProfile | None = None,
               config: ProfilerConfig = DEFAULT_CONFIG) -> ModulePlan:
    """Build a PP/TPP/PPP instrumentation plan for the module."""
    if technique == "pp":
        return plan_pp(module, config)
    if technique == "tpp":
        if edge_profile is None:
            raise ValueError("tpp planning needs an edge profile")
        return plan_tpp(module, edge_profile, config)
    if technique == "ppp":
        if edge_profile is None:
            raise ValueError("ppp planning needs an edge profile")
        return plan_ppp(module, edge_profile, config)
    raise ValueError(f"unknown technique {technique!r}")


# ----------------------------------------------------------------------
# Stage: execute + score
# ----------------------------------------------------------------------

def score_technique(name: str, plan: ModulePlan, actual: PathProfile,
                    edge_profile: EdgeProfile,
                    hot_threshold: float = HOT_THRESHOLD,
                    expected_return: object = None,
                    execute: Callable[[ModulePlan], ProfileRun] = run_with_plan
                    ) -> TechniqueResult:
    """Execute a plan (through ``execute``) and compute every
    per-technique metric.  The session passes its shared execution, so
    labels whose plans coincide score one run.
    """
    run = execute(plan)
    if expected_return is not None \
            and run.run.return_value != expected_return:
        raise AssertionError(
            f"{name} instrumentation changed behaviour: "
            f"{expected_return!r} -> {run.run.return_value!r}")
    estimated = build_estimated_profile(run, edge_profile)
    fraction = instrumented_fraction(plan, actual)
    return TechniqueResult(
        name=name,
        overhead=run.overhead,
        accuracy=evaluate_accuracy(actual, estimated.flows, hot_threshold),
        coverage=evaluate_coverage(run, actual, edge_profile),
        instrumented_fraction=fraction.instrumented,
        hashed_fraction=fraction.hashed,
        static_ops=plan.static_ops(),
        functions_instrumented=len(plan.instrumented_functions()),
        plan=plan,
        run=run,
    )


# ----------------------------------------------------------------------
# Assembly: the full per-benchmark record
# ----------------------------------------------------------------------

def assemble_workload_result(workload: Workload, original: Module,
                             opt: OptimizationResult,
                             actual_original: PathProfile,
                             actual: PathProfile,
                             edge_profile: EdgeProfile,
                             return_value: object,
                             techniques: dict[str, TechniqueResult],
                             hot_threshold: float = HOT_THRESHOLD
                             ) -> WorkloadResult:
    """Fold the stage artifacts into the record the tables consume.

    The edge-profile accuracy/coverage columns are recomputed here (pure
    math over already-collected profiles -- no interpretation)."""
    expanded = opt.module
    edge_est = edge_profile_estimate(expanded, edge_profile)
    return WorkloadResult(
        workload=workload,
        original=original,
        expanded=expanded,
        opt=opt,
        edge_profile=edge_profile,
        actual=actual,
        actual_original=actual_original,
        edge_accuracy=evaluate_accuracy(actual, edge_est, hot_threshold),
        edge_coverage=evaluate_edge_coverage(actual, edge_profile),
        techniques=techniques,
        return_value=return_value,
    )
