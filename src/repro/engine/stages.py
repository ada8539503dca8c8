"""The decomposed compile → optimize → profile → plan → score pipeline.

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

from ..core import (DEFAULT_CONFIG, ModulePlan, ProfileRun, ProfilerConfig,
                    build_estimated_profile, edge_profile_estimate,
                    evaluate_accuracy, evaluate_coverage,
                    evaluate_edge_coverage, instrumented_fraction, plan_pp,
                    plan_ppp, plan_tpp, record_module)
from ..ir.function import Module
from ..opt import OptimizationResult
from ..profiles import EdgeProfile, PathProfile
from ..workloads import Workload
from .results import TechniqueResult, WorkloadResult


# ----------------------------------------------------------------------
# Stage: profile (ground truth)
# ----------------------------------------------------------------------

def ground_truth(module: Module,
                 backend: str | None = None
                 ) -> tuple[PathProfile, EdgeProfile, object]:
    """Trace the module once: path profile, edge profile, return value,
    read off one :func:`~repro.core.record_module` run.  For callers
    that hold no session (single-file CLI commands, ``repro equiv
    FILE``); a session's ``trace`` reads the same profiles from its
    cached recording."""
    recording = record_module(module, backend=backend)
    return recording.paths, recording.edges, recording.return_value


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
# Stage: score
# ----------------------------------------------------------------------

def score_technique(name: str, plan: ModulePlan, run: ProfileRun,
                    actual: PathProfile, edge_profile: EdgeProfile
                    ) -> TechniqueResult:
    """Every per-technique metric of a plan's run (executed or replayed)
    against the module's ground truth and the scoring edge profile."""
    estimated = build_estimated_profile(run, edge_profile)
    fraction = instrumented_fraction(plan, actual)
    return TechniqueResult(
        name=name,
        overhead=run.overhead,
        accuracy=evaluate_accuracy(actual, estimated.flows),
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
                             techniques: dict[str, TechniqueResult]
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
        edge_accuracy=evaluate_accuracy(actual, edge_est),
        edge_coverage=evaluate_edge_coverage(actual, edge_profile),
        techniques=techniques,
        return_value=return_value,
    )
