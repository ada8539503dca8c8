"""The decomposed compile → optimize → profile → plan → execute → score
pipeline.

Each function here is one pure, independently-cacheable stage of the
paper's per-benchmark methodology.  The stages take explicit inputs and
return plain picklable artifacts; they never touch the cache themselves
-- :class:`~repro.engine.session.ProfilingSession` wraps each stage with
content-addressed memoisation and composes them back into the monolithic
flow :func:`repro.harness.run_workload` used to run inline.
"""

from __future__ import annotations

from ..core import (DEFAULT_CONFIG, ModulePlan, PathStream, ProfilerConfig,
                    build_estimated_profile, edge_profile_estimate,
                    evaluate_accuracy, evaluate_coverage,
                    evaluate_edge_coverage, instrumented_fraction, plan_pp,
                    plan_ppp, plan_tpp, record_path_stream, run_with_plan)
from ..ir.function import Module
from ..opt import OptimizationResult, expand_module
from ..profiles import EdgeProfile, PathProfile
from ..profiles.metrics import HOT_THRESHOLD
from ..workloads import Workload
from .results import TechniqueResult, WorkloadResult


# ----------------------------------------------------------------------
# Stage: compile
# ----------------------------------------------------------------------

def compile_stage(workload: Workload, scale: int = 1) -> Module:
    """MiniC source → validated IR module."""
    return workload.compile(scale)


# ----------------------------------------------------------------------
# Stage: optimize (edge-profile-guided expansion, Section 7.3)
# ----------------------------------------------------------------------

def expand_stage(module: Module, code_bloat: float,
                 backend: str | None = None) -> OptimizationResult:
    """Scalar cleanup + profile-guided inlining and unrolling."""
    return expand_module(module, code_bloat=code_bloat, backend=backend)


# ----------------------------------------------------------------------
# Stage: profile (ground truth)
# ----------------------------------------------------------------------

def ground_truth(module: Module,
                 backend: str | None = None
                 ) -> tuple[PathProfile, EdgeProfile, object]:
    """Trace the module once: path profile, edge profile, return value.

    Runs as a composition of the three builtin registry plugins
    (``path-trace``, ``edges``, ``calls``) -- they claim the machine's
    native channels, so this is byte-identical to constructing the
    machine with the flags directly.
    """
    from ..profilers import (EdgeCountProfiler, InvocationProfiler,
                             PathTraceProfiler, execute_profilers)

    run = execute_profilers(
        module, [PathTraceProfiler(), EdgeCountProfiler(),
                 InvocationProfiler()], backend=backend)
    actual = PathProfile.from_trace(module, run.profiles["path-trace"])
    profile = EdgeProfile.from_run(module, run.profiles["edges"],
                                   run.profiles["calls"])
    return actual, profile, run.result.return_value


def stream_stage(module: Module, backend: str | None = None) -> PathStream:
    """Run the module once, recording its completed paths in order: the
    input the HPT and NET studies replay."""
    return record_path_stream(module, backend=backend)


def profile_stage(module: Module, profilers: tuple[str, ...],
                  backend: str | None = None) -> dict[str, object]:
    """Run the named extra registry profilers over the module once and
    return their collected results (profiler name -> result)."""
    from ..profilers import create_profilers, execute_profilers

    if not profilers:
        return {}
    run = execute_profilers(module, create_profilers(profilers),
                            backend=backend)
    return run.profiles


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
                    backend: str | None = None,
                    profilers: tuple[str, ...] = ()) -> TechniqueResult:
    """Execute a plan and compute every per-technique metric.

    ``profilers`` names extra registry profilers fused into the same
    instrumented execution; their cost is billed through the shared
    counter, so the technique's measured overhead includes them.
    """
    run = run_with_plan(plan, backend=backend, profilers=profilers)
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
