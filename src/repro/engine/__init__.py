"""The profiling engine: cached, parallel staging under the harness.

This package decomposes the monolithic per-benchmark methodology into
explicit stages (:mod:`~repro.engine.stages`) behind a
:class:`~repro.engine.session.ProfilingSession` facade, with a
content-addressed :class:`~repro.engine.cache.ArtifactCache` (optional
on-disk layer for cross-process warmth) and a
:class:`~repro.engine.parallel.ParallelRunner` that fans independent
workloads over a process pool.  ``repro.harness`` drives everything
through an explicit session.
"""

from .cache import ArtifactCache, CacheStats, KindStats
from .faults import (CodegenFault, DegradationEvent, FaultPlan,
                     FaultSpecError)
from .fingerprint import (CACHE_SALT, fingerprint_config,
                          fingerprint_edge_profile, fingerprint_module,
                          fingerprint_text)
from .parallel import (ParallelRunner, SuiteExecutionError, WorkloadTask,
                       run_task)
from .results import (ExecutionRecord, SuiteExecutionReport, TECHNIQUES,
                      TaskFailure, TechniqueResult, WorkloadResult)
from .session import ProfilingSession, ScoreRequest, StudyRequests
from .stages import (assemble_workload_result, ground_truth, plan_stage,
                     score_technique)

__all__ = [
    "ArtifactCache", "CacheStats", "KindStats",
    "CodegenFault", "DegradationEvent", "FaultPlan", "FaultSpecError",
    "CACHE_SALT", "fingerprint_config",
    "fingerprint_edge_profile", "fingerprint_module", "fingerprint_text",
    "ParallelRunner", "SuiteExecutionError", "WorkloadTask", "run_task",
    "ExecutionRecord", "SuiteExecutionReport", "TECHNIQUES",
    "TaskFailure", "TechniqueResult", "WorkloadResult",
    "ProfilingSession", "ScoreRequest", "StudyRequests",
    "assemble_workload_result", "ground_truth", "plan_stage",
    "score_technique",
]
