"""The profiling engine: cached, parallel staging under the harness.

This package decomposes the monolithic per-benchmark methodology into
explicit stages (:mod:`~repro.engine.stages`) behind a
:class:`~repro.engine.session.ProfilingSession` facade, with a
content-addressed :class:`~repro.engine.cache.ArtifactCache` (optional
on-disk layer for cross-process warmth) and a
:class:`~repro.engine.parallel.ParallelRunner` that fans independent
workloads over a process pool.  ``repro.harness`` drives everything
through an explicit session.

Each export imports its module on first use (:mod:`repro.lazy`), so the
cache layer (:mod:`~repro.engine.cache`, :mod:`~repro.engine.fingerprint`,
:mod:`~repro.engine.faults`) loads without the pipeline.
"""

from ..lazy import lazy_exports

_EXPORTS = {
    ".cache": ("ArtifactCache", "CacheStats", "KindStats"),
    ".faults": ("CodegenFault", "DegradationEvent", "FaultPlan",
                "FaultSpecError"),
    ".fingerprint": ("CACHE_SALT", "fingerprint_config",
                     "fingerprint_edge_profile", "fingerprint_module",
                     "fingerprint_text"),
    ".parallel": ("ParallelRunner", "SuiteExecutionError", "WorkloadTask",
                  "run_task"),
    ".results": ("ExecutionRecord", "SuiteExecutionReport", "TECHNIQUES",
                 "TaskFailure", "TechniqueResult", "WorkloadResult"),
    ".session": ("ProfilingSession", "ScoreRequest"),
    ".stages": ("assemble_workload_result", "ground_truth", "plan_stage",
                "score_technique"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
lazy_exports(__name__, _EXPORTS)
