"""The :class:`ProfilingSession` facade over the staged pipeline.

A session owns an :class:`~repro.engine.cache.ArtifactCache` and a jobs
setting, and exposes the per-stage entry points the harness and the
study drivers use:

* :meth:`compile` / :meth:`expand` / :meth:`record` -- the front half,
  each content-addressed on the MiniC source (plus optimizer settings)
  or the canonical IR text.  :meth:`record` runs a module once with edge
  counting and path tracing; :meth:`expand` profiles through it,
  and :meth:`trace` and :meth:`path_stream` are views over it, so a
  cold pass runs each distinct module once;
* :meth:`plan` / :meth:`plan_and_score` -- instrumentation planning and
  scoring, keyed additionally on the planning profile and the
  :class:`~repro.core.ProfilerConfig`, which is what lets the ablation /
  staleness / sampling studies re-plan under variant configs while
  reusing every upstream artifact.  Scoring executes nothing: each plan
  is replayed over its module's recording
  (:func:`~repro.core.replay_plan`);
* :meth:`run_workload` / :meth:`run_suite` -- the composed per-benchmark
  methodology, with :meth:`run_suite` optionally fanning cold workloads
  out over a process pool (deterministic result ordering either way).

``run_workload``'s output is byte-identical to the historic monolithic
path: the stages are the same code, merely memoised.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from ..backends import resolve_backend
from ..workloads import SUITE, Workload
from .cache import ArtifactCache
from .fingerprint import (fingerprint_config, fingerprint_edge_profile,
                          fingerprint_module, fingerprint_text)
from .results import (SuiteExecutionReport, TECHNIQUES, TechniqueResult,
                      WorkloadResult)
from . import faults

if TYPE_CHECKING:
    from ..analysis.diagnostics import Report
    from ..analysis.transfer import TransferResult
    from ..core import (ModulePlan, PathStream, ProfilerConfig,
                        Recording)
    from ..ir.function import Module
    from ..opt import OptimizationResult
    from ..profiles import EdgeProfile, PathProfile

__all__ = ["ProfilingSession", "ScoreRequest"]


def _or_default(config: Optional[ProfilerConfig]) -> ProfilerConfig:
    """``config``, or the default methodology's when it is ``None``."""
    from ..core import DEFAULT_CONFIG

    return DEFAULT_CONFIG if config is None else config


@dataclass
class ScoreRequest:
    """One technique for :meth:`ProfilingSession.plan_and_score` to plan
    and score.

    Ground truth and the run's counters come from the session's
    recording of ``module``.  ``score_profile`` defaults to
    ``plan_profile``; the sampling study passes the true profile there
    while planning from a degraded one.  ``label`` names the result
    (default: the technique).
    """

    technique: str
    module: Module
    plan_profile: Optional[EdgeProfile]
    score_profile: Optional[EdgeProfile] = None
    config: Optional[ProfilerConfig] = None
    label: Optional[str] = None

    @property
    def name(self) -> str:
        return self.label if self.label is not None else self.technique

    @property
    def scoring(self) -> Optional[EdgeProfile]:
        """The edge profile the result is scored against."""
        return (self.score_profile if self.score_profile is not None
                else self.plan_profile)


class ProfilingSession:
    """Cached, optionally parallel driver for the profiling pipeline.

    Parameters
    ----------
    cache:
        The artifact cache; a fresh in-memory cache by default.
    jobs:
        Default process count for :meth:`run_suite` (1 = serial).
    backend:
        Execution backend for every machine the session's stages build
        (``None`` resolves ``REPRO_BACKEND`` / the default once, at
        construction).  Both backends produce identical artifacts, but
        the backend is still part of every execution-stage cache key so
        a cached result always names the code path that produced it.
    verify_plans:
        When true, every plan :meth:`plan` hands out is first proven
        correct by the static verifier (:mod:`repro.analysis.verify`);
        a plan with errors raises
        :class:`~repro.analysis.verify.PlanVerificationError` with the
        full report.  ``None`` (the default) reads ``REPRO_VERIFY``
        (``1``/``true``/``yes`` enable it).
    timeout / retries:
        Fault-tolerance knobs for :meth:`run_suite`'s process pool: the
        per-task wall-clock limit in seconds (``None`` = unlimited) and
        how many extra pool attempts a failed task gets before it falls
        back to running inline (see
        :class:`~repro.engine.parallel.ParallelRunner`).
    profilers:
        Names of extra registry profilers (see ``repro profilers``) the
        session runs alongside the pipeline: every technique's overhead
        bills their ops too, and their collection over the expanded
        module (:meth:`profile_module`) is :attr:`WorkloadResult.profiles`.
        Part of every scoring cache key; the default (none) is
        byte-identical to the pre-plugin pipeline.
    """

    def __init__(self, cache: Optional[ArtifactCache] = None, jobs: int = 1,
                 backend: Optional[str] = None,
                 verify_plans: Optional[bool] = None,
                 timeout: Optional[float] = None, retries: int = 2,
                 profilers: Iterable[str] = ()):
        self.cache = cache if cache is not None else ArtifactCache()
        self.jobs = max(1, int(jobs))
        self.backend = resolve_backend(backend)
        self.profilers = tuple(profilers)
        if self.profilers:
            from ..profilers import parse_profiler_names
            self.profilers = parse_profiler_names(self.profilers)
        if verify_plans is None:
            verify_plans = os.environ.get(
                "REPRO_VERIFY", "").strip().lower() in ("1", "true", "yes",
                                                        "on")
        self.verify_plans = bool(verify_plans)
        self.timeout = timeout
        self.retries = max(0, int(retries))
        # Per-task status of the most recent run_suite call.
        self.last_run_report: Optional[SuiteExecutionReport] = None

    @property
    def stats(self):
        """The cache's per-kind hit/miss/store counters."""
        return self.cache.stats

    # ------------------------------------------------------------------
    # Front-half stages
    # ------------------------------------------------------------------

    def compile(self, workload: Workload, scale: int = 1) -> Module:
        """Compile a workload (cached on its generated source text)."""
        key = fingerprint_text("compile", workload.name, str(scale),
                               workload.source(scale))
        return self.cache.get_or_compute(
            "compile", key, lambda: workload.compile(scale))

    def expand(self, workload: Workload, scale: int = 1
               ) -> OptimizationResult:
        """Edge-profile-guided expansion of a workload's module, profiled
        through :meth:`record`."""
        from ..opt import expand_module

        key = fingerprint_text("expand", workload.name, str(scale),
                               repr(workload.code_bloat),
                               workload.source(scale), self.backend)

        def profile(module: Module) -> tuple[EdgeProfile, object, float]:
            recording = self.record(module)
            return (recording.edges, recording.return_value,
                    recording.base_cost)

        return self.cache.get_or_compute(
            "expand", key,
            lambda: expand_module(self.compile(workload, scale),
                                  code_bloat=workload.code_bloat,
                                  backend=self.backend, profile=profile))

    def record(self, module: Module) -> Recording:
        """One run of a module with edge counting and path tracing
        (cached per module and backend)."""
        from ..core import record_module

        key = fingerprint_text("record", fingerprint_module(module),
                               self.backend)
        return self.cache.get_or_compute(
            "record", key, lambda: record_module(module, backend=self.backend))

    def trace(self, module: Module) -> tuple[PathProfile, EdgeProfile,
                                             object]:
        """Ground truth for a module: (path profile, edge profile, rv)."""
        recording = self.record(module)
        return recording.paths, recording.edges, recording.return_value

    def path_stream(self, module: Module) -> PathStream:
        """A module's completed paths in order (HPT/NET input)."""
        return self.record(module).stream

    def remap_profile(self, old: EdgeProfile, new_module: Module,
                      paths: Optional[PathProfile] = None
                      ) -> "TransferResult":
        """Remap a stale edge profile onto a recompiled module (cached).

        The remap-instead-of-discard path: rather than throwing away a
        profile whose module was edited and recompiled, the old module
        is matched against the new one (:mod:`repro.analysis.match`)
        and the counts are transferred and repaired to exact flow
        conservation (:mod:`repro.analysis.transfer`).  Each serve is
        counted in ``stats.of("remap").remapped``, separately from the
        plain stale-discard counter.
        """
        from ..analysis.transfer import remap_edge_profile

        key = fingerprint_text("remap", fingerprint_module(old.module),
                               fingerprint_module(new_module),
                               "paths" if paths is not None else "edges")
        result = self.cache.get_or_compute(
            "remap", key,
            lambda: remap_edge_profile(old, new_module, paths=paths))
        self.cache.stats.of("remap").remapped += 1
        return result

    def profile_module(self, module: Module,
                       profilers: Optional[Iterable[str]] = None
                       ) -> dict[str, object]:
        """Run registry profilers over a module once (cached); defaults
        to the session's own ``profilers`` selection."""
        from ..profilers import (create_profilers, execute_profilers,
                                 parse_profiler_names)

        names = (self.profilers if profilers is None
                 else parse_profiler_names(tuple(profilers)))
        if not names:
            return {}
        key = fingerprint_text("profiles", fingerprint_module(module),
                               ",".join(names), self.backend)
        return self.cache.get_or_compute(
            "profiles", key,
            lambda: execute_profilers(module, create_profilers(names),
                                      backend=self.backend).profiles)

    # ------------------------------------------------------------------
    # Back-half stages
    # ------------------------------------------------------------------

    def plan_key(self, technique: str, module: Module,
                 edge_profile: Optional[EdgeProfile] = None,
                 config: Optional[ProfilerConfig] = None) -> str:
        """The cache fingerprint of a plan; everything derived from a
        plan (the plan itself, verifier verdicts) is keyed off this."""
        cfg = _or_default(config)
        return fingerprint_text("plan", technique,
                                fingerprint_module(module),
                                fingerprint_edge_profile(edge_profile),
                                fingerprint_config(cfg))

    def plan(self, technique: str, module: Module,
             edge_profile: Optional[EdgeProfile] = None,
             config: Optional[ProfilerConfig] = None) -> ModulePlan:
        """A cached PP/TPP/PPP instrumentation plan."""
        from . import stages

        cfg = _or_default(config)
        key = self.plan_key(technique, module, edge_profile, cfg)
        plan = self.cache.get_or_compute(
            "plan", key,
            lambda: stages.plan_stage(technique, module, edge_profile, cfg))
        if self.verify_plans:
            # Fail fast on a plan the static verifier rejects.
            from ..analysis.verify import PlanVerificationError
            report = self.verify_report(key, lambda: plan)
            if not report.ok:
                raise PlanVerificationError(report)
        return plan

    def verify_report(self, plan_key: str, plan: Callable[[], ModulePlan],
                      path_cap: Optional[int] = None) -> "Report":
        """The static verifier's report on the plan under ``plan_key``,
        cached per path cap; ``plan`` is only called on a miss.  The
        ``verify_plans`` check and ``repro verify --suite`` share it."""
        from ..analysis.verify import DEFAULT_PATH_CAP, verify_module_plan

        cap = DEFAULT_PATH_CAP if path_cap is None else path_cap
        key = fingerprint_text("verify-report", plan_key, str(cap))
        return self.cache.get_or_compute(
            "verifyreport", key, lambda: verify_module_plan(plan(), cap))

    def plan_and_score(self, requests: Sequence[ScoreRequest]
                       ) -> list[TechniqueResult]:
        """Plan and score techniques (the cached unit the studies
        share): one result per request, in order.

        A request no cache holds is planned (cached per plan) and its
        plan replayed over the module's recording (:meth:`record`), so
        scoring runs nothing but that one recording per module.
        """
        module_fps: dict[int, str] = {}
        results = []
        for request in requests:
            module_fp = module_fps.get(id(request.module))
            if module_fp is None:
                module_fp = module_fps[id(request.module)] = \
                    fingerprint_module(request.module)
            results.append(self.cache.get_or_compute(
                "technique", self._technique_key(request, module_fp),
                lambda: self._score(request)))
        return results

    def _technique_key(self, request: ScoreRequest, module_fp: str) -> str:
        if request.scoring is None:
            raise ValueError("scoring needs an edge profile")
        cfg = _or_default(request.config)
        score_fp = (fingerprint_edge_profile(request.score_profile)
                    if request.score_profile is not None else "same")
        return fingerprint_text(
            "technique", request.name, request.technique, module_fp,
            fingerprint_edge_profile(request.plan_profile),
            fingerprint_config(cfg), score_fp, self.backend,
            ",".join(self.profilers))

    def _score(self, request: ScoreRequest) -> TechniqueResult:
        from ..core import replay_plan
        from . import stages

        recording = self.record(request.module)
        plan = self.plan(request.technique, request.module,
                         request.plan_profile, request.config)
        return stages.score_technique(
            request.name, plan, replay_plan(plan, recording, self.profilers),
            recording.paths, request.scoring)

    # ------------------------------------------------------------------
    # Composed per-benchmark methodology
    # ------------------------------------------------------------------

    def _workload_key(self, workload: Workload, scale: int,
                      techniques: tuple[str, ...]) -> str:
        return fingerprint_text("workload", workload.name, str(scale),
                                repr(workload.code_bloat),
                                workload.source(scale),
                                ",".join(techniques), self.backend,
                                ",".join(self.profilers))

    def suite_key(self, workloads: Iterable[Workload], scale: int = 1) -> str:
        """The fingerprint of what :meth:`run_suite` computes for these
        workloads, in this order, at this scale (default methodology):
        everything a rendered table over those results depends on."""
        return fingerprint_text("suite", *(
            self._workload_key(w, scale, TECHNIQUES) for w in workloads))

    def run_workload(self, workload: Workload, scale: int = 1,
                     techniques: Optional[Iterable[str]] = None
                     ) -> WorkloadResult:
        """The full per-benchmark methodology under the default config,
        assembled from cached stages (and itself cached as a single
        artifact)."""
        techs = TECHNIQUES if techniques is None else tuple(techniques)
        key = self._workload_key(workload, scale, techs)
        return self.cache.get_or_compute(
            "workload", key,
            lambda: self._build_workload_result(workload, scale, techs))

    def _build_workload_result(self, workload: Workload, scale: int,
                               techniques: tuple[str, ...]) -> WorkloadResult:
        from . import stages

        original = self.compile(workload, scale)
        opt = self.expand(workload, scale)
        expanded = opt.module
        # Table 1's "original code": scalar-optimized, not inlined/unrolled.
        actual_original, _profile0, _rv0 = self.trace(opt.baseline_module)
        actual, edge_profile, return_value = self.trace(expanded)
        scored = self.plan_and_score(
            [ScoreRequest(name, expanded,
                          None if name == "pp" else edge_profile,
                          score_profile=edge_profile)
             for name in techniques])
        result = stages.assemble_workload_result(
            workload, original, opt, actual_original, actual, edge_profile,
            return_value, dict(zip(techniques, scored)))
        result.profiles = self.profile_module(expanded)
        # Degradations the stages logged while building this result
        # (codegen fallbacks, cache quarantines) travel with it.
        result.execution.degradations.extend(faults.drain_degradations())
        return result

    # ------------------------------------------------------------------
    # Suite driver (serial or process pool)
    # ------------------------------------------------------------------

    def run_suite(self, workloads: Optional[list[Workload]] = None,
                  scale: int = 1, verbose: bool = False
                  ) -> dict[str, WorkloadResult]:
        """Run every workload under the default methodology, across
        :attr:`jobs` processes; results keyed by benchmark name, in input
        order regardless of completion order."""
        chosen = list(workloads) if workloads is not None else list(SUITE)
        if self.jobs > 1 and len(chosen) > 1:
            return self._run_suite_parallel(chosen, scale, verbose)
        out: dict[str, WorkloadResult] = {}
        report = SuiteExecutionReport()
        for workload in chosen:
            if verbose:
                print(f"  running {workload.name} ...", flush=True)
            out[workload.name] = self.run_workload(workload, scale)
            report.records[workload.name] = out[workload.name].execution
        report.cache_quarantined = self.cache.stats.corrupt
        self.last_run_report = report
        return out

    def _run_suite_parallel(self, chosen: list[Workload], scale: int,
                            verbose: bool) -> dict[str, WorkloadResult]:
        from .parallel import ParallelRunner, WorkloadTask

        # Serve warm workloads from the cache first (one counted lookup
        # each); every miss, corrupt entries included, goes to a worker.
        keys = {w.name: self._workload_key(w, scale, TECHNIQUES)
                for w in chosen}
        out: dict[str, WorkloadResult] = {}
        quarantines: dict[str, list[faults.DegradationEvent]] = {}
        for w in chosen:
            out[w.name] = self.cache.lookup("workload", keys[w.name])
            quarantines[w.name] = faults.drain_degradations()
        cold = [w for w in chosen if out[w.name] is None]
        if cold and verbose:
            print(f"  running {len(cold)} workloads across {self.jobs} "
                  f"processes ...", flush=True)
        runner = ParallelRunner(jobs=self.jobs, disk_dir=self.cache.disk_dir,
                                timeout=self.timeout, retries=self.retries)
        tasks = [WorkloadTask(w, scale, backend=self.backend,
                              verify_plans=self.verify_plans,
                              profilers=self.profilers)
                 for w in cold]
        for workload, result in zip(cold, runner.run(tasks)):
            # A quarantined entry's event travels with its rebuild, as
            # on the serial path; then the session is warm for next time.
            result.execution.degradations[:0] = quarantines[workload.name]
            self.cache.store("workload", keys[workload.name], result)
            out[workload.name] = result
        # Fold the supervisor's per-task records (cold tasks) together
        # with the warm workloads' stored records, in suite order.
        report = runner.report
        report.records = {w.name: out[w.name].execution for w in chosen}
        report.cache_quarantined = self.cache.stats.corrupt
        self.last_run_report = report
        return out
