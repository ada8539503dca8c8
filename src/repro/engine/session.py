"""The :class:`ProfilingSession` facade over the staged pipeline.

A session owns an :class:`~repro.engine.cache.ArtifactCache` and a jobs
setting, and exposes the per-stage entry points the harness and the
study drivers use:

* :meth:`compile` / :meth:`expand` / :meth:`record` -- the front half,
  each content-addressed on the MiniC source (plus optimizer settings)
  or the canonical IR text.  :meth:`record` runs a module once with edge
  counting and the path listener; :meth:`expand` profiles through it,
  and :meth:`trace` and :meth:`path_stream` are views over it, so a
  cold pass runs each distinct module once;
* :meth:`plan` / :meth:`plan_and_score` -- instrumentation planning and
  scored execution, keyed additionally on the planning profile and the
  :class:`~repro.core.ProfilerConfig`, which is what lets the ablation /
  staleness / sampling studies re-plan under variant configs while
  reusing every upstream artifact.  Executions are keyed by the plan's
  identity instead of its label, so labels whose plans coincide score
  one shared run, and a batch's new plans of one module share one
  execution, each plan counting on its own path register;
* :meth:`run_workload` / :meth:`run_suite` -- the composed per-benchmark
  methodology, with :meth:`run_suite` optionally fanning cold workloads
  out over a process pool (deterministic result ordering either way).
  Told what the studies to be rendered will ask (:class:`StudyRequests`),
  a cold workload's build scores their plans and collects their
  profilers in its one execution of the expanded module, and hands the
  results to the studies' own :meth:`plan_and_score` /
  :meth:`profile_module` calls through :attr:`ProfilingSession.handoff`.

``run_workload``'s output is byte-identical to the historic monolithic
path: the stages are the same code, merely memoised.
"""

from __future__ import annotations

import os
import pickle
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from ..core import (DEFAULT_CONFIG, ModulePlan, PathStream, ProfileRun,
                    ProfilerConfig, Recording, plan_account, record_module)
from ..interp import resolve_backend
from ..ir.function import Module
from ..opt import OptimizationResult, expand_module
from ..profiles import EdgeProfile, PathProfile
from ..workloads import SUITE, Workload
from .cache import ArtifactCache
from .fingerprint import (fingerprint_config, fingerprint_edge_profile,
                          fingerprint_module, fingerprint_text)
from .results import (SuiteExecutionReport, TECHNIQUES, TechniqueResult,
                      WorkloadResult)
from . import faults, stages

if TYPE_CHECKING:
    from ..analysis.diagnostics import Report
    from ..analysis.transfer import TransferResult

__all__ = ["ProfilingSession", "ScoreRequest", "StudyRequests"]


@dataclass
class ScoreRequest:
    """One technique for :meth:`ProfilingSession.plan_and_score` to plan,
    execute and score.

    ``actual`` must be the ground truth of ``module`` (it is derived
    state, so it does not contribute to the key).  ``score_profile``
    defaults to ``plan_profile``; the sampling study passes the true
    profile there while planning from a degraded one.  ``label`` names
    the result (default: the technique).
    """

    technique: str
    module: Module
    plan_profile: Optional[EdgeProfile]
    actual: PathProfile
    score_profile: Optional[EdgeProfile] = None
    config: Optional[ProfilerConfig] = None
    label: Optional[str] = None
    expected_return: object = None

    @property
    def name(self) -> str:
        return self.label if self.label is not None else self.technique

    @property
    def scoring(self) -> Optional[EdgeProfile]:
        """The edge profile the result is scored against."""
        return (self.score_profile if self.score_profile is not None
                else self.plan_profile)


@dataclass(frozen=True)
class StudyRequests:
    """What the studies a caller will render ask of each workload's
    expanded module, so that the workload's build serves it from its one
    execution (see :meth:`ProfilingSession.run_workload`).

    ``scores`` are module-level functions (a
    :class:`~repro.engine.parallel.WorkloadTask` pickles them) of a
    :class:`WorkloadResult` whose ``techniques`` are not filled in yet;
    each returns the requests a study will pass to
    :meth:`ProfilingSession.plan_and_score` for that workload.
    ``profilers`` names the registry profilers a study will ask
    :meth:`ProfilingSession.profile_module` to collect over the expanded
    module.
    """

    scores: tuple[Callable[[WorkloadResult], list[ScoreRequest]], ...] = ()
    profilers: tuple[str, ...] = ()


NO_STUDIES = StudyRequests()


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
        session runs alongside the pipeline: they are fused into every
        technique's instrumented execution (so measured overhead
        includes them), and the first technique's collection over the
        expanded module is :attr:`WorkloadResult.profiles`.  Part of every
        execution-stage cache key; the default (none) is byte-identical
        to the pre-plugin pipeline.

    A cold workload build told of the studies to come
    (:class:`StudyRequests`) leaves their results in :attr:`handoff`,
    keyed like the cache.  The study's own call takes each one out and
    stores it in the cache, as if it had computed it; the hand-off works
    with no cache too, so ``--no-cache`` also scores every plan once.
    Once a study has rendered, :meth:`release` drops what it left (the
    requests for workloads it chose not to show).
    """

    def __init__(self, cache: Optional[ArtifactCache] = None, jobs: int = 1,
                 backend: Optional[str] = None,
                 verify_plans: Optional[bool] = None,
                 timeout: Optional[float] = None, retries: int = 2,
                 profilers: Iterable[str] = ()):
        from ..profilers import parse_profiler_names

        self.cache = cache if cache is not None else ArtifactCache()
        self.jobs = max(1, int(jobs))
        self.backend = resolve_backend(backend)
        self.profilers = parse_profiler_names(tuple(profilers))
        if verify_plans is None:
            verify_plans = os.environ.get(
                "REPRO_VERIFY", "").strip().lower() in ("1", "true", "yes",
                                                        "on")
        self.verify_plans = bool(verify_plans)
        self.timeout = timeout
        self.retries = max(0, int(retries))
        # Per-task status of the most recent run_suite call.
        self.last_run_report: Optional[SuiteExecutionReport] = None
        # Artifacts a workload build computed ahead for the studies, by
        # (kind, key) (see the class docstring); a technique result sits
        # beside the builder whose request it answers.
        self.handoff: dict[tuple[str, str], object] = {}

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
        """One run of a module with edge counting and the path listener
        (cached per module and backend)."""
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
        """A module's completed paths in listener order (HPT/NET input)."""
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
        to the session's own ``profilers`` selection.  A workload build
        told of these profilers (:class:`StudyRequests`) collects them in
        its own execution and hands them off."""
        from ..profilers import (create_profilers, execute_profilers,
                                 parse_profiler_names)

        names = (self.profilers if profilers is None
                 else parse_profiler_names(tuple(profilers)))
        if not names:
            return {}
        key = self._profiles_key(fingerprint_module(module), names)
        packed = self.handoff.pop(("profiles", key), None)
        return self.cache.get_or_compute(
            "profiles", key,
            lambda: (pickle.loads(zlib.decompress(packed)) if packed
                     else execute_profilers(module, [create_profilers(names)],
                                            backend=self.backend)[0].profiles))

    def _profiles_key(self, module_fp: str, names: Sequence[str]) -> str:
        return fingerprint_text("profiles", module_fp, ",".join(names),
                                self.backend)

    # ------------------------------------------------------------------
    # Back-half stages
    # ------------------------------------------------------------------

    def plan_key(self, technique: str, module: Module,
                 edge_profile: Optional[EdgeProfile] = None,
                 config: Optional[ProfilerConfig] = None) -> str:
        """The cache fingerprint of a plan; everything derived from a
        plan (the plan itself, verifier verdicts) is keyed off this."""
        cfg = DEFAULT_CONFIG if config is None else config
        return fingerprint_text("plan", technique,
                                fingerprint_module(module),
                                fingerprint_edge_profile(edge_profile),
                                fingerprint_config(cfg))

    def plan(self, technique: str, module: Module,
             edge_profile: Optional[EdgeProfile] = None,
             config: Optional[ProfilerConfig] = None) -> ModulePlan:
        """A cached PP/TPP/PPP instrumentation plan."""
        cfg = DEFAULT_CONFIG if config is None else config
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
        """Plan, execute, and score techniques (the cached unit the
        studies share): one result per request, in order.

        Each request is looked up under its own ``technique`` key, in
        the cache and then in the hand-off of a workload build that
        scored it ahead (:class:`StudyRequests`).  The misses are
        planned and de-duplicated by instrumentation identity (the
        ``execution`` key: labels whose plans coincide share one run),
        and each module's plans that have no run yet execute together,
        once, each plan as its own account.
        """
        return self._score(requests)

    def _score(self, requests: Sequence[ScoreRequest],
               ahead: Sequence[tuple[Callable, ScoreRequest]] = (),
               observe: Optional[tuple[Module, tuple[str, ...]]] = None
               ) -> list[TechniqueResult]:
        """:meth:`plan_and_score`, with the requests a study will make
        later (``ahead``, each beside the :attr:`StudyRequests.scores`
        builder that made it) and, when ``observe`` names a module and
        registry profilers, those profilers' own account, joining the
        same executions.  Their results go to the hand-off, not the
        cache: the study's own call stores them."""
        module_fps: dict[int, str] = {}

        def module_fp(module: Module) -> str:
            found = module_fps.get(id(module))
            if found is None:
                found = module_fps[id(module)] = fingerprint_module(module)
            return found

        keys = [(*self._score_keys(request, module_fp(request.module)),
                 module_fp(request.module)) for request in requests]
        done: dict[str, TechniqueResult] = {}
        misses: dict[str, tuple[ScoreRequest, str, str]] = {}
        for request, (key, run_key, fp) in zip(requests, keys):
            if key in done or key in misses:
                continue
            found = self.cache.lookup("technique", key)
            if found is None:
                ahead_of = self.handoff.pop(("technique", key), None)
                if ahead_of is not None:
                    found = ahead_of[1]
                    self.cache.store("technique", key, found)
            if found is None:
                misses[key] = (request, run_key, fp)
            else:
                done[key] = found
        later: dict[str, Callable] = {}
        for build, request in ahead:
            fp = module_fp(request.module)
            key, run_key = self._score_keys(request, fp)
            if (key in misses or key in done or key in later
                    or ("technique", key) in self.handoff):
                continue
            if self.cache.lookup("technique", key) is None:
                misses[key] = (request, run_key, fp)
                later[key] = build
        watch = None
        if observe is not None:
            watch = (module_fp(observe[0]), *observe)
        if misses or watch is not None:
            done.update(self._score_misses(misses, later, watch))
        return [done[key] for key, _, _ in keys]

    def release(self, build: Callable) -> None:
        """Drop the results workload builds scored ahead for ``build``
        (one of :attr:`StudyRequests.scores`) that its study did not
        take."""
        for handoff_key in [handoff_key for handoff_key, value
                            in self.handoff.items()
                            if handoff_key[0] == "technique"
                            and value[0] is build]:
            del self.handoff[handoff_key]

    def _score_keys(self, request: ScoreRequest,
                    module_fp: str) -> tuple[str, str]:
        """The request's ``technique`` key and its run's ``execution``
        key."""
        if request.scoring is None:
            raise ValueError("scoring needs an edge profile")
        cfg = DEFAULT_CONFIG if request.config is None else request.config
        score_fp = (fingerprint_edge_profile(request.score_profile)
                    if request.score_profile is not None else "same")
        run_key = fingerprint_text(
            "execution", request.technique, module_fp,
            fingerprint_edge_profile(request.plan_profile),
            fingerprint_config(cfg), self.backend, ",".join(self.profilers))
        key = fingerprint_text("technique", request.name, run_key, score_fp,
                               repr(request.expected_return))
        return key, run_key

    def _score_misses(self, misses: dict[str, tuple[ScoreRequest, str, str]],
                      later: dict[str, Callable],
                      watch: Optional[tuple[str, Module, tuple[str, ...]]]
                      ) -> dict[str, TechniqueResult]:
        """Plan, run (one execution per module) and score the requests
        no cache held, storing each under its own key (the ``later``
        ones, and the ``watch``ed profilers' collection, in the
        hand-off)."""
        plans = {key: self.plan(request.technique, request.module,
                                request.plan_profile, request.config)
                 for key, (request, _, _) in misses.items()}
        runs: dict[str, ProfileRun] = {}
        batches: dict[str, dict[str, ModulePlan]] = {}
        modules: dict[str, Module] = {}
        for key, (request, run_key, module_fp) in misses.items():
            batch = batches.get(module_fp, {})
            if run_key in runs or run_key in batch:
                continue
            found = self.cache.lookup("execution", run_key)
            if found is None:
                batches.setdefault(module_fp, batch)[run_key] = plans[key]
                modules[module_fp] = request.module
            else:
                runs[run_key] = found
        if watch is not None:
            batches.setdefault(watch[0], {})
            modules.setdefault(watch[0], watch[1])
        for module_fp, batch in batches.items():
            observe = watch[2] if watch and watch[0] == module_fp else ()
            fused, profiles = self._execute(modules[module_fp],
                                            list(batch.values()), observe)
            for run_key, run in zip(batch, fused):
                self.cache.store("execution", run_key, run)
                runs[run_key] = run
            if observe:
                # Packed: the study that reads them renders late, and
                # until then they would sit in memory.
                self.handoff[("profiles", self._profiles_key(
                    module_fp, observe))] = zlib.compress(
                        pickle.dumps(profiles), 1)
        scored: dict[str, TechniqueResult] = {}
        for key, (request, run_key, _) in misses.items():
            run = runs[run_key]
            result = stages.score_technique(
                request.name, plans[key], request.actual, request.scoring,
                request.expected_return, lambda _plan, _run=run: _run)
            if key in later:
                self.handoff[("technique", key)] = (later[key], result)
            else:
                self.cache.store("technique", key, result)
            scored[key] = result
        return scored

    def _execute(self, module: Module, plans: list[ModulePlan],
                 observe: tuple[str, ...]
                 ) -> tuple[list[ProfileRun], dict[str, object]]:
        """Run ``module`` once: each plan as the account its lone run
        would attach, and the ``observe`` profilers (if any) as one more
        account; the plans' runs, and that account's collection."""
        from ..profilers import create_profilers, execute_profilers

        accounts = [plan_account(plan, self.profilers) for plan in plans]
        if observe:
            accounts.append(create_profilers(observe))
        runs = execute_profilers(module, accounts, backend=self.backend)
        return ([ProfileRun.of_account(plan, run)
                 for plan, run in zip(plans, runs)],
                runs[-1].profiles if observe else {})

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
                     techniques: Optional[Iterable[str]] = None,
                     studies: StudyRequests = NO_STUDIES) -> WorkloadResult:
        """The full per-benchmark methodology under the default config,
        assembled from cached stages (and itself cached as a single
        artifact).

        When the result is not cached, its build also serves
        ``studies``: their requests and profilers join the expanded
        module's one execution, and their results wait in the hand-off
        for the studies' own calls.  They are not part of the workload's
        key or entry.
        """
        techs = TECHNIQUES if techniques is None else tuple(techniques)
        key = self._workload_key(workload, scale, techs)
        return self.cache.get_or_compute(
            "workload", key,
            lambda: self._build_workload_result(workload, scale, techs,
                                                studies))

    def _build_workload_result(self, workload: Workload, scale: int,
                               techniques: tuple[str, ...],
                               studies: StudyRequests) -> WorkloadResult:
        original = self.compile(workload, scale)
        opt = self.expand(workload, scale)
        expanded = opt.module
        # Table 1's "original code": scalar-optimized, not inlined/unrolled.
        actual_original, _profile0, _rv0 = self.trace(opt.baseline_module)
        actual, edge_profile, return_value = self.trace(expanded)
        result = stages.assemble_workload_result(
            workload, original, opt, actual_original, actual, edge_profile,
            return_value, {})
        scored = self._score(
            [ScoreRequest(name, expanded,
                          None if name == "pp" else edge_profile,
                          actual, score_profile=edge_profile,
                          expected_return=return_value)
             for name in techniques],
            ahead=[(build, request) for build in studies.scores
                   for request in build(result)],
            observe=((expanded, studies.profilers) if studies.profilers
                     else None))
        result.techniques = dict(zip(techniques, scored))
        if self.profilers and scored:
            # Every technique's execution fused the same profilers.
            result.profiles = scored[0].run.profiles
        # Degradations the stages logged while building this result
        # (codegen fallbacks, cache quarantines) travel with it.
        result.execution.degradations.extend(faults.drain_degradations())
        return result

    # ------------------------------------------------------------------
    # Suite driver (serial or process pool)
    # ------------------------------------------------------------------

    def run_suite(self, workloads: Optional[list[Workload]] = None,
                  scale: int = 1, verbose: bool = False,
                  jobs: Optional[int] = None,
                  studies: StudyRequests = NO_STUDIES
                  ) -> dict[str, WorkloadResult]:
        """Run every workload under the default methodology; results
        keyed by benchmark name, in input order regardless of completion
        order.  Each cold workload's build also serves ``studies`` (see
        :meth:`run_workload`), in a worker too."""
        chosen = list(workloads) if workloads is not None else list(SUITE)
        jobs = self.jobs if jobs is None else max(1, int(jobs))

        if jobs > 1 and len(chosen) > 1:
            return self._run_suite_parallel(chosen, scale, verbose, jobs,
                                            studies)
        out: dict[str, WorkloadResult] = {}
        report = SuiteExecutionReport()
        for workload in chosen:
            if verbose:
                print(f"  running {workload.name} ...", flush=True)
            out[workload.name] = self.run_workload(workload, scale,
                                                   studies=studies)
            report.records[workload.name] = out[workload.name].execution
        report.cache_quarantined = self.cache.stats.corrupt
        self.last_run_report = report
        return out

    def _run_suite_parallel(self, chosen: list[Workload], scale: int,
                            verbose: bool, jobs: int,
                            studies: StudyRequests
                            ) -> dict[str, WorkloadResult]:
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
            print(f"  running {len(cold)} workloads across {jobs} "
                  f"processes ...", flush=True)
        runner = ParallelRunner(jobs=jobs, disk_dir=self.cache.disk_dir,
                                timeout=self.timeout, retries=self.retries)
        tasks = [WorkloadTask(w, scale, backend=self.backend,
                              verify_plans=self.verify_plans,
                              profilers=self.profilers, studies=studies)
                 for w in cold]
        for workload, result in zip(cold, runner.run(tasks)):
            # What the worker's build scored for the studies waits here,
            # outside the workload's entry.
            self.handoff.update(result.handoff)
            result.handoff = {}
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
