"""Fault-tolerant process-pool fan-out for independent workloads.

Every workload in a suite run is independent (the methodology is
per-benchmark), so cold workloads fan out over a
:mod:`concurrent.futures` process pool -- but under a **supervisor**
rather than a bare ``pool.map``:

* every task is submitted as its own future, and results are reassembled
  in task-index order, so suite output is deterministic regardless of
  which worker finishes first;
* each task gets an optional wall-clock **timeout** (measured from when
  its future is first observed running) and bounded, deterministic
  **retries** with exponential backoff;
* a **worker crash** (``BrokenProcessPool``) replaces only the broken
  pool and reschedules only the unfinished tasks -- results that already
  came back are never discarded and never recomputed;
* a task that exhausts its pool retries falls back to running **inline**
  in the parent (recorded as a degradation event), so one pathological
  task cannot sink the suite; a task that fails inline too raises
  :class:`SuiteExecutionError` carrying the full failure taxonomy;
* tasks are checked for picklability **individually**: one ad-hoc
  unpicklable workload runs inline while every other task stays on the
  pool.

Everything the supervisor observed -- attempts, :class:`TaskFailure`\\ s,
:class:`~repro.engine.faults.DegradationEvent`\\ s, pool rebuilds -- is
collected in a :class:`~repro.engine.results.SuiteExecutionReport`
(``runner.report``) and merged into each result's ``execution`` record.
Workers share the parent's on-disk cache directory when one is
configured; writes are atomic and checksummed, so concurrent stores of
the same artifact are harmless.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from ..core import DEFAULT_CONFIG, ProfilerConfig
from ..profiles.metrics import HOT_THRESHOLD
from ..workloads import Workload
from . import faults
from .results import (ExecutionRecord, SuiteExecutionReport, TECHNIQUES,
                      TaskFailure, WorkloadResult)

__all__ = ["ParallelRunner", "SuiteExecutionError", "WorkloadTask",
           "new_pool", "run_task"]


class SuiteExecutionError(RuntimeError):
    """A task failed every pool attempt *and* the inline fallback."""

    def __init__(self, task_name: str, failures: list[TaskFailure]):
        self.task_name = task_name
        self.failures = failures
        lines = [f"task {task_name!r} failed after "
                 f"{len(failures)} attempt(s):"]
        lines += [f"  [{f.kind}] attempt {f.attempt}: {f.detail}"
                  for f in failures]
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class WorkloadTask:
    """One unit of suite work, shippable to a worker process."""

    workload: Workload
    scale: int = 1
    config: ProfilerConfig = DEFAULT_CONFIG
    techniques: tuple[str, ...] = TECHNIQUES
    hot_threshold: float = HOT_THRESHOLD
    # None lets the worker resolve REPRO_BACKEND itself; sessions always
    # pass their already-resolved backend so parent and workers agree.
    backend: Optional[str] = None
    verify_plans: bool = False
    # Extra registry profilers to run alongside the pipeline (names).
    profilers: tuple[str, ...] = ()


def run_task(task: WorkloadTask,
             disk_dir: Optional[str] = None) -> WorkloadResult:
    """Execute one task in a fresh session (top-level: pool-importable).

    Each worker gets its own in-memory cache; when the parent session has
    a disk layer the worker shares it, so stage artifacts computed in
    workers warm future runs of any process.
    """
    from .cache import ArtifactCache
    from .session import ProfilingSession

    session = ProfilingSession(cache=ArtifactCache(disk_dir=disk_dir),
                               backend=task.backend,
                               verify_plans=task.verify_plans,
                               profilers=task.profilers)
    return session.run_workload(task.workload, task.scale,
                                config=task.config,
                                techniques=task.techniques,
                                hot_threshold=task.hot_threshold)


def _run_task_payload(payload: tuple[WorkloadTask, Optional[str], int, int]
                      ) -> WorkloadResult:
    task, disk_dir, index, attempt = payload
    faults.on_task_start(index, attempt)
    return run_task(task, disk_dir)


def new_pool(max_workers: int) -> Optional[ProcessPoolExecutor]:
    """A started process pool, or ``None`` when none can run here.

    Probes the pool with one trivial task so sandboxes where pool
    creation succeeds but worker spawning cannot (broken semaphores)
    fail fast instead of on the first real task.
    """
    pool = None
    try:
        pool = ProcessPoolExecutor(max_workers=max_workers)
        pool.submit(int).result(timeout=60)
        return pool
    except Exception:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        return None


class _TaskState:
    """Supervisor-side bookkeeping for one task."""

    __slots__ = ("index", "task", "attempts", "started_at", "ready_at")

    def __init__(self, index: int, task: WorkloadTask):
        self.index = index
        self.task = task
        self.attempts = 0            # attempts actually begun
        self.started_at: Optional[float] = None  # running-observed time
        self.ready_at = 0.0          # backoff gate for the next submit

    @property
    def name(self) -> str:
        return self.task.workload.name


class ParallelRunner:
    """Supervised, deterministically-ordered pool map over workload tasks.

    Parameters
    ----------
    jobs:
        Worker processes (1 = serial, no pool).
    disk_dir:
        Shared on-disk artifact cache directory for workers.
    timeout:
        Per-task wall-clock limit in seconds (``None`` = unlimited),
        measured from when the task is observed running.  A timed-out
        attempt is abandoned (its eventual result ignored) and retried.
    retries:
        Extra attempts per task after its first (pool attempts only; the
        final inline fallback is not counted here).
    backoff:
        Base backoff delay; attempt ``n`` waits ``backoff * 2**(n-1)``.

    A single-task run short-circuits to the serial path: no pool is
    worth spawning for a suite of one.  Only suite runs use the
    supervisor; the profiling service keeps its own long-lived pool
    and retry policy (:mod:`repro.service.service`).
    """

    _TICK = 0.05  # supervisor poll granularity (seconds)

    def __init__(self, jobs: int = 1,
                 disk_dir: Optional[Path | str] = None,
                 timeout: Optional[float] = None, retries: int = 2,
                 backoff: float = 0.25):
        self.jobs = max(1, int(jobs))
        self.disk_dir = str(disk_dir) if disk_dir is not None else None
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.report = SuiteExecutionReport()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(self, tasks: Sequence[WorkloadTask]) -> list[WorkloadResult]:
        """Results in task order; per-task status lands in ``report``."""
        tasks = list(tasks)
        self.report = SuiteExecutionReport()
        if not tasks:
            return []
        results: dict[int, WorkloadResult] = {}
        if self.jobs <= 1 or len(tasks) == 1:
            for i, task in enumerate(tasks):
                results[i] = self._finish(
                    i, task, run_task(task, self.disk_dir),
                    attempts=1, where="serial")
            return [results[i] for i in range(len(tasks))]

        pooled, inline = self._partition(tasks)
        if pooled:
            self._run_pool(tasks, pooled, results)
        for i in inline:
            results[i] = self._run_inline(i, tasks[i])
        return [results[i] for i in range(len(tasks))]

    # ------------------------------------------------------------------
    # Task partitioning and inline execution
    # ------------------------------------------------------------------

    def _partition(self, tasks: Sequence[WorkloadTask]
                   ) -> tuple[list[int], list[int]]:
        """Per-task picklability: only unshippable tasks leave the pool."""
        pooled: list[int] = []
        inline: list[int] = []
        for i, task in enumerate(tasks):
            if self._picklable(task):
                pooled.append(i)
            else:
                inline.append(i)
                record = self._record(task)
                record.failures.append(TaskFailure(
                    "unpicklable", task.workload.name, i, 0,
                    "ad-hoc workload cannot cross a process boundary"))
                record.degradations.append(faults.DegradationEvent(
                    "inline-fallback", task.workload.name,
                    "unpicklable task runs in the parent process"))
        return pooled, inline

    def _run_inline(self, index: int, task: WorkloadTask,
                    attempts: int = 1) -> WorkloadResult:
        return self._finish(index, task, run_task(task, self.disk_dir),
                            attempts=attempts, where="inline")

    def _record(self, task: WorkloadTask) -> ExecutionRecord:
        name = task.workload.name
        record = self.report.records.get(name)
        if record is None:
            record = ExecutionRecord()
            self.report.records[name] = record
        return record

    def _finish(self, index: int, task: WorkloadTask,
                result: WorkloadResult, attempts: int,
                where: str) -> WorkloadResult:
        """Merge supervisor bookkeeping into the result's record."""
        record = self._record(task)
        record.attempts = max(attempts, 1)
        record.where = where
        # Degradations the worker recorded (codegen fallback, cache
        # quarantine) arrived on the result; keep them after the
        # supervisor-level ones.
        record.degradations = record.degradations + [
            d for d in result.execution.degradations
            if d not in record.degradations]
        result.execution.attempts = record.attempts
        result.execution.where = where
        result.execution.failures = list(record.failures)
        result.execution.degradations = list(record.degradations)
        self.report.records[task.workload.name] = result.execution
        return result

    # ------------------------------------------------------------------
    # The supervised pool
    # ------------------------------------------------------------------

    def _run_pool(self, tasks: Sequence[WorkloadTask], pooled: list[int],
                  results: dict[int, WorkloadResult]) -> None:
        states = {i: _TaskState(i, tasks[i]) for i in pooled}
        max_workers = min(self.jobs, len(pooled))
        pool = new_pool(max_workers)
        if pool is None:
            # No usable pool at all (sandbox without semaphores, fd
            # exhaustion, ...): everything runs inline, recorded.
            for i in pooled:
                self._record(tasks[i]).degradations.append(
                    faults.DegradationEvent(
                        "pool-degraded", tasks[i].workload.name,
                        "process pool unavailable; running inline"))
                results[i] = self._run_inline(i, tasks[i])
            return

        futures: dict[Future, int] = {}
        abandoned: list[Future] = []  # timed-out attempts, result ignored
        queue: list[int] = list(pooled)  # indexes awaiting (re)submission
        try:
            while queue or futures:
                now = time.monotonic()
                crashed = self._submit_ready(pool, states, queue, futures,
                                             now)
                if not futures and not crashed:
                    if queue:  # everything is backoff-gated; wait it out
                        time.sleep(self._TICK)
                        continue
                    break
                done: set[Future] = set()
                if futures:
                    done, _ = futures_wait(set(futures), timeout=self._TICK,
                                           return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures.pop(future)
                    crashed |= self._collect(future, states[index], results,
                                             queue)
                if crashed:
                    pool = self._rebuild_pool(pool, max_workers, states,
                                              futures, queue, results)
                    if pool is None:
                        return  # everything finished inline
                    continue
                self._check_timeouts(states, futures, abandoned, queue,
                                     results)
                now = time.monotonic()
                for future, index in futures.items():
                    state = states[index]
                    if state.started_at is None and future.running():
                        state.started_at = now
            for index in pooled:
                assert index in results, \
                    f"supervisor lost task {index}"  # pragma: no cover
        finally:
            if pool is not None:
                # Never wait on abandoned (possibly hung) attempts.
                pool.shutdown(wait=not abandoned, cancel_futures=True)

    def _submit_ready(self, pool: ProcessPoolExecutor,
                      states: dict[int, _TaskState], queue: list[int],
                      futures: dict[Future, int], now: float) -> bool:
        """Submit every queued task whose backoff gate has passed."""
        remaining: list[int] = []
        crashed = False
        for index in queue:
            state = states[index]
            if crashed or state.ready_at > now:
                remaining.append(index)
                continue
            payload = (state.task, self.disk_dir, index, state.attempts)
            try:
                future = pool.submit(_run_task_payload, payload)
            except Exception:  # pool already broken
                crashed = True
                remaining.append(index)
                continue
            state.attempts += 1
            state.started_at = None
            futures[future] = index
        queue[:] = remaining
        return crashed

    def _collect(self, future: Future, state: _TaskState,
                 results: dict[int, WorkloadResult],
                 queue: list[int]) -> bool:
        """Fold one finished future in; True when the pool collapsed."""
        record = self._record(state.task)
        try:
            result = future.result()
        except BrokenProcessPool as exc:
            record.failures.append(TaskFailure(
                "worker-crash", state.name, state.index,
                state.attempts - 1, str(exc) or "process pool collapsed",
                self._elapsed(state)))
            self._requeue_or_fallback(state, results, queue)
            return True
        except Exception as exc:
            record.failures.append(TaskFailure(
                "exception", state.name, state.index, state.attempts - 1,
                f"{type(exc).__name__}: {exc}", self._elapsed(state)))
            self._requeue_or_fallback(state, results, queue)
            return False
        results[state.index] = self._finish(
            state.index, state.task, result, attempts=state.attempts,
            where="pool")
        return False

    def _elapsed(self, state: _TaskState) -> float:
        if state.started_at is None:
            return 0.0
        return time.monotonic() - state.started_at

    def _requeue_or_fallback(self, state: _TaskState,
                             results: dict[int, WorkloadResult],
                             queue: list[int]) -> None:
        """Bounded retry with backoff, then the inline fallback."""
        record = self._record(state.task)
        if state.attempts <= self.retries:
            delay = self.backoff * (2 ** (state.attempts - 1))
            state.ready_at = time.monotonic() + delay
            queue.append(state.index)
            return
        record.degradations.append(faults.DegradationEvent(
            "inline-fallback", state.name,
            f"{self.retries + 1} pool attempt(s) failed; "
            "running in the parent process"))
        try:
            results[state.index] = self._run_inline(
                state.index, state.task, attempts=state.attempts)
        except Exception as exc:
            record.failures.append(TaskFailure(
                "exception", state.name, state.index, state.attempts,
                f"inline fallback failed: {type(exc).__name__}: {exc}"))
            raise SuiteExecutionError(state.name,
                                      list(record.failures)) from exc

    def _check_timeouts(self, states: dict[int, _TaskState],
                        futures: dict[Future, int],
                        abandoned: list[Future], queue: list[int],
                        results: dict[int, WorkloadResult]) -> None:
        if self.timeout is None:
            return
        now = time.monotonic()
        for future, index in list(futures.items()):
            state = states[index]
            if state.started_at is None \
                    or now - state.started_at <= self.timeout:
                continue
            del futures[future]
            if not future.cancel():
                # Already running: the worker keeps chewing, but its
                # eventual result is ignored (the retry's wins; both are
                # deterministic, so either copy would be identical).
                abandoned.append(future)
            self._record(state.task).failures.append(TaskFailure(
                "timeout", state.name, index, state.attempts - 1,
                f"exceeded {self.timeout:.1f}s wall clock",
                now - state.started_at))
            self._requeue_or_fallback(state, results, queue)

    def _rebuild_pool(self, pool: ProcessPoolExecutor, max_workers: int,
                      states: dict[int, _TaskState],
                      futures: dict[Future, int], queue: list[int],
                      results: dict[int, WorkloadResult]
                      ) -> Optional[ProcessPoolExecutor]:
        """Replace a collapsed pool; only unfinished tasks reschedule.

        Futures that were in flight when the pool died are all doomed
        (``BrokenProcessPool``); their tasks go back on the queue without
        an attempt charge -- their work never ran to completion and the
        actual crasher was already charged by :meth:`_collect`.
        """
        self.report.pool_rebuilds += 1
        for future, index in list(futures.items()):
            del futures[future]
            state = states[index]
            # The attempt never finished; let the resubmission reuse it.
            state.attempts = max(0, state.attempts - 1)
            if index not in queue and index not in results:
                queue.append(index)
        pool.shutdown(wait=False, cancel_futures=True)
        fresh = new_pool(max_workers)
        if fresh is None:
            for index in list(queue):
                state = states[index]
                self._record(state.task).degradations.append(
                    faults.DegradationEvent(
                        "pool-degraded", state.name,
                        "pool could not be rebuilt; running inline"))
                results[index] = self._run_inline(
                    index, state.task, attempts=state.attempts + 1)
            queue.clear()
        return fresh

    @staticmethod
    def _picklable(task: WorkloadTask) -> bool:
        """Ad-hoc workloads (lambda sources, locally-defined factories)
        cannot cross a process boundary; those run inline."""
        try:
            pickle.dumps(task)
            return True
        except Exception:
            return False
