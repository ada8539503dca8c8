"""Fault-tolerant process-pool fan-out for independent workloads.

Every workload in a suite run is independent (the methodology is
per-benchmark), so cold workloads fan out over a process pool under a
small supervisor:

* results are reassembled in task order, so suite output does not
  depend on which worker finishes first;
* at most ``jobs`` attempts are in flight, so an attempt starts when it
  is submitted and its optional **timeout** counts from there; failed
  attempts get bounded **retries** with exponential backoff;
* the pool-failure rule the profiling service also follows: a **worker
  crash** or a **timeout** retires the pool.  Attempts still running on
  it are collected, never re-run; attempts it never started are
  resubmitted uncharged; the next submission builds a fresh pool;
* a task that exhausts its retries, or cannot be pickled, runs
  **inline** in the parent (a degradation event); failing there after
  its retries raises :class:`SuiteExecutionError`.

Attempts, failures, degradations and pool retirements land in
``runner.report`` (a :class:`~repro.engine.results.SuiteExecutionReport`)
and in each result's ``execution`` record.  Workers share the parent's
on-disk cache directory, whose writes are atomic and checksummed.
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


class ParallelRunner:
    """Supervised, deterministically-ordered pool map over workload tasks.

    Parameters
    ----------
    jobs:
        Worker processes (1 = serial, no pool).
    disk_dir:
        Shared on-disk artifact cache directory for workers.
    timeout:
        Per-attempt wall-clock limit in seconds (``None`` = unlimited),
        counted from submission.  A timed-out attempt retires the pool
        and is retried.
    retries:
        Extra attempts per task after its first (pool attempts only; the
        final inline fallback is not counted here).
    backoff:
        Base backoff delay; attempt ``n`` waits ``backoff * 2**(n-1)``.

    A single-task run short-circuits to the serial path: no pool is
    worth spawning for a suite of one.
    """

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

    def run(self, tasks: Sequence[WorkloadTask]) -> list[WorkloadResult]:
        """Results in task order; per-task status lands in ``report``."""
        tasks = list(tasks)
        self.report = SuiteExecutionReport()
        if not tasks:
            return []
        if self.jobs <= 1 or len(tasks) == 1:
            return [self._finish(task, run_task(task, self.disk_dir), 1,
                                 "serial") for task in tasks]
        results: dict[int, WorkloadResult] = {}
        pooled, inline = self._partition(tasks)
        self._run_pool(tasks, pooled, results)
        for i in inline:
            results[i] = self._run_inline(tasks[i])
        return [results[i] for i in range(len(tasks))]

    def _partition(self, tasks: Sequence[WorkloadTask]
                   ) -> tuple[list[int], list[int]]:
        """Per-task picklability: only unshippable tasks (ad-hoc lambda
        sources, locally-defined factories) leave the pool."""
        pooled: list[int] = []
        inline: list[int] = []
        for i, task in enumerate(tasks):
            try:
                pickle.dumps(task)
            except Exception:
                inline.append(i)
                record = self._record(task)
                record.failures.append(TaskFailure(
                    "unpicklable", task.workload.name, i, 0,
                    "ad-hoc workload cannot cross a process boundary"))
                record.degradations.append(faults.DegradationEvent(
                    "inline-fallback", task.workload.name,
                    "unpicklable task runs in the parent process"))
                continue
            pooled.append(i)
        return pooled, inline

    def _run_inline(self, task: WorkloadTask,
                    attempts: int = 1) -> WorkloadResult:
        return self._finish(task, run_task(task, self.disk_dir), attempts,
                            "inline")

    def _record(self, task: WorkloadTask) -> ExecutionRecord:
        return self.report.records.setdefault(task.workload.name,
                                              ExecutionRecord())

    def _finish(self, task: WorkloadTask, result: WorkloadResult,
                attempts: int, where: str) -> WorkloadResult:
        """Merge supervisor bookkeeping into the result's record."""
        record = self._record(task)
        execution = result.execution
        # Degradations the worker recorded (codegen fallback, cache
        # quarantine) follow the supervisor-level ones.
        execution.degradations = record.degradations + [
            d for d in execution.degradations
            if d not in record.degradations]
        execution.attempts = max(attempts, 1)
        execution.where = where
        execution.failures = list(record.failures)
        self.report.records[task.workload.name] = execution
        return result

    def _run_pool(self, tasks: Sequence[WorkloadTask], pooled: list[int],
                  results: dict[int, WorkloadResult]) -> None:
        """The pool-failure rule (module docstring): one ``wait`` per
        loop, until the nearest attempt deadline or backoff gate."""
        width = min(self.jobs, len(pooled))
        attempts = dict.fromkeys(pooled, 0)  # pool attempts begun
        gate = dict.fromkeys(pooled, 0.0)    # backoff: not sooner than
        queue = list(pooled)                 # awaiting (re)submission
        # In-flight attempt -> (task index, submit time, owning pool).
        flight: dict[Future, tuple[int, float, ProcessPoolExecutor]] = {}
        pool: Optional[ProcessPoolExecutor] = None

        def retire() -> None:
            nonlocal pool
            for future, (index, _submitted, owner) in list(flight.items()):
                if owner is pool and future.cancel():  # never started
                    del flight[future]
                    attempts[index] -= 1
                    queue.append(index)
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None
            self.report.pool_rebuilds += 1

        def fail(index: int, kind: str, detail: str,
                 elapsed: float) -> None:
            task, attempt = tasks[index], attempts[index]
            record = self._record(task)
            record.failures.append(TaskFailure(
                kind, task.workload.name, index, attempt - 1, detail,
                elapsed))
            if attempt <= self.retries:
                delay = self.backoff * 2 ** (attempt - 1)
                gate[index] = time.monotonic() + delay
                queue.append(index)
                return
            record.degradations.append(faults.DegradationEvent(
                "inline-fallback", task.workload.name,
                f"{self.retries + 1} pool attempt(s) failed; "
                "running in the parent process"))
            try:
                results[index] = self._run_inline(task, attempt)
            except Exception as exc:
                record.failures.append(TaskFailure(
                    "exception", task.workload.name, index, attempt,
                    f"inline fallback failed: {type(exc).__name__}: {exc}"))
                raise SuiteExecutionError(task.workload.name,
                                          list(record.failures)) from exc

        def degrade() -> None:
            # No usable pool (sandbox without semaphores, fd exhaustion,
            # ...): every queued task runs inline, recorded.
            for index in sorted(queue):
                self._record(tasks[index]).degradations.append(
                    faults.DegradationEvent(
                        "pool-degraded", tasks[index].workload.name,
                        "process pool unavailable; running inline"))
                results[index] = self._run_inline(tasks[index],
                                                  attempts[index] + 1)
            queue.clear()

        try:
            while queue or flight:
                now = time.monotonic()
                for index in [i for i in queue if gate[i] <= now]:
                    if len(flight) >= width:
                        break
                    if pool is None and (pool := new_pool(width)) is None:
                        degrade()
                        break
                    try:
                        future = pool.submit(_run_task_payload, (
                            tasks[index], self.disk_dir, index,
                            attempts[index]))
                    except BrokenProcessPool:  # broke since the last wait
                        retire()
                        break
                    queue.remove(index)
                    attempts[index] += 1
                    flight[future] = (index, now, pool)
                if not (queue or flight):
                    break  # the degraded path ran the rest inline
                wakeups = [t + self.timeout for _i, t, _p in flight.values()
                           if self.timeout is not None]
                if len(flight) < width:
                    wakeups += [gate[i] for i in queue]
                done, _ = futures_wait(
                    list(flight), return_when=FIRST_COMPLETED,
                    timeout=max(0.0, min(wakeups) - now) if wakeups
                    else None)
                # Retire before ``fail``: if its inline fallback raises, the
                # ``finally`` must not wait on a hung worker.  A future that
                # ``retire`` cancelled reads as done below.
                now = time.monotonic()
                for future in done:
                    index, submitted, owner = flight.pop(future)
                    try:
                        result = future.result()
                    except Exception as exc:
                        crash = isinstance(exc, BrokenProcessPool)
                        if crash and owner is pool:
                            retire()
                        fail(index, "worker-crash" if crash else "exception",
                             f"{type(exc).__name__}: {exc}", now - submitted)
                    else:
                        results[index] = self._finish(
                            tasks[index], result, attempts[index], "pool")
                for future, (index, submitted, owner) in list(flight.items()):
                    if self.timeout is not None and not future.done() \
                            and now - submitted >= self.timeout:
                        # The hung worker keeps its slot on the retired pool.
                        del flight[future]
                        if owner is pool:
                            retire()
                        fail(index, "timeout",
                             f"exceeded {self.timeout:.1f}s wall clock",
                             now - submitted)
        finally:
            if pool is not None:
                pool.shutdown(wait=not flight, cancel_futures=True)
