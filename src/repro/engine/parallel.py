"""Fault-tolerant worker-pool fan-out for independent workloads.

Every workload in a suite run is independent (the methodology is
per-benchmark), so cold workloads fan out over one
:class:`~repro.engine.workers.WorkerPool`.  Results are reassembled in
task order, so suite output does not depend on which worker finishes
first.  Each pooled task runs its retry ladder in one of
``min(jobs, tasks)`` threads: attempts in a worker, each bounded by the
optional **timeout**, with :func:`~repro.engine.workers.backoff_delay`
between them, up to **retries** more.  A task that exhausts its retries,
or cannot be pickled, runs **inline** in the parent (a degradation
event); failing there raises :class:`SuiteExecutionError`.

Attempts, failures, degradations and replaced workers land in
``runner.report`` (a :class:`~repro.engine.results.SuiteExecutionReport`)
and in each result's ``execution`` record.  Workers share the parent's
on-disk cache directory, whose writes are atomic and checksummed.
"""

from __future__ import annotations

import pickle
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from ..workloads import Workload
from . import faults
from .cache import ArtifactCache
from .results import (ExecutionRecord, SuiteExecutionReport, TECHNIQUES,
                      TaskFailure, WorkloadResult)
from .session import NO_STUDIES, ProfilingSession, StudyRequests
from .workers import PoolUnavailable, WorkerFault, WorkerPool, backoff_delay

__all__ = ["ParallelRunner", "SuiteExecutionError", "WorkloadTask",
           "run_task"]


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
    techniques: tuple[str, ...] = TECHNIQUES
    # None lets the worker resolve REPRO_BACKEND itself; sessions always
    # pass their already-resolved backend so parent and workers agree.
    backend: Optional[str] = None
    verify_plans: bool = False
    # Extra registry profilers to run alongside the pipeline (names).
    profilers: tuple[str, ...] = ()
    # What the parent's studies will ask of the workload (its build
    # serves it; the results travel back in ``WorkloadResult.handoff``).
    studies: StudyRequests = NO_STUDIES


def run_task(task: WorkloadTask,
             disk_dir: Optional[str] = None) -> WorkloadResult:
    """Execute one task in a fresh session (top-level: pool-importable).

    Each worker gets its own in-memory cache; when the parent session has
    a disk layer the worker shares it, so stage artifacts computed in
    workers warm future runs of any process.
    """
    session = ProfilingSession(cache=ArtifactCache(disk_dir=disk_dir),
                               backend=task.backend,
                               verify_plans=task.verify_plans,
                               profilers=task.profilers)
    result = session.run_workload(task.workload, task.scale,
                                  techniques=task.techniques,
                                  studies=task.studies)
    result.handoff = session.handoff
    return result


class ParallelRunner:
    """Supervised, deterministically-ordered pool map over workload tasks.

    Parameters
    ----------
    jobs:
        Worker processes (1 = serial, no pool).
    disk_dir:
        Shared on-disk artifact cache directory for workers.
    timeout:
        Per-attempt wall-clock limit in seconds (``None`` = unlimited).
        A timed-out attempt kills its worker and is retried.
    retries:
        Extra attempts per task after its first (pool attempts only; the
        final inline fallback is not counted here).
    backoff:
        Base of the :func:`~repro.engine.workers.backoff_delay` ladder.

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
        self._inline = threading.Lock()  # one parent-process run at a time

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
        if pooled:
            from concurrent.futures import ThreadPoolExecutor

            pool = WorkerPool(min(self.jobs, len(pooled)))
            try:
                with ThreadPoolExecutor(pool.jobs) as threads:
                    results.update(zip(pooled, threads.map(
                        lambda i: self._run_pooled(pool, tasks[i], i),
                        pooled)))
            finally:
                pool.close()
                self.report.pool_rebuilds = pool.replaced
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
        with self._inline:
            return self._finish(task, run_task(task, self.disk_dir),
                                attempts, "inline")

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

    def _run_pooled(self, pool: WorkerPool, task: WorkloadTask,
                    index: int) -> WorkloadResult:
        """One task's retry ladder (module docstring)."""
        record = self._record(task)
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(backoff_delay(self.backoff, attempt,
                                         ordinal=index))
            started = time.monotonic()
            try:
                result = pool.call(run_task, (task, self.disk_dir),
                                   ordinal=index, attempt=attempt,
                                   timeout=self.timeout)
            except PoolUnavailable:
                # No worker can start here (no fork, fd exhaustion, ...).
                record.degradations.append(faults.DegradationEvent(
                    "pool-degraded", task.workload.name,
                    "no worker process could start; running inline"))
                return self._run_inline(task, attempt + 1)
            except Exception as exc:
                kind, detail = ((exc.kind, str(exc))
                                if isinstance(exc, WorkerFault) else
                                ("exception", f"{type(exc).__name__}: {exc}"))
                record.failures.append(TaskFailure(
                    kind, task.workload.name, index, attempt, detail,
                    time.monotonic() - started))
                continue
            return self._finish(task, result, attempt + 1, "pool")
        record.degradations.append(faults.DegradationEvent(
            "inline-fallback", task.workload.name,
            f"{self.retries + 1} pool attempt(s) failed; "
            "running in the parent process"))
        try:
            return self._run_inline(task, self.retries + 1)
        except Exception as exc:
            record.failures.append(TaskFailure(
                "exception", task.workload.name, index, self.retries + 1,
                f"inline fallback failed: {type(exc).__name__}: {exc}"))
            raise SuiteExecutionError(task.workload.name,
                                      list(record.failures)) from exc
