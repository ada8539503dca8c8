"""The fault-tolerant, multi-tenant continuous profiling service.

:class:`ProfilingService` is the in-process object behind ``repro
serve``: an asyncio ingestion front-end whose dispatcher shards pull
admitted requests off a bounded queue and execute them on one
:class:`~repro.engine.workers.WorkerPool` that the service owns from
``start()`` to ``stop()``.  Tests and embedded clients drive it
directly (no sockets); the TCP JSON-lines wrapper lives in
:mod:`repro.service.server`.

A request's life:

1. **Admission** -- quota/capacity check (explicit backpressure,
   :class:`~repro.service.admission.AdmissionError` with a retry-after
   hint on rejection), then a durable write-ahead journal ``accept``
   record *before* the request is queued, so a crash cannot lose
   accepted work.
2. **Dispatch** -- a shard pops the request and runs it on the worker
   pool under the circuit breaker, bounded by the smaller of
   ``task_timeout`` and the request's remaining deadline.  A timeout
   kills that one worker and a crash loses only its own; either way
   the slot respawns on next use while peers keep running.  Failures
   (worker crash, timeout, exception, chaos drop) retry on the
   :func:`~repro.engine.workers.backoff_delay` ladder, keyed by the
   service's ``seed`` and the request's ordinal, while budget remains.
3. **Degrade** -- when fresh profiling is unavailable (breaker open,
   deadline too tight or expired, retries exhausted) and the tenant has
   a previously-fresh profile for the same key, the service answers
   with a conservation-repaired stale remap
   (:func:`~repro.analysis.transfer.remap_edge_profile`), flagged with
   a ``stale-remap`` :class:`~repro.engine.faults.DegradationEvent` --
   never silently.
4. **Resolution** -- the journal gets a ``done`` record, the admission
   slot is released, and the caller's future resolves with a
   :class:`~repro.service.api.ServiceResponse`.

On restart the journal is replayed: accepted-but-unanswered requests
are re-admitted (flagged ``journal-recovered``) before new traffic is
accepted.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, AsyncIterator, Callable, Iterable, Optional,
                    Union)

from ..engine.faults import DegradationEvent
from ..engine.results import ExecutionRecord, TaskFailure
from ..engine.workers import (PoolUnavailable, WorkerFault, WorkerPool,
                              backoff_delay)
from ..engine import faults
from ..ir.function import Module
from ..profiles import EdgeProfile, PathProfile
from .admission import AdmissionError, AdmissionLimits, AdmissionQueue
from .api import (JobOutcome, ProfileJob, ProfileRequest, ServiceError,
                  ServiceResponse)
from .breaker import CircuitBreaker
from .journal import WriteAheadJournal
from .metrics import ServiceMetrics

__all__ = ["ProfilingService"]

_StaleEntry = tuple[Module, EdgeProfile, Optional[PathProfile]]
Executor = Callable[[ProfileJob], JobOutcome]

#: Consecutive dispatch failures that open the worker pool's breaker.
BREAKER_THRESHOLD = 3


@dataclass
class _Entry:
    """One admitted request's dispatcher state."""

    request: ProfileRequest
    ordinal: int
    future: "asyncio.Future[ServiceResponse]"
    admitted_at: float
    deadline_at: Optional[float] = None
    attempts: int = 0
    replayed: bool = False
    failures: list[TaskFailure] = field(default_factory=list)


class ProfilingService:
    """Long-lived multi-tenant profiling front-end (see module docs).

    Every dispatch runs :meth:`ProfileJob.run` on one worker pool of
    ``jobs`` workers, made in :meth:`start` and closed in :meth:`stop`;
    ``task_timeout`` counts from the dispatch, waiting for a free worker
    included.  When no worker can start, jobs run in a thread, flagged
    ``pool-degraded``, and the pool is tried again at most once per
    ``breaker_reset_s``.  :data:`BREAKER_THRESHOLD` consecutive dispatch
    failures open the breaker.

    ``executor`` is a test seam: it replaces the pool with a plain
    callable ``ProfileJob -> JobOutcome`` (run in a thread).
    """

    def __init__(self, jobs: int = 2, shards: int = 2,
                 queue_capacity: int = 64, tenant_quota: int = 8,
                 retries: int = 2, backoff_s: float = 0.1,
                 task_timeout: Optional[float] = None,
                 breaker_reset_s: float = 1.0,
                 min_fresh_s: float = 0.0,
                 journal_path: Optional[Union[str, Path]] = None,
                 cache_dir: Optional[Union[str, Path]] = None,
                 backend: Optional[str] = None, seed: int = 0,
                 executor: Optional[Executor] = None,
                 on_response: Optional[
                     Callable[[ServiceResponse], None]] = None) -> None:
        self.jobs = max(1, jobs)
        self.shards = max(1, shards)
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        self.task_timeout = task_timeout
        self.min_fresh_s = min_fresh_s
        self.journal_path = Path(journal_path) if journal_path else None
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.backend = backend
        self._executor = executor
        # Observability hook: called with every terminal response,
        # including replayed requests whose original submitter is gone.
        self._on_response = on_response
        self.seed = seed
        self.metrics = ServiceMetrics()
        self.breaker = CircuitBreaker(fail_threshold=BREAKER_THRESHOLD,
                                      reset_after_s=breaker_reset_s)
        self._admission = AdmissionQueue(
            AdmissionLimits(capacity=queue_capacity,
                            tenant_quota=tenant_quota),
            shards=self.shards, latency_hint=self.metrics.avg_latency)
        self._stale: dict[tuple[str, str], _StaleEntry] = {}
        self._ordinals = itertools.count()
        self._journal: Optional[WriteAheadJournal] = None
        self._pool: Optional[WorkerPool] = None
        self._pool_retry_at = 0.0
        self._workers: list["asyncio.Task[None]"] = []
        self._started = False
        self._closing = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "ProfilingService":
        """Make the pool, replay the journal (if any), start shards."""
        if self._started:
            return self
        self._started = True
        self._closing = False
        if self._executor is None:
            self._pool = WorkerPool(self.jobs)
        if self.journal_path is not None:
            await self._replay_journal()
        self._workers = [asyncio.create_task(self._worker(),
                                             name=f"repro-shard-{i}")
                         for i in range(self.shards)]
        return self

    async def _replay_journal(self) -> None:
        assert self.journal_path is not None
        scan = WriteAheadJournal.scan(self.journal_path)
        pending = scan.pending()
        self.metrics.journal_corrupt += scan.corrupt
        self.metrics.journal_torn += scan.torn
        self._journal = WriteAheadJournal(self.journal_path)
        self._journal.reset()
        for doc in pending:
            request = doc.get("request")
            if not isinstance(request, ProfileRequest):
                continue
            try:
                await self.submit(request, _replayed=True)
            except (AdmissionError, ServiceError):
                continue
            self.metrics.journal_replayed += 1

    async def stop(self, drain: bool = True) -> None:
        """Stop the service; with ``drain`` answer all admitted work first."""
        self._closing = True
        if drain:
            while self._admission.outstanding() > 0:
                await asyncio.sleep(0.02)
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._journal is not None:
            self._journal.close()
        self._started = False

    async def __aenter__(self) -> "ProfilingService":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    async def submit(self, request: ProfileRequest, *,
                     _replayed: bool = False
                     ) -> "asyncio.Future[ServiceResponse]":
        """Admit one request; resolves to its terminal response.

        Raises :class:`~repro.service.admission.AdmissionError` (with a
        ``retry_after_s`` hint) under backpressure, or
        :class:`~repro.service.api.ServiceError` for invalid requests
        and a stopped service.
        """
        if not self._started or self._closing:
            raise ServiceError("service is not accepting requests")
        request.validate()
        request = request.with_id()
        try:
            self._admission.admit(request.tenant)
        except AdmissionError:
            self.metrics.tenant(request.tenant).rejected += 1
            raise
        if self._journal is not None:
            try:
                self._journal.accept(request.request_id,
                                     {"request": request})
            except Exception as exc:
                self._admission.release(request.tenant)
                raise ServiceError(f"journal append failed: {exc}") from exc
        self.metrics.tenant(request.tenant).accepted += 1
        now = time.monotonic()
        future: "asyncio.Future[ServiceResponse]" = \
            asyncio.get_running_loop().create_future()
        entry = _Entry(
            request=request, ordinal=next(self._ordinals), future=future,
            admitted_at=now, replayed=_replayed,
            deadline_at=(now + request.deadline_s
                         if request.deadline_s is not None else None))
        await self._admission.push(entry)
        return future

    async def request(self, request: ProfileRequest) -> ServiceResponse:
        """Submit and wait: the one-call client entry point."""
        return await (await self.submit(request))

    async def stream(self, requests: Iterable[ProfileRequest]
                     ) -> AsyncIterator[ServiceResponse]:
        """Submit a batch; yield responses as each completes."""
        futures = [await self.submit(request) for request in requests]
        for next_done in asyncio.as_completed(futures):
            yield await next_done

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            entry = await self._admission.pop()
            assert isinstance(entry, _Entry)
            try:
                await self._process(entry)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # defensive: a shard must not die
                self._resolve(entry, self._failed_response(
                    entry, "internal", f"{type(exc).__name__}: {exc}"))

    async def _process(self, entry: _Entry) -> None:
        now = time.monotonic()
        request = entry.request
        remaining = (entry.deadline_at - now
                     if entry.deadline_at is not None else None)
        if remaining is not None and remaining <= 0:
            self.metrics.tenant(request.tenant).deadline_misses += 1
            await self._finish_degraded(entry, "deadline",
                                        "deadline expired before dispatch")
            return
        if (remaining is not None and self.min_fresh_s > 0
                and remaining < self.min_fresh_s
                and request.allow_stale and self._has_stale(request)):
            await self._finish_degraded(
                entry, "deadline-tight",
                f"{remaining:.3f}s left < min_fresh_s={self.min_fresh_s}")
            return
        if not self.breaker.allow():
            if request.allow_stale and self._has_stale(request):
                await self._finish_degraded(entry, "breaker-open",
                                            "worker pool circuit is open")
                return
            delay = max(0.05, self.breaker.retry_after())
            if (entry.deadline_at is not None
                    and now + delay >= entry.deadline_at):
                await self._finish_degraded(entry, "breaker-open",
                                            "circuit open past deadline")
            else:
                await self._admission.push(entry, ready_at=now + delay)
            return
        attempt = entry.attempts
        entry.attempts += 1
        if faults.should_drop_request(entry.ordinal, attempt):
            self.breaker.record_failure()
            self._fail(entry, "drop", attempt, "chaos: dispatch dropped")
            await self._retry_or_degrade(entry, "dropped",
                                         "dispatch lost (chaos drop)")
            return
        job = ProfileJob(request=request, ordinal=entry.ordinal,
                         backend=self.backend)
        started = time.monotonic()
        if entry.deadline_at is not None:
            remaining = entry.deadline_at - started
        limits = [t for t in (self.task_timeout, remaining) if t is not None]
        timeout = min(limits) if limits else None
        try:
            outcome = await self._dispatch(job, attempt, timeout)
        except Exception as exc:
            self.breaker.record_failure()
            elapsed = time.monotonic() - started
            kind = exc.kind if isinstance(exc, WorkerFault) else "exception"
            if kind == "timeout" and remaining == timeout:  # the deadline's
                self.metrics.tenant(request.tenant).deadline_misses += 1
                detail = "deadline elapsed mid-dispatch"
                self._fail(entry, "timeout", attempt, f"request {detail}",
                           elapsed)
                await self._finish_degraded(entry, "deadline", detail)
                return
            detail = (f"exceeded task_timeout={self.task_timeout}s"
                      if kind == "timeout" else str(exc)
                      if kind == "worker-crash"
                      else f"{type(exc).__name__}: {exc}")
            self._fail(entry, kind, attempt, detail, elapsed)
            await self._retry_or_degrade(entry, kind, detail)
            return
        self.breaker.record_success()
        self._finish_fresh(entry, outcome)

    async def _dispatch(self, job: ProfileJob, attempt: int,
                        timeout: Optional[float]) -> JobOutcome:
        """One attempt of ``job`` on the pool; in a thread when no worker
        can start (flagged ``pool-degraded``) or under ``executor``."""
        if self._pool is not None and time.monotonic() >= self._pool_retry_at:
            try:
                outcome: JobOutcome = await asyncio.to_thread(
                    self._pool.call, job.run, (self.cache_dir,),
                    ordinal=job.ordinal, attempt=attempt, timeout=timeout)
                outcome.execution.where = "pool"
                return outcome
            except PoolUnavailable:
                self._pool_retry_at = (time.monotonic()
                                       + self.breaker.reset_after_s)
        call = (functools.partial(self._executor, job)
                if self._executor is not None
                else functools.partial(job.run, self.cache_dir))
        try:
            outcome = await asyncio.wait_for(asyncio.to_thread(call), timeout)
        except asyncio.TimeoutError:
            raise WorkerFault("timeout", f"exceeded {timeout}s") from None
        if self._executor is None:
            outcome.execution.where = "inline"
            outcome.execution.degradations.insert(0, DegradationEvent(
                "pool-degraded", job.name,
                "no worker process could start; ran in a thread"))
        return outcome

    def _fail(self, entry: _Entry, kind: str, attempt: int, detail: str,
              elapsed_s: float = 0.0) -> None:
        entry.failures.append(TaskFailure(
            kind=kind, task=self._subject(entry), index=entry.ordinal,
            attempt=attempt, detail=detail, elapsed_s=elapsed_s))

    async def _retry_or_degrade(self, entry: _Entry, reason: str,
                                detail: str) -> None:
        now = time.monotonic()
        if entry.attempts <= self.retries:
            delay = backoff_delay(self.backoff_s, entry.attempts,
                                  self.seed, entry.ordinal)
            if entry.deadline_at is None or now + delay < entry.deadline_at:
                self.metrics.tenant(entry.request.tenant).retries += 1
                await self._admission.push(entry, ready_at=now + delay)
                return
        await self._finish_degraded(entry, reason, detail)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def _has_stale(self, request: ProfileRequest) -> bool:
        return (request.tenant, request.key) in self._stale

    def _subject(self, entry: _Entry) -> str:
        return f"{entry.request.tenant}:{entry.request.request_id}"

    def _finish_fresh(self, entry: _Entry, outcome: JobOutcome) -> None:
        request = entry.request
        if (outcome.kind == "profile" and outcome.profile is not None
                and outcome.module is not None):
            self._stale[(request.tenant, request.key)] = (
                outcome.module, outcome.profile, outcome.paths)
        execution = outcome.execution
        execution.attempts = max(1, entry.attempts)
        execution.failures = entry.failures + execution.failures
        self._annotate_replay(entry, execution)
        self.metrics.tenant(request.tenant).fresh += 1
        self._resolve(entry, ServiceResponse(
            request_id=request.request_id, tenant=request.tenant,
            status="fresh", kind=outcome.kind, payload=outcome.payload,
            overhead=outcome.overhead, accuracy=outcome.accuracy,
            return_value=outcome.return_value,
            attempts=max(1, entry.attempts), execution=execution,
            profile=outcome.profile, paths=outcome.paths,
            estimated=outcome.estimated))

    async def _finish_degraded(self, entry: _Entry, reason: str,
                               detail: str) -> None:
        request = entry.request
        stale = self._stale.get((request.tenant, request.key))
        if stale is None or not request.allow_stale:
            self._resolve(entry, self._failed_response(entry, reason, detail))
            return
        try:
            response = await asyncio.to_thread(
                self._build_stale_response, entry, stale, reason, detail)
        except Exception as exc:
            self._resolve(entry, self._failed_response(
                entry, reason,
                f"{detail}; stale remap failed: {exc}"))
            return
        self.metrics.tenant(request.tenant).degraded += 1
        self._resolve(entry, response)

    def _build_stale_response(self, entry: _Entry, stale: _StaleEntry,
                              reason: str, detail: str) -> ServiceResponse:
        from ..analysis.transfer import remap_edge_profile
        from ..profiles import edge_profile_to_dict

        request = entry.request
        _old_module, old_profile, old_paths = stale
        module = ProfileJob(request=request,
                            ordinal=entry.ordinal).resolve_module()
        result = remap_edge_profile(old_profile, module, paths=old_paths)
        event = DegradationEvent(
            "stale-remap", self._subject(entry),
            f"{reason}: served conservation-repaired stale profile "
            f"({detail})")
        execution = ExecutionRecord(
            attempts=max(1, entry.attempts), where="stale",
            failures=list(entry.failures), degradations=[event])
        self._annotate_replay(entry, execution)
        return ServiceResponse(
            request_id=request.request_id, tenant=request.tenant,
            status="degraded", kind=request.kind,
            payload=edge_profile_to_dict(result.profile),
            overhead=None, accuracy=None, return_value=None,
            attempts=max(1, entry.attempts), execution=execution,
            degradation=event, profile=result.profile, paths=result.paths)

    def _failed_response(self, entry: _Entry, reason: str,
                         detail: str) -> ServiceResponse:
        request = entry.request
        execution = ExecutionRecord(attempts=max(1, entry.attempts),
                                    where="stale",
                                    failures=list(entry.failures))
        self._annotate_replay(entry, execution)
        self.metrics.tenant(request.tenant).failed += 1
        return ServiceResponse(
            request_id=request.request_id, tenant=request.tenant,
            status="failed", kind=request.kind,
            attempts=max(1, entry.attempts), execution=execution,
            error=f"{reason}: {detail}" if detail else reason)

    def _annotate_replay(self, entry: _Entry,
                         execution: ExecutionRecord) -> None:
        if entry.replayed:
            execution.degradations.insert(0, DegradationEvent(
                "journal-recovered", self._subject(entry),
                "re-admitted from the write-ahead journal after restart"))

    def _resolve(self, entry: _Entry, response: ServiceResponse) -> None:
        response.elapsed_s = time.monotonic() - entry.admitted_at
        if self._journal is not None:
            try:
                self._journal.done(entry.request.request_id, response.status)
            except OSError:
                pass  # a failing journal must not lose the response
        self._admission.release(entry.request.tenant)
        self.metrics.observe_latency(response.elapsed_s)
        if self._on_response is not None:
            self._on_response(response)
        if not entry.future.done():
            entry.future.set_result(response)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        """Liveness: the process is up and shards are running."""
        return {
            "status": "ok" if self._started and not self._closing
            else "stopping" if self._closing else "stopped",
            "shards": len(self._workers),
            "breaker": self.breaker.state,
        }

    def readyz(self) -> dict[str, Any]:
        """Readiness: will a new request be admitted right now?"""
        reason = ("not started" if not self._started
                  else "draining" if self._closing
                  else "at capacity" if self._admission.outstanding()
                  >= self._admission.limits.capacity else "")
        return {"ready": not reason, "reason": reason,
                "outstanding": self._admission.outstanding(),
                "capacity": self._admission.limits.capacity}

    def metrics_snapshot(self) -> dict[str, Any]:
        """Counters for the ``metrics`` endpoint and the chaos gate."""
        if self._journal is not None:
            self.metrics.journal_appends = self._journal.appended
        self.metrics.breaker_trips = self.breaker.trips
        snapshot = self.metrics.snapshot()
        snapshot["breaker_state"] = self.breaker.state
        snapshot["queue_depth"] = self._admission.depth()
        snapshot["outstanding"] = self._admission.outstanding()
        snapshot["stale_profiles"] = len(self._stale)
        return snapshot
