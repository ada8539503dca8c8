"""Bounded admission with per-tenant quotas and explicit backpressure.

The service never buffers unboundedly: every request must pass
:meth:`AdmissionQueue.admit` before it is journaled or queued, and the
admit either succeeds (reserving one slot until the request's terminal
response releases it) or raises :class:`AdmissionError` carrying an
explicit ``retry_after_s`` hint -- the caller is told to come back, not
silently parked.  Two limits apply:

* ``capacity`` -- total outstanding (queued + in-flight) requests across
  all tenants; protects the service.
* ``tenant_quota`` -- outstanding requests per tenant; protects tenants
  from each other (one noisy tenant cannot starve the rest).

The queue itself is a ready-time heap so service-level retry backoff is
just a re-push with a future ``ready_at``; dispatcher shards block in
:meth:`pop` until the earliest entry matures.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = ["AdmissionError", "AdmissionLimits", "AdmissionQueue"]


@dataclass(frozen=True)
class AdmissionLimits:
    """The two admission bounds (see module docstring)."""

    capacity: int = 64
    tenant_quota: int = 8


class AdmissionError(RuntimeError):
    """Backpressure: the request was rejected, retry after a delay."""

    def __init__(self, reason: str, retry_after_s: float,
                 detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason
        self.retry_after_s = retry_after_s


class AdmissionQueue:
    """Quota-guarded slots plus a ready-time priority queue.

    ``latency_hint`` supplies the service's recent average request
    latency so the ``retry_after_s`` in rejections scales with how
    loaded the service actually is instead of being a fixed constant.
    """

    def __init__(self, limits: AdmissionLimits = AdmissionLimits(),
                 shards: int = 1,
                 latency_hint: Optional[Callable[[], float]] = None) -> None:
        self.limits = limits
        self.shards = max(1, shards)
        self._latency_hint = latency_hint
        self._outstanding: dict[str, int] = {}
        self._total = 0
        self._heap: list[tuple[float, int, Any]] = []
        self._seq = itertools.count()
        self._cond = asyncio.Condition()
        self.admitted = 0
        self.rejected = 0

    # -- slot accounting ------------------------------------------------

    def outstanding(self) -> int:
        return self._total

    def suggest_retry_after(self) -> float:
        latency = 0.25
        if self._latency_hint is not None:
            latency = max(0.05, self._latency_hint())
        backlog = self._total / self.shards
        return round(max(0.05, latency * (1.0 + backlog)), 3)

    def admit(self, tenant: str) -> None:
        """Reserve one slot for ``tenant`` or raise :class:`AdmissionError`."""
        if self._total >= self.limits.capacity:
            self.rejected += 1
            raise AdmissionError(
                "capacity", self.suggest_retry_after(),
                f"service at capacity ({self.limits.capacity} outstanding)")
        held = self._outstanding.get(tenant, 0)
        if held >= self.limits.tenant_quota:
            self.rejected += 1
            raise AdmissionError(
                "tenant-quota", self.suggest_retry_after(),
                f"tenant {tenant!r} at quota "
                f"({self.limits.tenant_quota} outstanding)")
        self._outstanding[tenant] = held + 1
        self._total += 1
        self.admitted += 1

    def release(self, tenant: str) -> None:
        """Give back ``tenant``'s slot once its response is terminal."""
        held = self._outstanding.get(tenant, 0)
        if held <= 1:
            self._outstanding.pop(tenant, None)
        else:
            self._outstanding[tenant] = held - 1
        self._total = max(0, self._total - 1)

    # -- ready-time queue -----------------------------------------------

    def depth(self) -> int:
        """Entries waiting to be popped (excludes in-flight work)."""
        return len(self._heap)

    async def push(self, item: Any, ready_at: float = 0.0) -> None:
        async with self._cond:
            heapq.heappush(self._heap, (ready_at, next(self._seq), item))
            self._cond.notify_all()

    async def pop(self) -> Any:
        """Wait for (and remove) the earliest entry whose time has come."""
        async with self._cond:
            while True:
                now = time.monotonic()
                if self._heap and self._heap[0][0] <= now:
                    return heapq.heappop(self._heap)[2]
                timeout = self._heap[0][0] - now if self._heap else None
                try:
                    await asyncio.wait_for(self._cond.wait(), timeout)
                except asyncio.TimeoutError:
                    continue
