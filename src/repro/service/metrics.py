"""Service and per-tenant metrics counters.

Plain monotonic counters plus an exponentially-weighted latency average
-- enough for the ``metrics`` endpoint, the chaos gate's zero-loss
arithmetic, and the admission queue's load-scaled retry-after hints,
without dragging in a metrics library.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Any

__all__ = ["ServiceMetrics", "TenantCounters"]

_EWMA_ALPHA = 0.3


@dataclass
class TenantCounters:
    """One tenant's request accounting."""

    accepted: int = 0
    rejected: int = 0
    fresh: int = 0
    degraded: int = 0
    failed: int = 0
    retries: int = 0
    deadline_misses: int = 0

    @property
    def completed(self) -> int:
        return self.fresh + self.degraded + self.failed

    def to_dict(self) -> dict[str, int]:
        return {**asdict(self), "completed": self.completed}


class ServiceMetrics:
    """Aggregated counters for the whole service plus per-tenant detail."""

    def __init__(self) -> None:
        self._started_at = time.monotonic()
        self._tenants: dict[str, TenantCounters] = {}
        self._latency_ewma = 0.0
        self._latency_samples = 0
        self.breaker_trips = 0
        self.journal_appends = 0
        self.journal_replayed = 0
        self.journal_corrupt = 0
        self.journal_torn = 0

    def tenant(self, name: str) -> TenantCounters:
        counters = self._tenants.get(name)
        if counters is None:
            counters = self._tenants[name] = TenantCounters()
        return counters

    def observe_latency(self, seconds: float) -> None:
        if self._latency_samples == 0:
            self._latency_ewma = seconds
        else:
            self._latency_ewma = (_EWMA_ALPHA * seconds
                                  + (1 - _EWMA_ALPHA) * self._latency_ewma)
        self._latency_samples += 1

    def avg_latency(self) -> float:
        return self._latency_ewma

    def _total(self, field: str) -> int:
        return sum(int(getattr(counters, field))
                   for counters in self._tenants.values())

    def snapshot(self) -> dict[str, Any]:
        """The ``metrics`` endpoint's payload (JSON-able)."""
        return {
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "accepted": self._total("accepted"),
            "rejected": self._total("rejected"),
            "fresh": self._total("fresh"),
            "degraded": self._total("degraded"),
            "failed": self._total("failed"),
            "retries": self._total("retries"),
            "deadline_misses": self._total("deadline_misses"),
            "completed": self._total("completed"),
            "avg_latency_s": round(self._latency_ewma, 4),
            "breaker_trips": self.breaker_trips,
            "journal": {
                "appends": self.journal_appends,
                "replayed": self.journal_replayed,
                "corrupt": self.journal_corrupt,
                "torn": self.journal_torn,
            },
            "tenants": {name: counters.to_dict()
                        for name, counters in sorted(self._tenants.items())},
        }
