"""Continuous profiling as a service.

A long-lived, fault-tolerant, multi-tenant ingestion front-end over the
profiling engine: bounded admission with per-tenant quotas and explicit
backpressure, a crash-safe write-ahead journal, a circuit breaker
around its long-lived worker pool, deadline-aware retries with jittered
exponential backoff, and graceful degradation to conservation-repaired
stale remaps when fresh profiling is unavailable.

:class:`ProfilingService` is the in-process object (tests and embedded
clients need no sockets); :class:`ProfilingServer` wraps it in a TCP
JSON-lines protocol for ``repro serve``.
"""

from .admission import AdmissionError, AdmissionLimits, AdmissionQueue
from .api import (JobOutcome, ProfileJob, ProfileRequest, ServiceError,
                  ServiceResponse)
from .breaker import CircuitBreaker
from .journal import JournalRecord, JournalScan, WriteAheadJournal
from .metrics import ServiceMetrics, TenantCounters
from .server import ProfilingServer
from .service import ProfilingService

__all__ = [
    "AdmissionError", "AdmissionLimits", "AdmissionQueue",
    "CircuitBreaker", "JobOutcome", "JournalRecord", "JournalScan",
    "ProfileJob", "ProfileRequest", "ProfilingServer", "ProfilingService",
    "ServiceError", "ServiceMetrics", "ServiceResponse", "TenantCounters",
    "WriteAheadJournal",
]
