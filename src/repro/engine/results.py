"""Result records shared by the engine, the harness, and the studies.

These are the per-benchmark dataclasses the tables and figures consume.
They live in the engine (below the harness) so the cache, the parallel
runner, and the study drivers can all exchange them without import
cycles; :mod:`repro.harness` re-exports them unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .faults import DegradationEvent

if TYPE_CHECKING:
    from ..core import ModulePlan, ProfileRun
    from ..ir.function import Module
    from ..opt import OptimizationResult
    from ..profiles import EdgeProfile, PathProfile
    from ..workloads import Workload

TECHNIQUES = ("pp", "tpp", "ppp")


@dataclass
class TaskFailure:
    """One failed attempt at a suite task, as seen by the supervisor.

    Kinds: ``timeout`` (wall-clock deadline passed), ``worker-crash``
    (the task's worker exited without replying), ``exception`` (the task
    body raised), ``unpicklable`` (the task cannot cross a process
    boundary at all).
    """

    kind: str
    task: str
    index: int
    attempt: int
    detail: str = ""
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        return {"kind": self.kind, "task": self.task, "index": self.index,
                "attempt": self.attempt, "detail": self.detail,
                "elapsed_s": round(self.elapsed_s, 3)}


@dataclass
class ExecutionRecord:
    """How one workload's result was actually produced.

    Telemetry only: never part of an artifact's cache key, never part of
    the metric payload the tables/JSON export compare, so a chaos run's
    results stay byte-identical to a fault-free run's.

    :meth:`to_dict` is the JSON form the profiling service and
    ``--json`` reports write alongside each response.
    """

    attempts: int = 1
    where: str = "serial"  # "pool" | "inline" | "serial" | "stale"
    failures: list[TaskFailure] = field(default_factory=list)
    degradations: list[DegradationEvent] = field(default_factory=list)

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)

    def to_dict(self) -> dict:
        return {
            "attempts": self.attempts,
            "where": self.where,
            "failures": [f.to_dict() for f in self.failures],
            "degradations": [d.to_dict() for d in self.degradations],
        }


@dataclass
class SuiteExecutionReport:
    """Per-task execution records plus supervisor-level aggregates.

    :meth:`to_dict` writes it as JSON; its ``retries`` /
    ``degradations`` keys are aggregates derived from the records.
    """

    records: dict[str, ExecutionRecord] = field(default_factory=dict)
    pool_rebuilds: int = 0  # workers lost to a timeout or a crash
    cache_quarantined: int = 0

    @property
    def retries(self) -> int:
        return sum(r.retries for r in self.records.values())

    @property
    def degradations(self) -> int:
        return sum(len(r.degradations) for r in self.records.values())

    def failures(self) -> list[TaskFailure]:
        return [f for r in self.records.values() for f in r.failures]

    @property
    def clean(self) -> bool:
        """True when nothing retried, failed, or degraded."""
        return (not self.pool_rebuilds and not self.cache_quarantined
                and not self.retries and not self.degradations
                and not self.failures())

    def to_dict(self) -> dict:
        return {
            "pool_rebuilds": self.pool_rebuilds,
            "cache_quarantined": self.cache_quarantined,
            "retries": self.retries,
            "degradations": self.degradations,
            "tasks": {name: record.to_dict()
                      for name, record in self.records.items()},
        }


@dataclass
class TechniqueResult:
    """One technique's scores on one workload."""

    name: str
    overhead: float
    accuracy: float
    coverage: float
    instrumented_fraction: float
    hashed_fraction: float
    static_ops: int
    functions_instrumented: int
    plan: Optional[ModulePlan] = field(repr=False, default=None)
    run: Optional[ProfileRun] = field(repr=False, default=None)


@dataclass
class WorkloadResult:
    """Everything measured for one workload."""

    workload: Workload
    original: Module
    expanded: Module
    opt: OptimizationResult
    edge_profile: EdgeProfile
    actual: PathProfile           # ground truth on the expanded code
    actual_original: PathProfile  # ground truth on the original code
    edge_accuracy: float
    edge_coverage: float
    techniques: dict[str, TechniqueResult]
    return_value: object
    # Extra registry profilers' results over the expanded module
    # (profiler name -> collected profile); empty unless the session ran
    # with a --profilers selection.
    profiles: dict[str, object] = field(default_factory=dict, repr=False)
    # Telemetry about the run that produced this result (retries,
    # degradation events); excluded from comparisons and JSON metrics so
    # faulty and fault-free runs stay byte-identical where it matters.
    execution: ExecutionRecord = field(default_factory=ExecutionRecord,
                                       repr=False, compare=False)

    @property
    def category(self) -> str:
        return self.workload.category
