"""Request, job, and response types for the continuous profiling service.

A :class:`ProfileRequest` names a tenant plus one target to profile --
a suite workload by name, ad-hoc MiniC source, or (in-process only) an
already-built IR :class:`~repro.ir.function.Module` -- and optionally a
deadline.  The service turns each dispatch of an accepted request into
a :class:`ProfileJob`, the picklable unit its worker pool executes
through :meth:`~ProfileJob.run`.

Every terminal answer is a :class:`ServiceResponse` whose ``status`` is
one of:

* ``fresh`` -- the job ran to completion (possibly after retries);
* ``degraded`` -- fresh profiling was unavailable (breaker open, deadline
  too tight, retries exhausted) and the service answered with a
  conservation-repaired stale remap instead, flagged with a
  :class:`~repro.engine.faults.DegradationEvent`;
* ``failed`` -- no fresh result and no stale profile to degrade to.

Responses carry the serialized profile payload (the wire form), the
:class:`~repro.engine.results.ExecutionRecord` telemetry, and -- for
in-process clients -- the rich profile objects themselves.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from ..engine import faults
from ..engine.results import ExecutionRecord
from ..ir.function import Module
from ..profiles import EdgeProfile, PathProfile

__all__ = [
    "JobOutcome", "ProfileJob", "ProfileRequest", "ServiceError",
    "ServiceResponse", "TECHNIQUES",
]

TECHNIQUES = ("pp", "tpp", "ppp")
KINDS = ("profile", "remap")


class ServiceError(RuntimeError):
    """A request the service cannot act on (validation, shutdown)."""


@dataclass(frozen=True)
class ProfileRequest:
    """One tenant's ask: profile a target, or remap a stale profile.

    Exactly one of ``workload`` (suite benchmark name), ``source``
    (MiniC text), or ``module`` (a pre-built IR module; in-process
    clients only -- modules do not cross the wire) must identify the
    target.  ``kind="remap"`` additionally carries ``stale_profile``,
    a saved edge-profile document (ideally with an embedded matching
    sketch) to transfer onto the target instead of profiling it.
    """

    tenant: str
    workload: Optional[str] = None
    source: Optional[str] = None
    module: Optional[Module] = None
    scale: int = 1
    technique: str = "ppp"
    kind: str = "profile"
    stale_profile: Optional[dict[str, Any]] = None
    deadline_s: Optional[float] = None
    allow_stale: bool = True
    label: str = ""
    request_id: str = ""

    def validate(self) -> None:
        if not self.tenant:
            raise ServiceError("request needs a tenant name")
        targets = sum(1 for t in (self.workload, self.source, self.module)
                      if t is not None)
        if targets != 1:
            raise ServiceError(
                "request needs exactly one of workload/source/module")
        if self.technique not in TECHNIQUES:
            raise ServiceError(f"unknown technique {self.technique!r}")
        if self.kind not in KINDS:
            raise ServiceError(f"unknown request kind {self.kind!r}")
        if self.kind == "remap" and self.stale_profile is None:
            raise ServiceError("remap requests need a stale_profile")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ServiceError("deadline_s must be positive")

    @property
    def key(self) -> str:
        """The tenant-scoped stale-store key this request profiles."""
        if self.label:
            return self.label
        if self.workload is not None:
            return self.workload
        if self.module is not None:
            return self.module.name
        return "source"

    def with_id(self) -> "ProfileRequest":
        """A copy with a request id assigned (no-op when one is set)."""
        if self.request_id:
            return self
        return replace(self, request_id=uuid.uuid4().hex[:12])


@dataclass
class JobOutcome:
    """What one executed :class:`ProfileJob` produced (picklable)."""

    request_id: str
    tenant: str
    kind: str
    payload: dict[str, Any]
    overhead: float
    accuracy: float
    return_value: object
    module: Optional[Module] = None
    profile: Optional[EdgeProfile] = None
    paths: Optional[PathProfile] = None
    estimated: Optional[Any] = None
    execution: ExecutionRecord = field(default_factory=ExecutionRecord)


@dataclass(frozen=True)
class ProfileJob:
    """The service's unit of pool work (one request dispatch).

    ``ordinal`` is the request's service-wide admission ordinal, the key
    its chaos faults (``drop-request``, ``kill-job``, ``stall-job``)
    trigger on.
    """

    request: ProfileRequest
    ordinal: int
    backend: Optional[str] = None

    @property
    def name(self) -> str:
        return f"{self.request.tenant}:{self.request.request_id}"

    def resolve_module(self) -> Module:
        """The target module (compiling workload/source targets)."""
        request = self.request
        if request.module is not None:
            return request.module
        if request.source is not None:
            from ..lang import compile_source

            return compile_source(request.source,
                                  name=request.label or "service-request")
        from ..workloads import get_workload

        assert request.workload is not None
        return get_workload(request.workload).compile(request.scale)

    def run(self, disk_dir: Optional[str]) -> JobOutcome:
        """Execute the job in this process (pool worker or thread)."""
        module = self.resolve_module()
        if self.request.kind == "remap":
            outcome = self._run_remap(module)
        else:
            outcome = self._run_profile(module, disk_dir)
        outcome.execution.degradations.extend(faults.drain_degradations())
        return outcome

    def _run_profile(self, module: Module,
                     disk_dir: Optional[str]) -> JobOutcome:
        from ..core import (build_estimated_profile, evaluate_accuracy,
                            run_with_plan)
        from ..engine.cache import ArtifactCache
        from ..engine.session import ProfilingSession
        from ..engine.stages import plan_stage
        from ..profiles import edge_profile_to_dict

        session = ProfilingSession(cache=ArtifactCache(disk_dir=disk_dir),
                                   backend=self.backend)
        actual, edge_profile, return_value = session.trace(module)
        technique = self.request.technique
        plan = plan_stage(technique, module,
                          None if technique == "pp" else edge_profile)
        run = run_with_plan(plan, backend=session.backend)
        estimated = build_estimated_profile(run, edge_profile)
        accuracy = evaluate_accuracy(actual, estimated.flows)
        return JobOutcome(
            request_id=self.request.request_id, tenant=self.request.tenant,
            kind="profile",
            payload=edge_profile_to_dict(edge_profile),
            overhead=run.overhead, accuracy=accuracy,
            return_value=return_value, module=module,
            profile=edge_profile, paths=actual, estimated=estimated)

    def _run_remap(self, module: Module) -> JobOutcome:
        from ..profiles import (edge_profile_from_dict_or_remap,
                                edge_profile_to_dict)

        assert self.request.stale_profile is not None
        try:
            profile, match = edge_profile_from_dict_or_remap(
                self.request.stale_profile, module)
        except ValueError as exc:
            raise ServiceError(f"stale profile rejected: {exc}") from exc
        if match is not None:
            faults.record_degradation(faults.DegradationEvent(
                "stale-remap", self.name,
                "saved profile was stale; remapped via sketch matching"))
        return JobOutcome(
            request_id=self.request.request_id, tenant=self.request.tenant,
            kind="remap", payload=edge_profile_to_dict(profile),
            overhead=0.0, accuracy=0.0, return_value=None,
            module=module, profile=profile)


@dataclass
class ServiceResponse:
    """One terminal answer for one accepted request."""

    request_id: str
    tenant: str
    status: str  # "fresh" | "degraded" | "failed"
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)
    overhead: Optional[float] = None
    accuracy: Optional[float] = None
    return_value: object = None
    attempts: int = 1
    elapsed_s: float = 0.0
    execution: ExecutionRecord = field(default_factory=ExecutionRecord)
    degradation: Optional[faults.DegradationEvent] = None
    error: str = ""
    # Rich in-process extras (never serialized to the wire).
    profile: Optional[EdgeProfile] = None
    paths: Optional[PathProfile] = None
    estimated: Optional[Any] = None

    @property
    def ok(self) -> bool:
        return self.status in ("fresh", "degraded")

    def to_dict(self) -> dict[str, Any]:
        """The wire form (JSON-able; rich objects stay in-process)."""
        return {
            "id": self.request_id,
            "tenant": self.tenant,
            "status": self.status,
            "kind": self.kind,
            "payload": self.payload,
            "overhead": self.overhead,
            "accuracy": self.accuracy,
            "return_value": self.return_value
            if isinstance(self.return_value, (int, float, str, bool,
                                              type(None)))
            else repr(self.return_value),
            "attempts": self.attempts,
            "elapsed_s": round(self.elapsed_s, 3),
            "execution": self.execution.to_dict(),
            "degradation": (self.degradation.to_dict()
                            if self.degradation is not None else None),
            "error": self.error,
        }
