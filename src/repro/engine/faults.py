"""Deterministic fault injection for chaos-testing the execution layer.

A :class:`FaultPlan` describes a small, seeded set of faults that the
engine's components check for at well-defined points:

* **kill-job** -- the pool worker running the job with the named
  ordinal (a suite run's task index, the service's admission ordinal)
  calls ``os._exit`` on its first ``count`` attempts;
* **stall-job** -- that job's first attempt sleeps past its timeout.
  Both fire only in :func:`on_job_start`, which the worker loop of
  :class:`~repro.engine.workers.WorkerPool` calls, so jobs run inline
  or in a thread never trigger them;
* **corrupt-write** -- the Nth on-disk cache write of the named artifact
  kind has its payload bytes scrambled *after* the checksum is computed,
  so the corruption is latent until the entry is read back;
* **codegen-fail** -- generating compiled-backend code for the named IR
  function raises :class:`CodegenFault`, forcing the per-function
  tuple-loop fallback;
* **drop-request** -- the service's dispatcher loses the first dispatch
  of the request with the named admission ordinal; the service's own
  retry ladder must recover it;
* **journal-corrupt** -- the Nth write-ahead journal record has its
  payload scrambled *after* the checksum is computed, so the corruption
  is latent until the journal is scanned or replayed.

Plans are activated programmatically (:func:`install_plan`) or through
the ``REPRO_FAULTS`` environment variable / the CLIs' ``--chaos`` flag;
the spec string round-trips through :meth:`FaultPlan.to_spec`.  Worker
processes inherit the active plan both ways (module state via fork, the
environment variable via spawn).  Every fault is a pure function of the
plan plus its trigger context (job ordinal, attempt number, write
ordinal, function name), so a chaos run is exactly reproducible.

This module is deliberately stdlib-only: :mod:`repro.interp.compiled`
imports it from below the engine layer.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "CodegenFault", "DegradationEvent", "FaultPlan", "FaultSpecError",
    "clear_plan", "corrupt_journal_payload", "current_plan",
    "drain_degradations", "install_plan", "on_job_start",
    "record_degradation", "should_drop_request",
]

ENV_VAR = "REPRO_FAULTS"

# Exit status a fault-killed worker dies with (distinctive in supervisor
# logs; any exit without a reply reads as a worker crash the same way).
KILL_STATUS = 86


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` / ``--chaos`` spec string that cannot be parsed."""


class CodegenFault(RuntimeError):
    """The injected per-function code-generation failure."""


@dataclass
class DegradationEvent:
    """One graceful-degradation decision taken instead of crashing.

    Kinds: ``codegen-fallback`` (a function runs on the tuple loop),
    ``inline-fallback`` (a task ran in the parent after pool retries or
    because it cannot be pickled),
    ``pool-degraded`` (no worker process could start),
    ``cache-quarantine`` (a corrupt cache entry was renamed aside and
    recomputed), ``stale-remap`` (the profiling service answered with a
    conservation-repaired remap of an older profile instead of fresh
    profiling), ``journal-recovered`` (a corrupt or torn write-ahead
    journal record was detected, counted, and skipped during replay).
    """

    kind: str
    subject: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {"kind": self.kind, "subject": self.subject,
                "detail": self.detail}


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic set of injected faults (see module doc)."""

    seed: int = 0
    kill_job: Optional[int] = None       # job ordinal whose worker dies
    kill_job_count: int = 1              # attempts 0..count-1 are killed
    stall_job: Optional[int] = None      # job sleeps on its first attempt
    stall_seconds: float = 0.0
    corrupt_kind: Optional[str] = None   # artifact kind to corrupt
    corrupt_nth: int = 0                 # which write of that kind
    codegen_fail: Optional[str] = None   # IR function name
    drop_request: Optional[int] = None   # admission ordinal, lost once
    journal_corrupt: Optional[int] = None  # journal record ordinal

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse ``seed=7,kill-job=1x2,stall-job=2:6.0,``
        ``corrupt-write=record:0,codegen-fail=main,drop-request=1,``
        ``journal-corrupt=0``."""
        kwargs: dict = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise FaultSpecError(f"fault {part!r} is not key=value")
            key, _, value = part.partition("=")
            try:
                if key == "seed":
                    kwargs["seed"] = int(value)
                elif key == "kill-job":
                    ordinal, _, count = value.partition("x")
                    kwargs["kill_job"] = int(ordinal)
                    kwargs["kill_job_count"] = int(count) if count else 1
                elif key == "stall-job":
                    ordinal, _, secs = value.partition(":")
                    kwargs["stall_job"] = int(ordinal)
                    kwargs["stall_seconds"] = float(secs) if secs else 1.0
                elif key == "corrupt-write":
                    kind, _, nth = value.partition(":")
                    kwargs["corrupt_kind"] = kind
                    kwargs["corrupt_nth"] = int(nth) if nth else 0
                elif key == "codegen-fail":
                    if "@" in value:
                        raise FaultSpecError(
                            "codegen-fail takes a bare function name, "
                            f"got {value!r}")
                    kwargs["codegen_fail"] = value
                elif key == "drop-request":
                    kwargs["drop_request"] = int(value)
                elif key == "journal-corrupt":
                    kwargs["journal_corrupt"] = int(value)
                else:
                    raise FaultSpecError(f"unknown fault key {key!r}")
            except (TypeError, ValueError) as exc:
                if isinstance(exc, FaultSpecError):
                    raise
                raise FaultSpecError(
                    f"bad value for {key!r}: {value!r}") from exc
        return cls(**kwargs)

    def to_spec(self) -> str:
        parts = [f"seed={self.seed}"]
        if self.kill_job is not None:
            suffix = (f"x{self.kill_job_count}"
                      if self.kill_job_count != 1 else "")
            parts.append(f"kill-job={self.kill_job}{suffix}")
        if self.stall_job is not None:
            parts.append(f"stall-job={self.stall_job}:{self.stall_seconds}")
        if self.corrupt_kind is not None:
            parts.append(f"corrupt-write={self.corrupt_kind}:"
                         f"{self.corrupt_nth}")
        if self.codegen_fail is not None:
            parts.append(f"codegen-fail={self.codegen_fail}")
        if self.drop_request is not None:
            parts.append(f"drop-request={self.drop_request}")
        if self.journal_corrupt is not None:
            parts.append(f"journal-corrupt={self.journal_corrupt}")
        return ",".join(parts)


# ----------------------------------------------------------------------
# Activation
# ----------------------------------------------------------------------

_active: Optional[FaultPlan] = None
_parsed_env: tuple[str, Optional[FaultPlan]] = ("", None)


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Activate a plan process-wide (and via the environment, so worker
    processes see it regardless of start method); ``None`` deactivates."""
    global _active
    _active = plan
    if plan is None:
        os.environ.pop(ENV_VAR, None)
    else:
        os.environ[ENV_VAR] = plan.to_spec()


def clear_plan() -> None:
    install_plan(None)
    _write_counts.clear()


def current_plan() -> Optional[FaultPlan]:
    """The installed plan, else the one named by ``REPRO_FAULTS``."""
    global _parsed_env
    if _active is not None:
        return _active
    spec = os.environ.get(ENV_VAR, "").strip()
    if not spec:
        return None
    if _parsed_env[0] != spec:
        _parsed_env = (spec, FaultPlan.from_spec(spec))
    return _parsed_env[1]


# ----------------------------------------------------------------------
# Trigger points
# ----------------------------------------------------------------------

def on_job_start(ordinal: int, attempt: int) -> None:
    """Pool-worker hook, called before job ``ordinal``'s attempt
    ``attempt`` (0 is the first) runs its body."""
    plan = current_plan()
    if plan is None:
        return
    if plan.kill_job == ordinal and attempt < plan.kill_job_count:
        os._exit(KILL_STATUS)  # simulate a hard worker crash
    if plan.stall_job == ordinal and attempt == 0 and plan.stall_seconds > 0:
        time.sleep(plan.stall_seconds)


def should_drop_request(ordinal: int, attempt: int) -> bool:
    """True when the dispatcher must lose this dispatch (first attempt
    of the request named by ``drop-request``)."""
    plan = current_plan()
    return (plan is not None and plan.drop_request == ordinal
            and attempt == 0)


_write_counts: dict[str, int] = {}


def corrupt_journal_payload(payload: bytes) -> bytes:
    """Return the (possibly scrambled) payload for a journal append.

    Counts journal writes in this process; when the plan names this
    ordinal the payload bytes are XOR-flipped over a seed-chosen window
    *after* the checksum was computed, so the corruption is latent until
    the journal is scanned or replayed.
    """
    plan = current_plan()
    if plan is None or plan.journal_corrupt is None:
        return payload
    ordinal = _write_counts.get("@journal", 0)
    _write_counts["@journal"] = ordinal + 1
    if ordinal != plan.journal_corrupt or not payload:
        return payload
    start = plan.seed % len(payload)
    window = payload[start:start + 16] or payload[:16]
    flipped = bytes(b ^ 0xFF for b in window)
    return payload[:start] + flipped + payload[start + len(window):]


def corrupt_cache_payload(kind: str, payload: bytes) -> bytes:
    """Return the (possibly scrambled) payload for a disk-cache write.

    Counts writes per kind in this process; when the plan names this
    ``(kind, ordinal)`` the payload bytes are XOR-flipped over a
    seed-chosen window, which any checksum catches on read.
    """
    plan = current_plan()
    if plan is None or plan.corrupt_kind != kind:
        return payload
    ordinal = _write_counts.get(kind, 0)
    _write_counts[kind] = ordinal + 1
    if ordinal != plan.corrupt_nth or not payload:
        return payload
    start = plan.seed % len(payload)
    window = payload[start:start + 16] or payload[:16]
    flipped = bytes(b ^ 0xFF for b in window)
    return payload[:start] + flipped + payload[start + len(window):]


def maybe_fail_codegen(func_name: str) -> None:
    """Raise :class:`CodegenFault` when the plan names this function."""
    plan = current_plan()
    if plan is not None and plan.codegen_fail == func_name:
        raise CodegenFault(
            f"injected codegen failure for function {func_name!r}")


# ----------------------------------------------------------------------
# The process-local degradation log
# ----------------------------------------------------------------------
#
# Components that degrade gracefully (the compiled backend, the cache)
# record what they did here; the workload-result assembly drains the log
# so the events travel with the WorkloadResult back to the supervisor.

_degradations: list[DegradationEvent] = []


def record_degradation(event: DegradationEvent) -> None:
    _degradations.append(event)


def drain_degradations() -> list[DegradationEvent]:
    drained = list(_degradations)
    _degradations.clear()
    return drained
