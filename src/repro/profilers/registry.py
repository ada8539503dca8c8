"""The profiler registry: name -> plugin class.

Plugins self-register at import time via the :func:`register` decorator;
importing :mod:`repro.profilers` pulls in every bundled plugin module,
so the registry is always populated once the package is imported.  CLI
layers resolve ``--profilers`` selections here, and the conformance
checks below are what the plugin-conformance CI job runs over every
registered class.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence, Type, TypeVar

from .base import MachineChannels, Profiler

_NAME_RE = re.compile(r"^[a-z][a-z0-9-]*$")

_REGISTRY: dict[str, Type[Profiler]] = {}

P = TypeVar("P", bound=Type[Profiler])


@dataclass(frozen=True)
class ProfilerInfo:
    """One registry row, as shown by ``repro profilers``."""

    name: str
    description: str
    requires_plan: bool
    channels: MachineChannels


def register(cls: P) -> P:
    """Class decorator adding a plugin to the registry (idempotent for
    re-imports; duplicate *names* across classes are an error)."""
    errors = conformance_errors(cls)
    if errors:
        raise ValueError(
            f"profiler {cls.__name__} fails conformance: " + "; ".join(errors))
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"duplicate profiler name {cls.name!r} "
            f"({existing.__name__} vs {cls.__name__})")
    _REGISTRY[cls.name] = cls
    return cls


def conformance_errors(cls: Type[Profiler]) -> list[str]:
    """Static conformance checks every plugin must pass to register."""
    errors: list[str] = []
    name = getattr(cls, "name", "")
    if not isinstance(name, str) or not _NAME_RE.match(name or ""):
        errors.append(f"name {name!r} is not kebab-case")
    description = getattr(cls, "description", "")
    if not isinstance(description, str) or not description.strip():
        errors.append("description is empty")
    if not isinstance(getattr(cls, "requires_plan", None), bool):
        errors.append("requires_plan is not a bool")
    if not isinstance(getattr(cls, "channels", None), MachineChannels):
        errors.append("channels is not a MachineChannels")
    for method in ("instrument", "collect"):
        if not callable(getattr(cls, method, None)):
            errors.append(f"{method} is not callable")
    if cls.collect is Profiler.collect:
        errors.append("collect is not implemented")
    return errors


def registered_profilers() -> dict[str, Type[Profiler]]:
    """A snapshot of the registry (name -> class)."""
    return dict(_REGISTRY)


def get_profiler(name: str) -> Type[Profiler]:
    cls = _REGISTRY.get(name)
    if cls is None:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ValueError(f"unknown profiler {name!r}; registered: {known}")
    return cls


def available() -> list[ProfilerInfo]:
    """Registry rows sorted by name."""
    return [
        ProfilerInfo(cls.name, cls.description, cls.requires_plan,
                     cls.channels)
        for _, cls in sorted(_REGISTRY.items())
    ]


def create_profilers(names: Iterable[str]) -> list[Profiler]:
    """Instantiate the named profilers (registry order of the request).

    Plan-bound profilers cannot be created by name -- they need the
    plan object -- so selecting one here is an error.
    """
    out: list[Profiler] = []
    for name in names:
        cls = get_profiler(name)
        if cls.requires_plan:
            raise ValueError(
                f"profiler {name!r} is plan-bound and cannot be selected "
                f"by name; it is attached by run_with_plan")
        out.append(cls())
    return out


def parse_profiler_names(spec: str | Sequence[str]) -> tuple[str, ...]:
    """Parse a ``--profilers`` selection ("values,tripcounts" or an
    already-split sequence) into a validated, de-duplicated tuple,
    preserving order."""
    if isinstance(spec, str):
        parts: Sequence[str] = [p.strip() for p in spec.split(",")]
    else:
        parts = list(spec)
    names: list[str] = []
    for part in parts:
        if not part:
            continue
        get_profiler(part)  # raises on unknown names
        if part not in names:
            names.append(part)
    return tuple(names)
