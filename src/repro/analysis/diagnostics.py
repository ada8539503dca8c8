"""Structured diagnostics shared by the lint passes and the plan verifier.

Every analysis in :mod:`repro.analysis` reports findings as
:class:`Diagnostic` records rather than bare strings, so that callers can
filter by severity, group by function, suppress findings attributed to
synthetic (optimizer- or instrumentation-inserted) blocks, and render one
readable report.  ``code`` namespaces are ``Vxxx`` for plan-verifier
invariants and ``Lxxx`` for IR lint findings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional


class Severity(enum.IntEnum):
    """Ordered severity levels (comparable; ``ERROR`` is the highest)."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One analysis finding.

    ``function``/``block`` locate the finding (either may be empty when a
    finding is module- or plan-scoped); ``hint`` carries a human fix-hint;
    ``synthetic`` marks findings attributed to compiler-inserted blocks so
    reports can attribute (and lint can mute) them correctly.
    """

    severity: Severity
    code: str
    message: str
    function: str = ""
    block: Optional[str] = None
    hint: str = ""
    synthetic: bool = False

    def location(self) -> str:
        if self.function and self.block:
            return f"{self.function}.{self.block}"
        return self.function or "<module>"

    def format(self) -> str:
        origin = " [synthetic]" if self.synthetic else ""
        text = (f"{self.severity.label()} {self.code} "
                f"[{self.location()}]{origin}: {self.message}")
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> dict:
        """A JSON-serialisable view (for ``--json`` CLI output)."""
        return {
            "severity": self.severity.label(),
            "code": self.code,
            "message": self.message,
            "function": self.function,
            "block": self.block,
            "hint": self.hint,
            "synthetic": self.synthetic,
        }


@dataclass
class Report:
    """An ordered collection of diagnostics with severity accessors."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    title: str = ""

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.ERROR]

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity == Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when the report carries no errors (warnings allowed)."""
        return not self.errors()

    def summary(self) -> str:
        n_err = len(self.errors())
        n_warn = len(self.warnings())
        n_info = len(self.diagnostics) - n_err - n_warn
        parts = [f"{n_err} error{'s' if n_err != 1 else ''}",
                 f"{n_warn} warning{'s' if n_warn != 1 else ''}"]
        if n_info:
            parts.append(f"{n_info} note{'s' if n_info != 1 else ''}")
        head = f"{self.title}: " if self.title else ""
        return head + ", ".join(parts)

    def format(self, min_severity: Severity = Severity.INFO) -> str:
        """Render the report, one finding per line, summary last."""
        lines = [d.format() for d in self.diagnostics
                 if d.severity >= min_severity]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """A JSON-serialisable view (for ``--json`` CLI output)."""
        return {
            "title": self.title,
            "ok": self.ok,
            "errors": len(self.errors()),
            "warnings": len(self.warnings()),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
