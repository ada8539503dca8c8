"""Plain-text table rendering shared by all experiment drivers."""

from __future__ import annotations

from typing import Sequence


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """A fixed-width table with a rule under the header."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def render_execution_report(report) -> str:
    """The fault-tolerance telemetry of one suite run as a table.

    One row per task (attempts, where it finally ran, failure kinds,
    degradation kinds), followed by the supervisor-level aggregates.
    ``report`` is a :class:`~repro.engine.results.SuiteExecutionReport`.
    """
    rows = []
    for name, record in report.records.items():
        failures = ",".join(f.kind for f in record.failures) or "-"
        degraded = ",".join(d.kind for d in record.degradations) or "-"
        rows.append((name, record.attempts, record.where, failures,
                     degraded))
    table = render_table(
        ("benchmark", "attempts", "where", "failures", "degradations"),
        rows, title="Execution report")
    summary = (f"retries={report.retries}  "
               f"degradations={report.degradations}  "
               f"pool_rebuilds={report.pool_rebuilds}  "
               f"cache_quarantined={report.cache_quarantined}")
    return f"{table}\n{summary}"


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
