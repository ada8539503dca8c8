"""Hardware hot-path table accuracy vs capacity (Vaswani et al. [29]).

The related work reports the hardware profiler's accuracy is "high
(above 90% on average) when the HPT is large enough".  This study sweeps
the table capacity and measures Wall's-scheme accuracy on each workload,
exposing the capacity cliff: small tables thrash on warm-path programs
(capacity evictions drop hot entries) while large ones converge to the
software profile's accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import HotPathTable, evaluate_accuracy
from ..engine import ProfilingSession, WorkloadResult
from .report import render_table

DEFAULT_GEOMETRIES = ((16, 2), (64, 4), (256, 4))  # (sets, ways)


@dataclass
class HptRow:
    benchmark: str
    sets: int
    ways: int
    accuracy: float
    pressure: float  # evictions per recorded path


def hpt_study(result: WorkloadResult, geometries=DEFAULT_GEOMETRIES, *,
              session: ProfilingSession) -> list[HptRow]:
    """One table per geometry, each fed the expanded module's cached
    path stream."""
    stream = session.path_stream(result.expanded)
    assert stream.return_value == result.return_value
    rows = []
    for sets, ways in geometries:
        hpt = HotPathTable(sets, ways).replay(stream)
        flows = hpt.estimated_flows(result.expanded)
        rows.append(HptRow(
            benchmark=result.workload.name,
            sets=sets, ways=ways,
            accuracy=evaluate_accuracy(result.actual, flows),
            pressure=hpt.capacity_pressure,
        ))
    return rows


def hpt_table(results: dict[str, WorkloadResult],
              geometries=DEFAULT_GEOMETRIES, *,
              session: ProfilingSession) -> str:
    cells = []
    for name, result in results.items():
        for row in hpt_study(result, geometries, session=session):
            cells.append([row.benchmark, f"{row.sets}x{row.ways}",
                          f"{row.accuracy * 100:.0f}%",
                          f"{row.pressure * 100:.1f}%"])
    return render_table(
        ["Benchmark", "HPT geometry", "Accuracy", "Evict pressure"],
        cells,
        title=("Hardware hot-path table: accuracy vs capacity "
               "(Vaswani et al.)."))
