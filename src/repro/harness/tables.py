"""Table 1 and Table 2 of the paper.

Table 1: dynamic path characteristics of each benchmark with and without
profile-guided inlining and unrolling -- dynamic path count, average
branches and IR statements per path, percent of dynamic calls inlined,
average unroll factor, and speedup.

Table 2: distinct dynamic paths, and the number of hot paths plus the
fraction of total program (branch) flow they cover at the paper's two
thresholds, 0.125% and 1%.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import WorkloadResult
from ..profiles.metrics import HOT_THRESHOLD, HOT_THRESHOLD_STRICT
from ..workloads import FP, INT
from .report import mean, render_table


@dataclass
class Table1Row:
    name: str
    category: str
    orig_dynamic_paths: float
    orig_avg_branches: float
    orig_avg_instrs: float
    exp_dynamic_paths: float
    exp_avg_branches: float
    exp_avg_instrs: float
    percent_calls_inlined: float
    avg_unroll_factor: float
    speedup: float


def table1_row(result: WorkloadResult) -> Table1Row:
    orig_branches, _ = result.actual_original.average_path_stats()
    exp_branches, _ = result.actual.average_path_stats()
    return Table1Row(
        name=result.workload.name,
        category=result.category,
        orig_dynamic_paths=result.actual_original.dynamic_paths(),
        orig_avg_branches=orig_branches,
        orig_avg_instrs=result.actual_original.average_instructions_per_path(),
        exp_dynamic_paths=result.actual.dynamic_paths(),
        exp_avg_branches=exp_branches,
        exp_avg_instrs=result.actual.average_instructions_per_path(),
        percent_calls_inlined=result.opt.inline_stats.percent_calls_inlined,
        avg_unroll_factor=result.opt.unroll_stats.average_unroll_factor,
        speedup=result.opt.speedup,
    )


def table1(results: dict[str, WorkloadResult]) -> str:
    headers = ["Benchmark", "Dyn paths", "Avg br", "Avg ins",
               "Dyn paths'", "Avg br'", "Avg ins'", "% inl",
               "Unroll", "Speedup"]
    rows: list[list[object]] = []
    groups: dict[str, list[Table1Row]] = {INT: [], FP: []}
    for result in results.values():
        row = table1_row(result)
        groups[row.category].append(row)
    all_rows: list[Table1Row] = []
    for category in (INT, FP):
        for row in groups[category]:
            rows.append(_t1_cells(row))
            all_rows.append(row)
        if groups[category]:
            rows.append(_t1_avg(f"{category} Avg", groups[category]))
    if all_rows:
        rows.append(_t1_avg("Overall Avg", all_rows))
    return render_table(
        headers, rows,
        title=("Table 1. Dynamic path characteristics without "
               "(left) and with (') inlining and unrolling."))


def _t1_cells(r: Table1Row) -> list[object]:
    return [r.name, f"{r.orig_dynamic_paths:.0f}",
            f"{r.orig_avg_branches:.2f}", f"{r.orig_avg_instrs:.2f}",
            f"{r.exp_dynamic_paths:.0f}", f"{r.exp_avg_branches:.2f}",
            f"{r.exp_avg_instrs:.2f}",
            f"{r.percent_calls_inlined * 100:.0f}%",
            f"{r.avg_unroll_factor:.2f}", f"{r.speedup:.2f}"]


def _t1_avg(label: str, rows: list[Table1Row]) -> list[object]:
    return [label,
            f"{mean([r.orig_dynamic_paths for r in rows]):.0f}",
            f"{mean([r.orig_avg_branches for r in rows]):.2f}",
            f"{mean([r.orig_avg_instrs for r in rows]):.2f}",
            f"{mean([r.exp_dynamic_paths for r in rows]):.0f}",
            f"{mean([r.exp_avg_branches for r in rows]):.2f}",
            f"{mean([r.exp_avg_instrs for r in rows]):.2f}",
            f"{mean([r.percent_calls_inlined for r in rows]) * 100:.0f}%",
            f"{mean([r.avg_unroll_factor for r in rows]):.2f}",
            f"{mean([r.speedup for r in rows]):.2f}"]


@dataclass
class Table2Row:
    name: str
    category: str
    distinct_paths: int
    hot_loose: int          # paths with >= 0.125% of program flow
    hot_loose_flow: float   # fraction of flow they cover
    hot_strict: int         # paths with >= 1% of program flow
    hot_strict_flow: float


def table2_row(result: WorkloadResult) -> Table2Row:
    actual = result.actual
    total = actual.total_flow("branch")
    hot_loose = actual.hot_paths(HOT_THRESHOLD, "branch", total=total)
    hot_strict = actual.hot_paths(HOT_THRESHOLD_STRICT, "branch",
                                  total=total)
    return Table2Row(
        name=result.workload.name,
        category=result.category,
        distinct_paths=actual.distinct_paths(),
        hot_loose=len(hot_loose),
        hot_loose_flow=(sum(f for _, _, f in hot_loose) / total
                        if total else 0.0),
        hot_strict=len(hot_strict),
        hot_strict_flow=(sum(f for _, _, f in hot_strict) / total
                         if total else 0.0),
    )


def table2(results: dict[str, WorkloadResult]) -> str:
    headers = ["Benchmark", "Distinct", ">=0.125%", "flow",
               ">=1%", "flow"]
    rows: list[list[object]] = []
    groups: dict[str, list[Table2Row]] = {INT: [], FP: []}
    for result in results.values():
        groups[result.category].append(table2_row(result))
    for category in (INT, FP):
        for r in groups[category]:
            rows.append([r.name, r.distinct_paths, r.hot_loose,
                         f"{r.hot_loose_flow * 100:.1f}%", r.hot_strict,
                         f"{r.hot_strict_flow * 100:.1f}%"])
        if groups[category]:
            rows.append([f"{category} Avg", "", "",
                         f"{mean([r.hot_loose_flow for r in groups[category]]) * 100:.1f}%",
                         "",
                         f"{mean([r.hot_strict_flow for r in groups[category]]) * 100:.1f}%"])
    both = groups[INT] + groups[FP]
    rows.append(["Overall Avg", "", "",
                 f"{mean([r.hot_loose_flow for r in both]) * 100:.1f}%", "",
                 f"{mean([r.hot_strict_flow for r in both]) * 100:.1f}%"])
    return render_table(headers, rows,
                        title="Table 2. Hot paths and their program flow.")
