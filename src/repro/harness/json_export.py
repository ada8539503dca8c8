"""Machine-readable export of suite results.

The text tables are for humans; this module flattens a suite run's
metrics into plain JSON-serialisable dictionaries so external tooling
(plots, CI dashboards, regression tracking) can consume the
reproduction's numbers without scraping.
"""

from __future__ import annotations

import json
from typing import TextIO

from ..engine import WorkloadResult
from .tables import table1_row, table2_row

EXPORT_VERSION = 1


def workload_result_to_dict(result: WorkloadResult) -> dict:
    """Every per-benchmark metric the tables and figures report."""
    t1 = table1_row(result)
    t2 = table2_row(result)
    techniques = {}
    for name, tech in result.techniques.items():
        techniques[name] = {
            "overhead": tech.overhead,
            "accuracy": tech.accuracy,
            "coverage": tech.coverage,
            "instrumented_fraction": tech.instrumented_fraction,
            "hashed_fraction": tech.hashed_fraction,
            "static_ops": tech.static_ops,
            "functions_instrumented": tech.functions_instrumented,
        }
    return {
        "benchmark": result.workload.name,
        "category": result.category,
        "table1": {
            "dynamic_paths_original": t1.orig_dynamic_paths,
            "dynamic_paths_expanded": t1.exp_dynamic_paths,
            "avg_branches_original": t1.orig_avg_branches,
            "avg_branches_expanded": t1.exp_avg_branches,
            "avg_instructions_original": t1.orig_avg_instrs,
            "avg_instructions_expanded": t1.exp_avg_instrs,
            "percent_calls_inlined": t1.percent_calls_inlined,
            "avg_unroll_factor": t1.avg_unroll_factor,
            "speedup": t1.speedup,
        },
        "table2": {
            "distinct_paths": t2.distinct_paths,
            "hot_paths_loose": t2.hot_loose,
            "hot_flow_loose": t2.hot_loose_flow,
            "hot_paths_strict": t2.hot_strict,
            "hot_flow_strict": t2.hot_strict_flow,
        },
        "edge_profile": {
            "accuracy": result.edge_accuracy,
            "coverage": result.edge_coverage,
        },
        "techniques": techniques,
    }


def suite_to_dict(results: dict[str, WorkloadResult],
                  execution=None) -> dict:
    """``execution`` is an optional
    :class:`~repro.engine.results.SuiteExecutionReport`; its telemetry
    lands in a separate top-level section so the ``benchmarks`` subtree
    stays byte-identical between faulty and fault-free runs."""
    out = {
        "version": EXPORT_VERSION,
        "kind": "ppp-repro-suite-results",
        "benchmarks": [workload_result_to_dict(r)
                       for r in results.values()],
    }
    if execution is not None:
        out["execution"] = execution.to_dict()
    return out


def save_suite_json(results: dict[str, WorkloadResult], fp: TextIO,
                    execution=None) -> None:
    json.dump(suite_to_dict(results, execution=execution), fp, indent=1)
