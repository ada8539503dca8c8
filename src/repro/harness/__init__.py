"""Experiment harness: regenerates every table and figure of the paper."""

from ..engine import (TECHNIQUES, ArtifactCache, ParallelRunner,
                      ProfilingSession, TechniqueResult, WorkloadResult,
                      ground_truth, score_technique)
from .tables import Table1Row, Table2Row, table1, table1_row, table2, table2_row
from .figures import figure9, figure10, figure11, figure12
from .ablation import (AblationRow, figure13, leave_one_out, one_at_a_time,
                       select_benchmarks)
from .net_study import NetComparison, compare_net, net_table
from .staleness import StalenessRow, staleness_study, staleness_table
from .matching_study import (EDIT_KINDS, MatchingRow, matching_rows_to_dict,
                             matching_study, matching_table, seeded_edit)
from .superblock_study import (SuperblockComparison, compare_superblocks,
                               superblock_table)
from .metrics_study import MetricComparison, compare_metrics, metrics_table
from .sampling_study import SamplingRow, sampling_study, sampling_table
from .ifconvert_study import (IfConvertComparison, compare_ifconvert,
                              ifconvert_table)
from .hpt_study import HptRow, hpt_study, hpt_table
from .profiler_study import (ProfilerStudyRow, profiler_study,
                             profiler_table)
from .json_export import (save_suite_json, suite_to_dict,
                          workload_result_to_dict)
from .report import mean, render_table

__all__ = [
    "ArtifactCache", "ParallelRunner", "ProfilingSession",
    "TECHNIQUES", "TechniqueResult", "WorkloadResult", "ground_truth",
    "score_technique",
    "Table1Row", "Table2Row", "table1", "table1_row", "table2", "table2_row",
    "figure9", "figure10", "figure11", "figure12",
    "AblationRow", "figure13", "leave_one_out", "one_at_a_time",
    "select_benchmarks",
    "NetComparison", "compare_net", "net_table",
    "StalenessRow", "staleness_study", "staleness_table",
    "EDIT_KINDS", "MatchingRow", "matching_rows_to_dict",
    "matching_study", "matching_table", "seeded_edit",
    "SuperblockComparison", "compare_superblocks", "superblock_table",
    "MetricComparison", "compare_metrics", "metrics_table",
    "SamplingRow", "sampling_study", "sampling_table",
    "IfConvertComparison", "compare_ifconvert", "ifconvert_table",
    "HptRow", "hpt_study", "hpt_table",
    "ProfilerStudyRow", "profiler_study", "profiler_table",
    "save_suite_json", "suite_to_dict", "workload_result_to_dict",
    "mean", "render_table",
]
