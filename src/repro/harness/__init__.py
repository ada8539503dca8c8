"""Experiment harness: regenerates every table and figure of the paper.

Each export imports its module on first use (:mod:`repro.lazy`), so the
CLI (:mod:`repro.harness.__main__`) can print cached tables without
loading the studies.
"""

from ..lazy import lazy_exports

_EXPORTS = {
    "..engine": ("ArtifactCache", "ParallelRunner", "ProfilingSession",
                 "TECHNIQUES", "TechniqueResult", "WorkloadResult",
                 "ground_truth", "score_technique"),
    ".tables": ("Table1Row", "Table2Row", "table1", "table1_row", "table2",
                "table2_row"),
    ".figures": ("figure9", "figure10", "figure11", "figure12"),
    ".ablation": ("AblationRow", "figure13", "leave_one_out",
                  "one_at_a_time", "select_benchmarks"),
    ".net_study": ("NetComparison", "compare_net", "net_table"),
    ".staleness": ("StalenessRow", "staleness_study", "staleness_table"),
    ".matching_study": ("EDIT_KINDS", "MatchingRow", "matching_rows_to_dict",
                        "matching_study", "matching_table", "seeded_edit"),
    ".superblock_study": ("SuperblockComparison", "compare_superblocks",
                          "superblock_table"),
    ".metrics_study": ("MetricComparison", "compare_metrics",
                       "metrics_table"),
    ".sampling_study": ("SamplingRow", "sampling_study", "sampling_table"),
    ".ifconvert_study": ("IfConvertComparison", "compare_ifconvert",
                         "ifconvert_table"),
    ".hpt_study": ("HptRow", "hpt_study", "hpt_table"),
    ".profiler_study": ("ProfilerStudyRow", "profiler_study",
                        "profiler_table"),
    ".json_export": ("save_suite_json", "suite_to_dict",
                     "workload_result_to_dict"),
    ".report": ("mean", "render_table"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
lazy_exports(__name__, _EXPORTS)
