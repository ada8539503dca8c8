"""Profiles and flow math: edge/path profiles, flow metrics, definite and
potential flow, hot-path reconstruction, accuracy and coverage."""

from .flow import BRANCH, UNIT, Metric, path_branches, path_flow
from .edge_profile import EdgeProfile, FunctionEdgeProfile
from .path_profile import FunctionPathProfile, PathKey, PathProfile
from .flowsets import (DagFrequencies, FlowSets, compute_flow_sets,
                       dag_edge_is_branch)
from .definite import (definite_flow_paths, definite_flow_sets,
                       definite_flow_total)
from .potential import potential_flow_sets
from .reconstruct import ReconstructedPath, reconstruct_hot_paths
from .metrics import (HOT_THRESHOLD, HOT_THRESHOLD_STRICT, EstimatedFlows,
                      FunctionCoverage, accuracy, actual_hot_paths, coverage,
                      select_top)
from .sampling import sample_edge_profile
from .diff import (EdgeDelta, EdgeProfileDiff, diff_edge_profiles,
                   format_edge_diff)
from .serialize import (edge_profile_from_dict,
                        edge_profile_from_dict_or_remap,
                        edge_profile_to_dict, load_edge_profile,
                        save_edge_profile)

__all__ = [
    "BRANCH", "UNIT", "Metric", "path_branches", "path_flow",
    "EdgeProfile", "FunctionEdgeProfile",
    "FunctionPathProfile", "PathKey", "PathProfile",
    "DagFrequencies", "FlowSets", "compute_flow_sets", "dag_edge_is_branch",
    "definite_flow_paths", "definite_flow_sets", "definite_flow_total",
    "potential_flow_sets",
    "ReconstructedPath", "reconstruct_hot_paths",
    "HOT_THRESHOLD", "HOT_THRESHOLD_STRICT", "EstimatedFlows",
    "FunctionCoverage", "accuracy", "actual_hot_paths", "coverage",
    "select_top",
    "edge_profile_from_dict", "edge_profile_from_dict_or_remap",
    "edge_profile_to_dict", "load_edge_profile", "save_edge_profile",
    "sample_edge_profile",
    "EdgeDelta", "EdgeProfileDiff", "diff_edge_profiles", "format_edge_diff",
]
