"""The paper's contribution: PP, TPP, and PPP path profiling.

Public entry points:

* :func:`plan_pp` / :func:`plan_tpp` / :func:`plan_ppp` -- build an
  instrumentation plan for a module;
* :func:`run_with_plan` -- execute the module with instrumentation
  attached and collect counters + overhead;
* :func:`replay_plan` -- the same counters and overhead, read off the
  module's :class:`Recording` without executing anything;
* :func:`build_estimated_profile` and the ``evaluate_*`` functions --
  construct and score estimated path profiles (accuracy, coverage,
  instrumented fraction).
"""

from .ops import AddReg, CountConst, CountReg, InstrOp, SetReg, describe
from .heuristics import static_block_weights, static_edge_weights
from .numbering import PathNumbering, number_paths
from .events import dag_edge_weights, event_count, max_weight_spanning_tree
from .cold import (GLOBAL_COLD_FRACTION, LOCAL_COLD_RATIO, cold_cfg_edges,
                   live_dag_edges, project_cold_to_dag)
from .obvious import (OBVIOUS_LOOP_MIN_TRIPS, all_paths_obvious,
                      defining_edges, loop_average_trips, loop_is_obvious,
                      obvious_loop_cold_edges)
from .placement import (CHECK_POISON_VALUE, PlacementResult,
                        place_instrumentation)
from .runtime import (HASH_SLOTS, HASH_THRESHOLD, HASH_TRIES, ArrayStore,
                      CounterStore, HashStore, make_store)
from .pipeline import (DEFAULT_CONFIG, FunctionPlan, ModulePlan,
                       ProfileRun, ProfilerConfig, plan_pp, plan_ppp,
                       plan_tpp, ppp_config_only, ppp_config_without,
                       run_with_plan)
from .stream import PathStream, Recording, record_module
from .replay import ReplayError, replay_plan
from .net import NET_HOT_THRESHOLD, NetResult, NetSelector, NetTrace
from .hpt import HotPathTable, HptEntry, HptResult
from .planreport import format_function_plan, format_plan
from .estimate import (EstimatedProfile, InstrumentedFraction,
                       build_estimated_profile, edge_profile_estimate,
                       evaluate_accuracy, evaluate_coverage,
                       evaluate_edge_coverage, instrumented_fraction,
                       measured_paths, path_dag_edges, path_is_instrumented)

__all__ = [
    "AddReg", "CountConst", "CountReg", "InstrOp", "SetReg", "describe",
    "static_block_weights", "static_edge_weights",
    "PathNumbering", "number_paths",
    "dag_edge_weights", "event_count", "max_weight_spanning_tree",
    "GLOBAL_COLD_FRACTION", "LOCAL_COLD_RATIO", "cold_cfg_edges",
    "live_dag_edges", "project_cold_to_dag",
    "OBVIOUS_LOOP_MIN_TRIPS", "all_paths_obvious", "defining_edges",
    "loop_average_trips", "loop_is_obvious", "obvious_loop_cold_edges",
    "CHECK_POISON_VALUE", "PlacementResult", "place_instrumentation",
    "HASH_SLOTS", "HASH_THRESHOLD", "HASH_TRIES", "ArrayStore",
    "CounterStore", "HashStore", "make_store",
    "DEFAULT_CONFIG", "FunctionPlan", "ModulePlan", "ProfileRun",
    "ProfilerConfig", "plan_pp", "plan_ppp", "plan_tpp",
    "ppp_config_only", "ppp_config_without", "run_with_plan",
    "PathStream", "Recording", "record_module",
    "ReplayError", "replay_plan",
    "NET_HOT_THRESHOLD", "NetResult", "NetSelector", "NetTrace",
    "HotPathTable", "HptEntry", "HptResult",
    "format_function_plan", "format_plan",
    "EstimatedProfile", "InstrumentedFraction", "build_estimated_profile",
    "edge_profile_estimate", "evaluate_accuracy", "evaluate_coverage",
    "evaluate_edge_coverage", "instrumented_fraction", "measured_paths",
    "path_dag_edges", "path_is_instrumented",
]
