"""Static analysis and verification over the profiling pipeline.

Three layers, all reporting structured :class:`Diagnostic` records:

* :mod:`repro.analysis.dataflow` — a generic worklist framework over
  :mod:`repro.cfg` graphs with reaching-definitions, definite-
  assignment, liveness, and dominance-frontier clients;
* :mod:`repro.analysis.lint` — advisory IR lint passes built on the
  framework (use-before-def, dead stores, unreachable blocks, constant
  branches, shadowed names, duplicate branch targets);
* :mod:`repro.analysis.verify` — the static plan verifier proving the
  Ball–Larus numbering/placement/poisoning invariants for PP/TPP/PPP
  plans, plus :mod:`repro.analysis.mutate` for seeding corruptions the
  verifier must catch;
* :mod:`repro.analysis.symexec` / :mod:`repro.analysis.equiv` — the
  translation validator: a concolic symbolic executor over the register
  IR, a codegen client proving the compiled backend's generated Python
  equivalent to the IR it was emitted from, and a pass client proving a
  per-pass simulation relation between pre- and post-optimization CFGs;
* :mod:`repro.analysis.conservation` — flow-conservation counter
  inference: spanning-tree probe placements, the reconstruction solver,
  and the V6xx proof pass in :mod:`repro.analysis.verify` that certifies
  a placement's unique solvability and exact round-trip;
* :mod:`repro.analysis.match` / :mod:`repro.analysis.transfer` —
  stale-profile matching: deterministic anchor matching between two IR
  modules (content hashes, call/const anchors, neighbourhood hashing),
  profile transfer across the match repaired to exact flow
  conservation, and the V7xx proof pass in :mod:`repro.analysis.verify`
  that certifies match soundness and transfer exactness.
"""

from .conservation import (ConservationError, ProbePlacement, ReconStep,
                           VIRTUAL_UID, basis_flows, block_counts,
                           enumerate_walk_flows, measured_edge_weights,
                           plan_function_probes, plan_probes, reconstruct,
                           static_placement)

from .dataflow import (DataflowProblem, DataflowResult, Def,
                       DefiniteAssignment, DominatorSets, LiveRegisters,
                       ReachingDefinitions, dominance_frontiers, solve)
from .diagnostics import Diagnostic, Report, Severity
from .equiv import (PASS_NAMES, CodegenValidationError, ExploreLimits,
                    apply_pass, check_function_codegen, check_generated,
                    check_module_codegen, check_pass, equiv_module,
                    equiv_suite, standard_modes)
from .lint import lint_function, lint_module
from .match import (BlockMatch, BlockSketch, EdgeMatch, FunctionMatch,
                    FunctionSketch, ModuleMatch, ModuleSketch,
                    clear_match_memo, match_function_sketches,
                    match_modules, match_sketches, sketch_from_dict,
                    sketch_function, sketch_module, sketch_to_dict)
from .mutate import (CODEGEN_MUTATIONS, CONSERVATION_MUTATIONS,
                     MATCH_MUTATIONS, MUTATIONS, PASS_MUTATIONS,
                     applicable_mutations, mutate_module,
                     mutate_placement, mutate_plan, mutate_source,
                     mutate_transfer)
from .sampling import SAMPLE_TARGET, sample_ids, sample_stride
from .symexec import (IRSymbolicExecutor, SymState, Term, TermFactory,
                      format_term, ops_equal)
from .transfer import (FunctionTransfer, TransferResult, TransferStats,
                       conservation_violations, remap_edge_profile,
                       transfer_edge_profile, transfer_function_counts,
                       transfer_path_profile)
from .verify import (DEFAULT_PATH_CAP, PlanVerificationError,
                     conserve_suite, match_suite, verify_conservation,
                     verify_conservation_function, verify_function_plan,
                     verify_match, verify_module_plan,
                     verify_observations, verify_placement,
                     verify_suite, verify_transfer)

__all__ = [
    "ConservationError", "ProbePlacement", "ReconStep", "VIRTUAL_UID",
    "basis_flows", "block_counts", "enumerate_walk_flows",
    "measured_edge_weights", "plan_function_probes", "plan_probes",
    "reconstruct", "static_placement",
    "DataflowProblem", "DataflowResult", "Def", "DefiniteAssignment",
    "DominatorSets", "LiveRegisters", "ReachingDefinitions",
    "dominance_frontiers", "solve",
    "Diagnostic", "Report", "Severity",
    "PASS_NAMES", "CodegenValidationError", "ExploreLimits", "apply_pass",
    "check_function_codegen", "check_generated", "check_module_codegen",
    "check_pass", "equiv_module", "equiv_suite", "standard_modes",
    "lint_function", "lint_module",
    "BlockMatch", "BlockSketch", "EdgeMatch", "FunctionMatch",
    "FunctionSketch", "ModuleMatch", "ModuleSketch", "clear_match_memo",
    "match_function_sketches", "match_modules", "match_sketches",
    "sketch_from_dict", "sketch_function", "sketch_module",
    "sketch_to_dict",
    "CODEGEN_MUTATIONS", "CONSERVATION_MUTATIONS", "MATCH_MUTATIONS",
    "MUTATIONS", "PASS_MUTATIONS", "applicable_mutations",
    "mutate_module", "mutate_placement", "mutate_plan", "mutate_source",
    "mutate_transfer",
    "SAMPLE_TARGET", "sample_ids", "sample_stride",
    "IRSymbolicExecutor", "SymState", "Term", "TermFactory",
    "format_term", "ops_equal",
    "FunctionTransfer", "TransferResult", "TransferStats",
    "conservation_violations", "remap_edge_profile",
    "transfer_edge_profile", "transfer_function_counts",
    "transfer_path_profile",
    "DEFAULT_PATH_CAP", "PlanVerificationError", "conserve_suite",
    "match_suite", "verify_conservation",
    "verify_conservation_function", "verify_function_plan",
    "verify_match", "verify_module_plan", "verify_observations",
    "verify_placement", "verify_suite", "verify_transfer",
]
