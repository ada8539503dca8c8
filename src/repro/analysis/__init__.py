"""Static analysis and verification over the profiling pipeline.

Every pass reports structured :class:`Diagnostic` records:

* :mod:`~repro.analysis.dataflow` -- a worklist framework over
  :mod:`repro.cfg` graphs (reaching definitions, definite assignment,
  liveness, dominance frontiers), and :mod:`~repro.analysis.lint`'s
  advisory IR lint passes built on it;
* :mod:`~repro.analysis.verify` -- the static plan verifier for the
  Ball–Larus numbering/placement/poisoning invariants of PP/TPP/PPP
  plans, with :mod:`~repro.analysis.mutate` seeding the corruptions it
  must catch;
* :mod:`~repro.analysis.symexec` / :mod:`~repro.analysis.equiv` -- the
  translation validator: generated code and each optimization pass
  proven equivalent to their IR by concolic symbolic execution;
* :mod:`~repro.analysis.conservation` -- spanning-tree probe placement
  and flow-conservation reconstruction (proved by V6xx in ``verify``);
* :mod:`~repro.analysis.match` / :mod:`~repro.analysis.transfer` --
  stale-profile matching between two IR modules and profile transfer
  repaired to exact flow conservation (proved by V7xx in ``verify``).

Every name below is re-exported lazily (PEP 562): ``from repro.analysis
import X`` imports only X's submodule, so an edge-profiled run, which
needs just :mod:`repro.analysis.conservation`, loads nothing else.
"""

from __future__ import annotations

import importlib

# exported name -> its submodule, in ``__all__`` order
_HOME = {name: module for module, names in (
    ("conservation", "ConservationError ProbePlacement ReconStep VIRTUAL_UID "
     "basis_flows enumerate_walk_flows plan_function_probes plan_probes "
     "reconstruct static_placement"),
    ("dataflow", "DataflowProblem DataflowResult Def DefiniteAssignment "
     "DominatorSets LiveRegisters ReachingDefinitions solve"),
    ("diagnostics", "Diagnostic Report Severity"),
    ("equiv", "PASS_NAMES CodegenValidationError ExploreLimits apply_pass "
     "check_function_codegen check_generated check_module_codegen check_pass "
     "equiv_module equiv_suite standard_modes"),
    ("lint", "lint_function lint_module"),
    ("match", "BlockMatch BlockSketch EdgeMatch FunctionMatch FunctionSketch "
     "ModuleMatch ModuleSketch clear_match_memo match_function_sketches "
     "match_modules match_sketches sketch_from_dict sketch_function "
     "sketch_module sketch_to_dict"),
    ("mutate", "CODEGEN_MUTATIONS CONSERVATION_MUTATIONS MATCH_MUTATIONS "
     "MUTATIONS PASS_MUTATIONS mutate_module "
     "mutate_placement mutate_plan mutate_source mutate_transfer"),
    ("sampling", "SAMPLE_TARGET sample_ids"),
    ("symexec", "IRSymbolicExecutor SymState Term TermFactory format_term "
     "ops_equal"),
    ("transfer", "FunctionTransfer TransferResult TransferStats "
     "conservation_violations remap_edge_profile transfer_edge_profile "
     "transfer_function_counts transfer_path_profile"),
    ("verify", "DEFAULT_PATH_CAP PlanVerificationError conserve_suite "
     "match_suite verify_conservation verify_conservation_function "
     "verify_function_plan verify_match verify_module_plan "
     "verify_observations verify_placement verify_suite verify_transfer"),
) for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name: str) -> object:
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
