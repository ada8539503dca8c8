"""The PP, TPP, and PPP instrumentation pipelines.

Planning turns a module (plus, for TPP/PPP, an edge profile) into a
:class:`ModulePlan`: per function, the profiling DAG, cold-edge set, path
numbering, event-counted increments, placed instrumentation, and counter
geometry.  :func:`run_with_plan` then executes the module with the plan's
instrumentation attached and returns the measured counters and overhead;
:func:`run_with_plans` does the same for many plans of one module in a
single execution.

The three planners differ exactly as the paper describes:

=====================  =======  ==========================  ============================
aspect                 PP       TPP                         PPP
=====================  =======  ==========================  ============================
cold edges             none     local 5%, only to avoid      local 5% OR global 0.1%,
                                hashing                      all routines, self-adjusting
obvious paths/loops    no       yes                          yes
skip covered routines  no       no                           >= 75% edge coverage
numbering              BL       BL                           by decreasing frequency
event-count weights    static   static                       edge profile
pushing                normal   stops at cold merges         through cold edges
poisoning              --       free (per Section 7.4)       free (check when FP is off)
=====================  =======  ==========================  ============================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Sequence

from ..cfg.dag import ProfilingDag, build_profiling_dag
from ..cfg.loops import find_loops
from ..interp.costs import CostModel, DEFAULT_COSTS
from ..interp.machine import RunResult
from ..ir.function import Function, Module
from ..profiles.definite import definite_flow_total
from ..profiles.edge_profile import EdgeProfile, FunctionEdgeProfile
from ..profiles.flowsets import DagFrequencies
from .cold import (GLOBAL_COLD_FRACTION, LOCAL_COLD_RATIO, cold_cfg_edges,
                   live_dag_edges)
from .events import dag_edge_weights, event_count
from .heuristics import static_edge_weights
from .numbering import PathNumbering, number_paths
from .obvious import (OBVIOUS_LOOP_MIN_TRIPS, all_paths_obvious,
                      obvious_loop_cold_edges)
from .placement import PlacementResult, place_instrumentation
from .runtime import HASH_THRESHOLD, CounterStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..profilers.base import Profiler
    from ..profilers.drive import ProfilersRun


@dataclass(frozen=True)
class ProfilerConfig:
    """All thresholds and PPP technique toggles (defaults per Section 7.4).

    The six toggles implement the leave-one-out study of Section 8.3:
    ``low_coverage_only`` (LC), ``global_criterion`` + ``self_adjusting``
    (GEC/SAC, evaluated together in the paper), ``push_through_cold``
    (Push), ``smart_numbering`` (SPN), ``free_poisoning`` (FP).
    """

    hash_threshold: int = HASH_THRESHOLD
    local_cold_ratio: float = LOCAL_COLD_RATIO
    global_cold_fraction: float = GLOBAL_COLD_FRACTION
    obvious_loop_trips: float = OBVIOUS_LOOP_MIN_TRIPS
    coverage_threshold: float = 0.75
    sac_multiplier: float = 1.5
    sac_max_iterations: int = 50
    # PPP technique toggles
    low_coverage_only: bool = True
    global_criterion: bool = True
    self_adjusting: bool = True
    push_through_cold: bool = True
    smart_numbering: bool = True
    free_poisoning: bool = True


DEFAULT_CONFIG = ProfilerConfig()


@dataclass
class FunctionPlan:
    """Everything decided about one function."""

    func: Function
    instrumented: bool
    reason: str = ""
    dag: Optional[ProfilingDag] = None
    cold_cfg: set[int] = field(default_factory=set)
    live: set[int] = field(default_factory=set)
    numbering: Optional[PathNumbering] = None
    increments: dict[int, int] = field(default_factory=dict)
    placement: Optional[PlacementResult] = None
    use_hash: bool = False
    poison_style: str = "free"
    coverage_estimate: Optional[float] = None
    sac_iterations: int = 0

    @property
    def num_paths(self) -> int:
        return self.numbering.total if self.numbering is not None else 0


@dataclass
class ModulePlan:
    """A full instrumentation plan for a module."""

    module: Module
    technique: str
    config: ProfilerConfig
    functions: dict[str, FunctionPlan]

    def any_instrumented(self) -> bool:
        return any(p.instrumented for p in self.functions.values())

    def instrumented_functions(self) -> list[str]:
        return [n for n, p in self.functions.items() if p.instrumented]

    def static_ops(self) -> int:
        return sum(p.placement.static_ops
                   for p in self.functions.values()
                   if p.instrumented and p.placement is not None)


# ----------------------------------------------------------------------
# Shared planning helpers
# ----------------------------------------------------------------------

def _finish_plan(plan: FunctionPlan, config: ProfilerConfig,
                 profile: Optional[FunctionEdgeProfile],
                 smart: bool, push_through_cold: bool,
                 poison_style: str) -> FunctionPlan:
    """Number, event-count, and place instrumentation for a live plan."""
    dag = plan.dag
    assert dag is not None
    func = plan.func
    if smart:
        assert profile is not None
        dag_freq = DagFrequencies(dag, profile).edge
        numbering = number_paths(dag, live=plan.live, order="smart",
                                 edge_freq=dag_freq)
        weights = dag_freq
    else:
        cfg_weights = static_edge_weights(func.cfg)
        numbering = number_paths(dag, live=plan.live, order="ballarus")
        weights = dag_edge_weights(dag, cfg_weights)
    if numbering.total == 0:
        plan.instrumented = False
        plan.reason = "no live paths"
        plan.numbering = numbering
        return plan
    increments = event_count(dag, plan.live, numbering.val, weights)
    placement = place_instrumentation(
        dag, plan.live, increments, numbering.total,
        push_ignore_cold=push_through_cold, poison_style=poison_style)
    plan.numbering = numbering
    plan.increments = increments
    plan.placement = placement
    plan.poison_style = poison_style
    plan.use_hash = numbering.total > config.hash_threshold
    return plan


# ----------------------------------------------------------------------
# PP
# ----------------------------------------------------------------------

def plan_pp(module: Module,
            config: ProfilerConfig = DEFAULT_CONFIG) -> ModulePlan:
    """Ball-Larus path profiling: instrument everything, static heuristics."""
    plans: dict[str, FunctionPlan] = {}
    for name, func in module.functions.items():
        dag = build_profiling_dag(func.cfg)
        plan = FunctionPlan(func, instrumented=True, dag=dag,
                            live={e.uid for e in dag.dag.edges()})
        plans[name] = _finish_plan(plan, config, None, smart=False,
                                   push_through_cold=False,
                                   poison_style="free")
    return ModulePlan(module, "pp", config, plans)


# ----------------------------------------------------------------------
# TPP
# ----------------------------------------------------------------------

def plan_tpp(module: Module, edge_profile: EdgeProfile,
             config: ProfilerConfig = DEFAULT_CONFIG) -> ModulePlan:
    """Targeted path profiling (Joshi et al., as implemented in the paper).

    Per Section 7.4 the paper's TPP uses PPP's free poisoning and marks
    disconnected loop entrances/exits cold; both are reproduced here.
    """
    plans: dict[str, FunctionPlan] = {}
    for name, func in module.functions.items():
        profile = edge_profile[name]
        if not profile.executed():
            plans[name] = FunctionPlan(func, False, reason="unexecuted")
            continue
        dag = build_profiling_dag(func.cfg)
        all_live = {e.uid for e in dag.dag.edges()}
        full = number_paths(dag, live=all_live)
        cold_cfg: set[int] = set()
        # Cold-path elimination only where it lets an array replace the
        # hash table (Section 3.2).
        if full.total > config.hash_threshold:
            candidate = cold_cfg_edges(func.cfg, profile,
                                       local_ratio=config.local_cold_ratio,
                                       global_fraction=None)
            pruned = number_paths(dag, live=live_dag_edges(dag, candidate))
            if 0 < pruned.total <= config.hash_threshold:
                cold_cfg = candidate
        # Obvious-loop disconnection (after cold removal).
        loops = find_loops(func.cfg)
        cold_cfg |= obvious_loop_cold_edges(
            func.cfg, loops, profile, cold_cfg,
            min_trips=config.obvious_loop_trips)
        live = live_dag_edges(dag, cold_cfg)
        plan = FunctionPlan(func, True, dag=dag, cold_cfg=cold_cfg,
                            live=live)
        if all_paths_obvious(dag.dag, live):
            plan.instrumented = False
            plan.reason = "all paths obvious"
            plan.numbering = number_paths(dag, live=live)
            plans[name] = plan
            continue
        plans[name] = _finish_plan(plan, config, profile, smart=False,
                                   push_through_cold=False,
                                   poison_style="free")
    return ModulePlan(module, "tpp", config, plans)


# ----------------------------------------------------------------------
# PPP
# ----------------------------------------------------------------------

def plan_ppp(module: Module, edge_profile: EdgeProfile,
             config: ProfilerConfig = DEFAULT_CONFIG) -> ModulePlan:
    """Practical path profiling with all six techniques (toggleable)."""
    total_unit_flow = edge_profile.total_unit_flow()
    plans: dict[str, FunctionPlan] = {}
    for name, func in module.functions.items():
        profile = edge_profile[name]
        if not profile.executed():
            plans[name] = FunctionPlan(func, False, reason="unexecuted")
            continue
        # Technique 1 (LC): skip routines the edge profile already covers.
        coverage_estimate: Optional[float] = None
        if config.low_coverage_only:
            routine_flow = profile.branch_flow()
            if routine_flow > 0:
                coverage_estimate = (definite_flow_total(func, profile)
                                     / routine_flow)
            else:
                coverage_estimate = 1.0
            if coverage_estimate >= config.coverage_threshold:
                plans[name] = FunctionPlan(
                    func, False, reason="high edge-profile coverage",
                    coverage_estimate=coverage_estimate)
                continue
        dag = build_profiling_dag(func.cfg)
        loops = find_loops(func.cfg)

        def cold_set(global_fraction: Optional[float]) -> set[int]:
            cold = cold_cfg_edges(
                func.cfg, profile, local_ratio=config.local_cold_ratio,
                global_fraction=global_fraction,
                total_unit_flow=total_unit_flow)
            cold |= obvious_loop_cold_edges(
                func.cfg, loops, profile, cold,
                min_trips=config.obvious_loop_trips)
            return cold

        # Technique 2 (GEC): global criterion alongside the local one.
        global_fraction = (config.global_cold_fraction
                           if config.global_criterion else None)
        cold_cfg = cold_set(global_fraction)
        live = live_dag_edges(dag, cold_cfg)
        numbering = number_paths(dag, live=live)
        # Technique 3 (SAC): raise the global threshold until the counter
        # array fits.
        sac_iterations = 0
        if config.self_adjusting and config.global_criterion:
            fraction = config.global_cold_fraction
            while (numbering.total > config.hash_threshold
                   and sac_iterations < config.sac_max_iterations):
                fraction *= config.sac_multiplier
                sac_iterations += 1
                cold_cfg = cold_set(fraction)
                live = live_dag_edges(dag, cold_cfg)
                numbering = number_paths(dag, live=live)
        plan = FunctionPlan(func, True, dag=dag, cold_cfg=cold_cfg,
                            live=live, coverage_estimate=coverage_estimate,
                            sac_iterations=sac_iterations)
        if all_paths_obvious(dag.dag, live):
            plan.instrumented = False
            plan.reason = "all paths obvious"
            plan.numbering = number_paths(dag, live=live)
            plans[name] = plan
            continue
        plans[name] = _finish_plan(
            plan, config, profile,
            smart=config.smart_numbering,                 # technique 5 (SPN)
            push_through_cold=config.push_through_cold,   # technique 4 (Push)
            poison_style=("free" if config.free_poisoning  # technique 6 (FP)
                          else "check"))
    return ModulePlan(module, "ppp", config, plans)


# ----------------------------------------------------------------------
# Execution with a plan
# ----------------------------------------------------------------------

@dataclass
class ProfileRun:
    """Result of executing a module with instrumentation attached."""

    plan: ModulePlan
    run: RunResult
    stores: dict[str, CounterStore]
    # Results of any extra profilers run alongside the plan's path
    # counters (profiler name -> collected result).
    profiles: dict[str, object] = field(default_factory=dict)

    @property
    def overhead(self) -> float:
        """Instrumentation cost over baseline cost (the paper's Figure 12
        quantity under the deterministic cost model)."""
        return self.run.costs.overhead

    @classmethod
    def of_account(cls, plan: ModulePlan, run: "ProfilersRun"
                   ) -> "ProfileRun":
        """The plan's run, from the collection of its
        :func:`plan_account`: the ``path`` plugin's counter stores, and
        the other profilers' results."""
        from ..profilers import PathPlanProfiler

        stores = dict(run.profiles.pop(PathPlanProfiler.name))
        return cls(plan, run.result, stores, profiles=run.profiles)


def plan_account(plan: ModulePlan, profilers: tuple[str, ...] = ()
                 ) -> list["Profiler"]:
    """The account a plan's lone :func:`run_with_plan` attaches: the
    plan's path counters as the plan-bound ``path`` plugin, plus fresh
    instances of the extra registered ``profilers`` (their ops share the
    account's edge hooks and cost counter, so its overhead includes
    them)."""
    # Imported lazily: repro.profilers imports this module for the plan
    # types, so a top-level import would be circular.
    from ..profilers import PathPlanProfiler, create_profilers

    return [PathPlanProfiler(plan), *create_profilers(profilers)]


def run_with_plans(plans: Sequence[ModulePlan],
                   cost_model: CostModel = DEFAULT_COSTS,
                   max_instructions: int = 500_000_000,
                   backend: str | None = None,
                   profilers: tuple[str, ...] = ()) -> list[ProfileRun]:
    """Execute one module's main once with every plan's instrumentation
    attached, each plan as its own account.

    ``plans`` must be non-empty and all of one module (the first plan's
    module object runs).  A plan's account is its :func:`plan_account`.
    Each account counts on its own path register and bills its own cost
    counter, so every :class:`ProfileRun` equals the plan's lone run; the
    return value, instruction count, invocations and base cost are
    shared.
    """
    from ..profilers.drive import execute_profilers

    runs = execute_profilers(
        plans[0].module, [plan_account(plan, profilers) for plan in plans],
        cost_model=cost_model, max_instructions=max_instructions,
        backend=backend)
    return [ProfileRun.of_account(plan, run) for plan, run in zip(plans, runs)]


def run_with_plan(plan: ModulePlan, cost_model: CostModel = DEFAULT_COSTS,
                  max_instructions: int = 500_000_000,
                  backend: str | None = None,
                  profilers: tuple[str, ...] = ()) -> ProfileRun:
    """Execute the module's main with the plan's instrumentation attached
    (:func:`run_with_plans` with one plan)."""
    return run_with_plans([plan], cost_model=cost_model,
                          max_instructions=max_instructions,
                          backend=backend, profilers=profilers)[0]


def ppp_config_without(technique: str) -> ProfilerConfig:
    """The leave-one-out configs of Figure 13.

    ``technique`` is one of ``"SAC"`` (global criterion + self-adjusting,
    evaluated together as in the paper), ``"FP"``, ``"Push"``, ``"SPN"``,
    ``"LC"``.
    """
    if technique == "SAC":
        return replace(DEFAULT_CONFIG, global_criterion=False,
                       self_adjusting=False)
    if technique == "FP":
        return replace(DEFAULT_CONFIG, free_poisoning=False)
    if technique == "Push":
        return replace(DEFAULT_CONFIG, push_through_cold=False)
    if technique == "SPN":
        return replace(DEFAULT_CONFIG, smart_numbering=False)
    if technique == "LC":
        return replace(DEFAULT_CONFIG, low_coverage_only=False)
    raise ValueError(f"unknown technique {technique!r}")


def ppp_config_only(technique: str) -> ProfilerConfig:
    """One-at-a-time configs (Section 8.3's alternative methodology):
    TPP-equivalent PPP plus a single technique."""
    none = replace(DEFAULT_CONFIG, low_coverage_only=False,
                   global_criterion=False, self_adjusting=False,
                   push_through_cold=False, smart_numbering=False,
                   free_poisoning=True)
    if technique == "none":
        return none
    if technique == "SAC":
        return replace(none, global_criterion=True, self_adjusting=True)
    if technique == "FP":
        return none  # free poisoning is already the shared baseline
    if technique == "Push":
        return replace(none, push_through_cold=True)
    if technique == "SPN":
        return replace(none, smart_numbering=True)
    if technique == "LC":
        return replace(none, low_coverage_only=True)
    raise ValueError(f"unknown technique {technique!r}")
