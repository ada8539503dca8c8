"""Run a module under any set of registered profilers.

The driver is the composition point of the plugin framework: it ORs the
selected profilers' native channels into the machine's constructor
flags, fuses their per-edge ops into single hooks via
:func:`repro.core.attach.attach_observations` (on the compiled backend
those hooks fill per-edge slots of the generated code, which every
profiler selection shares), runs the program once, and harvests one
result per profiler.  Edge counting has one mechanism: when any
profiler claims the edge-profile channel, the machine counts each
function's cotree probes and reconstructs the full counts itself.

One run can serve several *accounts*: each account is the profiler
list one lone run would have had, and it gets its own path registers,
its own cost counter and its own :class:`ProfilersRun` -- equal to the
lone run's -- while the program executes once.  This is how
:func:`~repro.core.pipeline.run_with_plans` scores many plans of one
module on a single execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from ..core.attach import Contribution, attach_observations
from ..interp.costs import CostCounter, CostModel, DEFAULT_COSTS
from ..interp.machine import Machine, RunResult
from ..ir.function import Module
from .base import ModuleObservations, Profiler

DEFAULT_MAX_INSTRUCTIONS = 500_000_000


@dataclass
class ProfilersRun:
    """One execution observed by a set of profilers."""

    result: RunResult
    #: profiler name -> that profiler's collected result
    profiles: dict[str, object] = field(default_factory=dict)

    @property
    def overhead(self) -> float:
        return self.result.costs.overhead


@dataclass
class Account:
    """One profiler list's share of a run: each profiler with its placed
    observations, and the counter its instrumentation bills."""

    attached: List[Tuple[Profiler, ModuleObservations]]
    costs: CostCounter = field(default_factory=CostCounter)

    def collect(self, machine: Machine, result: RunResult) -> ProfilersRun:
        """This account's run after ``machine`` ran: the shared result
        with this account's costs, the native channels only it asked
        for, and one collected result per profiler."""
        self.costs.base = result.costs.base
        profilers = [profiler for profiler, _ in self.attached]
        own = replace(
            result, costs=self.costs,
            edge_counts=(result.edge_counts if any(
                p.channels.edge_profile for p in profilers) else None),
            path_counts=(result.path_counts if any(
                p.channels.trace_paths for p in profilers) else None))
        return ProfilersRun(own, {profiler.name: profiler.collect(machine, obs)
                                  for profiler, obs in self.attached})


def build_machine(module: Module, accounts: Sequence[Sequence[Profiler]],
                  cost_model: CostModel = DEFAULT_COSTS,
                  max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                  backend: Optional[str] = None
                  ) -> Tuple[Machine, List[Account]]:
    """A machine with every account's channels enabled and observations
    attached (ops fused per edge, accounts in order, each account's
    profilers in order), plus the accounts, needed to collect results
    later."""
    for profilers in accounts:
        names = [p.name for p in profilers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate profilers selected: {names}")
    everyone = [p for profilers in accounts for p in profilers]
    machine = Machine(
        module,
        collect_edge_profile=any(p.channels.edge_profile for p in everyone),
        trace_paths=any(p.channels.trace_paths for p in everyone),
        cost_model=cost_model, max_instructions=max_instructions,
        backend=backend)
    built: List[Account] = []
    per_func: dict[str, list[tuple[CostCounter, list[Contribution]]]] = {}
    for profilers in accounts:
        account = Account([(p, p.instrument(module, cost_model))
                           for p in profilers])
        built.append(account)
        own: dict[str, list[Contribution]] = {}
        for _, obs in account.attached:
            for fname, fobs in obs.functions.items():
                own.setdefault(fname, []).append(
                    (fobs.edge_ops, fobs.context))
        for fname, contributions in own.items():
            per_func.setdefault(fname, []).append(
                (account.costs, contributions))
    for fname, func_accounts in per_func.items():
        attach_observations(machine, fname, func_accounts)
    return machine, built


def execute_profilers(module: Module, accounts: Sequence[Sequence[Profiler]],
                      cost_model: CostModel = DEFAULT_COSTS,
                      max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                      backend: Optional[str] = None) -> List[ProfilersRun]:
    """Run the module's main once under every account's profilers; one
    :class:`ProfilersRun` per account, in order."""
    machine, built = build_machine(
        module, accounts, cost_model=cost_model,
        max_instructions=max_instructions, backend=backend)
    result = machine.run()
    return [account.collect(machine, result) for account in built]
