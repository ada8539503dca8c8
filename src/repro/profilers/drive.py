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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.attach import Contribution, attach_observations
from ..interp.costs import CostModel, DEFAULT_COSTS
from ..interp.machine import Machine, RunResult
from ..ir.function import Module
from .base import ModuleObservations, Profiler

DEFAULT_MAX_INSTRUCTIONS = 500_000_000

Attached = List[Tuple[Profiler, ModuleObservations]]


@dataclass
class ProfilersRun:
    """One execution observed by a set of profilers."""

    result: RunResult
    #: profiler name -> that profiler's collected result
    profiles: dict[str, object] = field(default_factory=dict)

    @property
    def overhead(self) -> float:
        return self.result.costs.overhead


def build_machine(module: Module, profilers: Sequence[Profiler],
                  cost_model: CostModel = DEFAULT_COSTS,
                  max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                  backend: Optional[str] = None
                  ) -> Tuple[Machine, Attached]:
    """A machine with every profiler's channels enabled and observations
    attached (ops fused per edge, in profiler order), plus the
    per-profiler observation records needed to collect results later."""
    names = [p.name for p in profilers]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate profilers selected: {names}")
    machine = Machine(
        module,
        collect_edge_profile=any(p.channels.edge_profile for p in profilers),
        trace_paths=any(p.channels.trace_paths for p in profilers),
        cost_model=cost_model, max_instructions=max_instructions,
        backend=backend)
    attached: Attached = []
    per_func: dict[str, list[Contribution]] = {}
    for profiler in profilers:
        obs = profiler.instrument(module, cost_model)
        attached.append((profiler, obs))
        for fname, fobs in obs.functions.items():
            per_func.setdefault(fname, []).append(
                (fobs.edge_ops, fobs.context))
    for fname, contributions in per_func.items():
        attach_observations(machine, fname, contributions)
    return machine, attached


def execute_profilers(module: Module, profilers: Sequence[Profiler],
                      cost_model: CostModel = DEFAULT_COSTS,
                      max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                      backend: Optional[str] = None) -> ProfilersRun:
    """Run the module's main once under ``profilers``."""
    machine, attached = build_machine(
        module, profilers, cost_model=cost_model,
        max_instructions=max_instructions, backend=backend)
    result = machine.run()
    return ProfilersRun(result, {profiler.name: profiler.collect(machine, obs)
                                 for profiler, obs in attached})
