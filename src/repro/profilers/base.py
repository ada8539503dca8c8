"""The profiler plugin protocol.

A :class:`Profiler` packages one kind of dynamic observation -- what to
watch (declared as observation ops on CFG edges, or as native machine
channels) and how to harvest the result after a run.  The engine
composes any number of profilers over one execution: their ops are
fused into single per-edge hooks by
:func:`repro.core.attach.attach_observations`, billed through the shared
cost model, and -- on the compiled backend -- folded into the generated
segments exactly like the Ball-Larus instrumentation.

Observation kinds map onto the machine like this:

* **per-edge** -- ops in :attr:`FunctionObservations.edge_ops`, keyed by
  CFG edge uid; each op runs once per traversal of its edge.
* **per-block** -- lowered to per-edge ops on every *outgoing* edge of
  the block (:func:`block_exit_uids`): exactly one outgoing edge fires
  per block execution, so the op observes each completed execution of
  the block.  Blocks ending in ``Ret`` have no outgoing edge and are
  therefore unobserved; profilers needing exit blocks must say so.
* **per-call** -- the machine counts invocations natively and
  unconditionally; profilers read them in :meth:`Profiler.collect`.

Ground-truth channels (edge counting, path tracing) stay native machine
fast paths; a profiler claims them through :attr:`Profiler.channels`
instead of re-implementing them as ops, which is what keeps the builtin
profilers byte-identical to the pre-plugin pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Mapping, Sequence

from ..core.attach import HookContext
from ..core.ops import ObservationOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..interp.costs import CostModel
    from ..interp.machine import Machine
    from ..ir.function import Function, Module


@dataclass(frozen=True)
class MachineChannels:
    """Native observation channels a profiler asks the machine to run.

    The driver ORs the channels of every selected profiler into the
    machine's constructor flags; invocation counting is always on and
    needs no flag.
    """

    edge_profile: bool = False
    trace_paths: bool = False


@dataclass
class FunctionObservations:
    """One profiler's placed observations for one function.

    ``edge_ops`` maps CFG edge uid to the op list to execute on each
    traversal; ``context`` is what those ops close over when compiled
    (counter store, profiler collection state, cost model).
    """

    edge_ops: Mapping[int, Sequence[ObservationOp]]
    context: HookContext


@dataclass
class ModuleObservations:
    """A profiler's placed observations for a whole module."""

    functions: dict[str, FunctionObservations] = field(default_factory=dict)


class Profiler:
    """Base class every profiler plugin subclasses.

    Class attributes identify the plugin in the registry; the two
    methods are the whole runtime contract:

    * :meth:`instrument` decides *what to observe* -- pure planning, no
      machine mutation.  Channel-only profilers return an empty
      :class:`ModuleObservations`.
    * :meth:`collect` harvests *this profiler's* result after a run.
      The returned value must be plain picklable data (it travels
      through the artifact cache and across worker processes).

    Profilers holding collection state (tables their ops write into)
    allocate it in :meth:`instrument` and reach it again in
    :meth:`collect` via the contexts stored in the observations --
    instances are therefore single-use per run, like counter stores.
    """

    name: ClassVar[str] = ""
    description: ClassVar[str] = ""
    #: Plan-bound profilers (the Ball-Larus path counter) cannot be
    #: constructed from the registry by name alone.
    requires_plan: ClassVar[bool] = False
    channels: ClassVar[MachineChannels] = MachineChannels()

    def instrument(self, module: "Module",
                   cost_model: "CostModel") -> ModuleObservations:
        """Place this profiler's observation ops over ``module``."""
        return ModuleObservations()

    def collect(self, machine: "Machine",
                obs: ModuleObservations) -> object:
        """Harvest the result after ``machine`` finished running."""
        raise NotImplementedError


def block_exit_uids(func: "Function", block: str) -> tuple[int, ...]:
    """The uids of ``block``'s outgoing CFG edges, in deterministic
    (CFG construction) order -- the lowering target for per-block
    observations."""
    table = func.edge_by_target.get(block)
    if not table:
        return ()
    return tuple(edge.uid for edge in table.values())
