"""The IR interpreter (virtual machine).

The machine executes an IR :class:`~repro.ir.function.Module` and provides
the three observation channels the reproduction needs:

* **edge profiling** -- per-function edge traversal counts plus invocation
  counts, from which :mod:`repro.profiles` builds edge profiles.  Like
  the paper's event counting (Section 3.1), the machine counts only the
  cotree probes of a spanning tree and reconstructs every other edge
  count by flow conservation (:mod:`repro.analysis.conservation`);
* **ground-truth path tracing** -- exact Ball-Larus path counts (a back
  edge ends the current path; a call defers the caller's path; routine
  entry/exit start/end paths), the oracle all estimated profiles are
  scored against;
* **edge hooks** -- arbitrary callables attached to CFG edges, which is how
  PP/TPP/PPP instrumentation executes: the hook runs exactly when its edge
  is traversed, just like instrumentation code inserted on that edge.

Semantics notes: registers are implicitly zero-initialised per activation;
array indices wrap modulo the array length; division by zero yields zero.
These choices keep every workload deterministic and crash-free, which
matters because profiling must never change program behaviour.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

from ..ir.function import Function, Module
from ..ir.instructions import (BinOp, Branch, Call, Const, GlobalLoad,
                               GlobalStore, Jump, Load, Mov, Ret, Select,
                               Store, UnOp)
from ..cfg.loops import find_back_edges
from .costs import CostCounter, CostModel, DEFAULT_COSTS

# Opcodes of the compiled (tuple) representation.
_CONST, _MOV, _BINOP, _UNOP, _LOAD, _STORE = 0, 1, 2, 3, 4, 5
_GLOAD, _GSTORE, _CALL, _JUMP, _BRANCH, _RET = 6, 7, 8, 9, 10, 11
_SELECT = 12


def _c_div(a, b):
    if b == 0:
        return 0
    if isinstance(a, int) and isinstance(b, int):
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    return a / b


def _c_mod(a, b):
    if b == 0:
        return 0
    if isinstance(a, int) and isinstance(b, int):
        r = abs(a) % abs(b)
        return r if a >= 0 else -r
    return a - b * int(a / b)


_BIN_FNS: dict[str, Callable] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _c_div,
    "%": _c_mod,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "&": lambda a, b: int(a) & int(b),
    "|": lambda a, b: int(a) | int(b),
    "^": lambda a, b: int(a) ^ int(b),
    "<<": lambda a, b: int(a) << (int(b) & 63),
    ">>": lambda a, b: int(a) >> (int(b) & 63),
}

_UN_FNS: dict[str, Callable] = {
    "-": lambda a: -a,
    "!": lambda a: 1 if a == 0 else 0,
    "~": lambda a: ~int(a),
}


class MachineError(Exception):
    """Raised for runtime failures (unknown function, step limit, ...)."""


# Execution backends: "compiled" translates each function to Python
# source, compiling each segment on first entry (fast path); "tuple" is
# the original tuple-dispatch interpreter, kept as the reference
# implementation.
VALID_BACKENDS = ("compiled", "tuple")
DEFAULT_BACKEND = "compiled"


def resolve_backend(backend: Optional[str] = None) -> str:
    """Pick the execution backend: explicit argument, else the
    ``REPRO_BACKEND`` environment variable, else the default."""
    chosen = backend or os.environ.get("REPRO_BACKEND") or DEFAULT_BACKEND
    if chosen not in VALID_BACKENDS:
        raise MachineError(
            f"unknown backend {chosen!r}; expected one of "
            f"{', '.join(VALID_BACKENDS)}")
    return chosen


EdgeHook = Callable[["Frame"], None]


class Frame:
    """One activation: registers, local arrays, and path-profiling state.

    ``path_reg`` is the Ball-Larus path register, which instrumentation
    steps read and write and the program never names.  ``path_id`` is
    the ground-truth tracer's own id of the path in progress (compiled
    backend; see :class:`~repro.interp.codegen.PathIds`), so tracing and
    instrumentation never share a register.
    """

    __slots__ = ("func_name", "regs", "arrays", "block", "ip", "ret_dst",
                 "path_reg", "path_id", "pstate")

    def __init__(self, func_name: str, num_slots: int,
                 arrays: dict[str, list], entry: str):
        self.func_name = func_name
        self.regs: list = [0] * num_slots
        self.arrays = arrays
        self.block = entry
        self.ip = 0
        self.ret_dst: Optional[int] = None  # caller slot for the return value
        self.path_reg = 0  # Ball-Larus path register (per activation)
        self.path_id = 0  # compiled tracer's path in progress
        # Per-activation scratch for profiler plugins (e.g. live loop
        # trip counters); lazily allocated by the first op that needs it.
        self.pstate: Optional[dict] = None


class _CompiledFunction:
    """Per-function lookup tables built once per Machine."""

    __slots__ = ("func", "blocks", "entry", "exit", "param_slots",
                 "num_slots", "array_sizes", "edge_uid", "uid_edge",
                 "is_back", "hooks", "edge_counters", "counter_uids",
                 "hook_slots", "slot_index", "probe_keys", "trace_base")

    def __init__(self, func: Function, module: Module):
        if not func.sealed:
            raise MachineError(f"function {func.name!r} is not sealed")
        self.func = func
        self.entry = func.cfg.entry
        self.exit = func.cfg.exit
        self.num_slots = func.num_slots
        self.param_slots = [func.register_slots[p] for p in func.params]
        self.array_sizes = dict(func.arrays)
        slots = func.register_slots
        self.blocks: dict[str, list[tuple]] = {}
        for name, block in func.cfg.blocks.items():
            self.blocks[name] = [
                self._compile(instr, slots, func, module)
                for instr in block.instructions
            ]
        # (block, target) -> cfg edge uid, and whether that edge is a back
        # edge; uid_edge is the O(1) reverse index set_edge_hook uses
        # (plans attach hundreds of hooks per module).
        self.edge_uid: dict[tuple[str, str], int] = {}
        self.uid_edge: dict[int, tuple[str, str]] = {}
        self.is_back: dict[tuple[str, str], bool] = {}
        back_uids = {e.uid for e in find_back_edges(func.cfg)}
        for bname, table in func.edge_by_target.items():
            for target, edge in table.items():
                self.edge_uid[(bname, target)] = edge.uid
                self.uid_edge[edge.uid] = (bname, target)
                self.is_back[(bname, target)] = edge.uid in back_uids
        self.hooks: dict[tuple[str, str], EdgeHook] = {}
        # Compiled backend only, built when the function is first
        # generated: the probe counters (``_ec``) and their uids, and --
        # once generated with the hooks channel -- ``hooks`` as the slot
        # list the code reads (``_hk``), both indexed by the codegen's
        # dense edge order (``slot_index``).
        self.edge_counters: Optional[list] = None
        self.counter_uids: tuple[int, ...] = ()
        self.hook_slots: Optional[list] = None
        self.slot_index: dict[tuple[str, str], int] = {}
        # The (block, target) keys of the cotree probes, the only edges
        # that carry a counter; empty unless the Machine counts edges.
        self.probe_keys: frozenset = frozenset()
        # Compiled backend, traced: the offset of this function's path
        # ids in the machine's id space, set when first generated.
        self.trace_base: Optional[int] = None

    def _compile(self, instr, slots: dict[str, int], func: Function,
                 module: Module) -> tuple:
        s = slots.__getitem__
        if isinstance(instr, Const):
            return (_CONST, s(instr.dst), instr.value)
        if isinstance(instr, Mov):
            return (_MOV, s(instr.dst), s(instr.src))
        if isinstance(instr, BinOp):
            return (_BINOP, _BIN_FNS[instr.op], s(instr.dst),
                    s(instr.a), s(instr.b))
        if isinstance(instr, UnOp):
            return (_UNOP, _UN_FNS[instr.op], s(instr.dst), s(instr.a))
        if isinstance(instr, Load):
            scope = "local" if instr.array in func.arrays else "global"
            return (_LOAD, s(instr.dst), scope, instr.array, s(instr.idx))
        if isinstance(instr, Store):
            scope = "local" if instr.array in func.arrays else "global"
            return (_STORE, scope, instr.array, s(instr.idx), s(instr.src))
        if isinstance(instr, GlobalLoad):
            return (_GLOAD, s(instr.dst), instr.name)
        if isinstance(instr, GlobalStore):
            return (_GSTORE, instr.name, s(instr.src))
        if isinstance(instr, Call):
            dst = s(instr.dst) if instr.dst is not None else None
            return (_CALL, dst, instr.func, tuple(s(a) for a in instr.args))
        if isinstance(instr, Jump):
            return (_JUMP, instr.target)
        if isinstance(instr, Branch):
            return (_BRANCH, s(instr.cond), instr.then_target,
                    instr.else_target)
        if isinstance(instr, Ret):
            return (_RET, s(instr.src) if instr.src is not None else None)
        if isinstance(instr, Select):
            return (_SELECT, s(instr.dst), s(instr.cond), s(instr.a),
                    s(instr.b))
        raise MachineError(f"cannot compile {instr!r}")  # pragma: no cover


@dataclass
class RunResult:
    """Everything one execution observed."""

    return_value: object
    instructions_executed: int
    costs: CostCounter
    # func name -> cfg edge uid -> traversal count
    edge_counts: Optional[dict[str, dict[int, int]]] = None
    # func name -> invocation count
    invocations: Optional[dict[str, int]] = None
    # func name -> path (tuple of block names) -> count
    path_counts: Optional[dict[str, dict[tuple[str, ...], int]]] = None

    @property
    def overhead(self) -> float:
        return self.costs.overhead


class Machine:
    """Executes a module; see the module docstring for the observation modes.

    Parameters
    ----------
    module:
        A sealed, validated IR module.
    collect_edge_profile:
        Count edge traversals.  Both backends count only the cotree
        probes of each function's
        :func:`~repro.analysis.conservation.static_placement`
        (:attr:`probe_counts`); :attr:`edge_counts` reconstructs every
        edge's count from them and the always-on invocation counter.
    trace_paths:
        Record exact Ball-Larus path counts (:attr:`path_counts`; the
        ground truth) and every completed path in order
        (:attr:`distinct_paths` and :attr:`path_events`).  The tuple
        backend appends block names as it goes; the compiled backend
        keeps one integer id per path in progress and decodes the
        completed ids when execution leaves the trampoline.
    cost_model:
        Unit costs; instrumentation hooks share the same
        :class:`CostCounter` through :attr:`costs`.
    max_instructions:
        Safety valve against runaway workloads.
    path_listener:
        A test seam (the package's own consumers replay the ordered path
        log instead): called as ``listener(function, blocks)`` once per
        completed path, in completion order; implies ``trace_paths``.
        The tuple backend calls it as each path completes.  The compiled
        backend calls it with the decoded completions, in order, after
        the run (when execution leaves the trampoline), so a listener
        must not expect to observe the machine mid-run there.
    backend:
        ``"compiled"`` (generated-Python block execution; the default) or
        ``"tuple"`` (the reference tuple-dispatch interpreter).  ``None``
        consults the ``REPRO_BACKEND`` environment variable.  Both
        backends produce identical :class:`RunResult`\\ s.

    With ``REPRO_EQUIV`` set (and not ``0``; ``repro.harness --equiv``
    sets it), :attr:`validate_codegen` is on: the compiled backend runs
    the translation validator from :mod:`repro.analysis.equiv` over every
    piece of generated code before executing it, raising
    :class:`~repro.analysis.equiv.CodegenValidationError` on any
    mismatch.  Verdicts are cached per function x mode, so steady state
    is free.
    """

    def __init__(self, module: Module, collect_edge_profile: bool = False,
                 trace_paths: bool = False,
                 cost_model: CostModel = DEFAULT_COSTS,
                 max_instructions: int = 500_000_000,
                 path_listener: Optional[
                     Callable[[str, tuple[str, ...]], None]] = None,
                 backend: Optional[str] = None):
        self.module = module
        self.backend = resolve_backend(backend)
        self.validate_codegen = os.environ.get(
            "REPRO_EQUIV", "") not in ("", "0")
        self._backend_impl = None  # lazily-built CompiledBackend
        # DegradationEvents recorded when a function's codegen failed and
        # execution fell back to the tuple loop for it (compiled backend).
        self.degradations: list = []
        self._last_return: object = 0
        self.collect_edge_profile = collect_edge_profile
        # A path listener needs the tracer's bookkeeping to see paths.
        self.trace_paths = trace_paths or path_listener is not None
        self.path_listener = path_listener
        self.cost_model = cost_model
        self.max_instructions = max_instructions
        self.costs = CostCounter()
        self.compiled: dict[str, _CompiledFunction] = {
            name: _CompiledFunction(func, module)
            for name, func in module.functions.items()}
        if collect_edge_profile:
            # Deferred: the analysis package imports this module.
            from ..analysis.conservation import static_placement
            for cf in self.compiled.values():
                cf.probe_keys = static_placement(cf.func).probe_keys
        self.global_scalars: dict[str, object] = dict(module.global_scalars)
        self.global_arrays: dict[str, list] = {
            name: [0] * size for name, size in module.global_arrays.items()}
        # func name -> probe edge uid -> traversal count
        self.probe_counts: dict[str, dict[int, int]] = {
            name: {} for name in module.functions}
        self.invocations: dict[str, int] = {name: 0 for name
                                            in module.functions}
        self.path_counts: dict[str, dict[tuple[str, ...], int]] = {
            name: {} for name in module.functions}
        # Completed paths in order: the distinct (function, blocks) pairs
        # in first-seen order, and one index into them per completion.
        self.distinct_paths: list[tuple[str, tuple[str, ...]]] = []
        self.path_events = array("I")
        self._path_index: dict[tuple[str, tuple[str, ...]], int] = {}
        self.instructions_executed = 0

    # ------------------------------------------------------------------
    # Instrumentation attachment
    # ------------------------------------------------------------------

    def set_edge_hook(self, func_name: str, edge_uid: int,
                      hook: EdgeHook) -> None:
        """Attach a hook to a CFG edge; it runs on every traversal."""
        cf = self.compiled[func_name]
        key = cf.uid_edge.get(edge_uid)
        if key is None:
            raise MachineError(
                f"no edge with uid {edge_uid} in function {func_name!r}")
        cf.hooks[key] = hook
        if cf.hook_slots is not None:
            cf.hook_slots[cf.slot_index[key]] = hook
        elif self._backend_impl is not None:
            # Code generated without the hooks channel cannot see it.
            self._backend_impl.functions.pop(func_name, None)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, func_name: Optional[str] = None,
            args: tuple = ()) -> RunResult:
        """Execute ``func_name`` (default: the module's main) to completion."""
        name = func_name if func_name is not None else self.module.main
        if name not in self.compiled:
            raise MachineError(f"unknown function {name!r}")
        self._execute(name, args)
        return self.result()

    @property
    def edge_counts(self) -> dict[str, dict[int, int]]:
        """func name -> cfg edge uid -> traversal count, reconstructed
        from :attr:`probe_counts` and :attr:`invocations` by flow
        conservation (never-traversed edges omitted).  Exact whenever no
        activation is in flight, so counts accumulated over several runs
        reconstruct as their sum."""
        if not self.collect_edge_profile:
            return {name: {} for name in self.compiled}
        from ..analysis.conservation import reconstruct, static_placement
        return {name: reconstruct(static_placement(cf.func),
                                  self.probe_counts[name],
                                  self.invocations[name])
                for name, cf in self.compiled.items()}

    def result(self) -> RunResult:
        return RunResult(
            return_value=self._last_return,
            instructions_executed=self.instructions_executed,
            costs=self.costs,
            edge_counts=self.edge_counts if self.collect_edge_profile else None,
            # Invocation counting is always on (frames are counted as they
            # are created); expose it unconditionally -- profiling a
            # zero-edge routine degenerates to exactly this counter.
            invocations=self.invocations,
            path_counts=self.path_counts if self.trace_paths else None,
        )

    def _new_frame(self, cf: _CompiledFunction, args: tuple) -> Frame:
        if len(args) != len(cf.param_slots):
            raise MachineError(
                f"{cf.func.name}: expected {len(cf.param_slots)} args, "
                f"got {len(args)}")
        arrays = ({name: [0] * size for name, size in cf.array_sizes.items()}
                  if cf.array_sizes else {})
        frame = Frame(cf.func.name, cf.num_slots, arrays, cf.entry)
        for slot, value in zip(cf.param_slots, args):
            frame.regs[slot] = value
        if cf.trace_base is not None:
            frame.path_id = cf.trace_base
        self.invocations[cf.func.name] += 1
        return frame

    def _execute(self, name: str, args: tuple) -> None:
        if self.backend == "compiled":
            if self._backend_impl is None:
                from .compiled import CompiledBackend
                self._backend_impl = CompiledBackend()
            self._backend_impl.execute(self, name, args)
            return
        self._execute_tuple(name, args, self._complete_path)

    def _complete_path(self, function: str,
                       blocks: tuple[str, ...]) -> None:
        """Count one completed path, log it in order, and feed the
        listener."""
        per_func = self.path_counts[function]
        per_func[blocks] = per_func.get(blocks, 0) + 1
        path = (function, blocks)
        i = self._path_index.get(path)
        if i is None:
            i = self._path_index[path] = len(self.distinct_paths)
            self.distinct_paths.append(path)
        self.path_events.append(i)
        if self.path_listener is not None:
            self.path_listener(function, blocks)

    def _execute_tuple(self, name: str, args: tuple,
                       complete: Callable[[str, tuple[str, ...]], None]
                       ) -> None:
        """The reference interpreter.  Its tracer keeps each activation's
        path as a list of block names and hands each completed one to
        ``complete`` (:meth:`_complete_path`, or the compiled backend's
        raw list when a degraded function runs here)."""
        compiled = self.compiled
        cm = self.cost_model
        costs = self.costs
        probe_counts = self.probe_counts
        trace = self.trace_paths
        profile = self.collect_edge_profile
        limit = self.max_instructions

        cf = compiled[name]
        frame = self._new_frame(cf, args)
        stack: list[tuple[Frame, _CompiledFunction, Optional[list[str]]]] = [
            (frame, cf, [cf.entry] if trace else None)]
        executed_start = self.instructions_executed
        executed = executed_start

        while stack:
            frame, cf, blocks = stack[-1]
            code = cf.blocks[frame.block]
            regs = frame.regs
            ip = frame.ip
            ncode = len(code)
            transfer: Optional[str] = None
            while ip < ncode:
                op = code[ip]
                ip += 1
                executed += 1
                kind = op[0]
                if kind == _BINOP:
                    regs[op[2]] = op[1](regs[op[3]], regs[op[4]])
                elif kind == _CONST:
                    regs[op[1]] = op[2]
                elif kind == _MOV:
                    regs[op[1]] = regs[op[2]]
                elif kind == _BRANCH:
                    transfer = op[2] if regs[op[1]] else op[3]
                    break
                elif kind == _JUMP:
                    transfer = op[1]
                    break
                elif kind == _LOAD:
                    arr = (frame.arrays[op[3]] if op[2] == "local"
                           else self.global_arrays[op[3]])
                    regs[op[1]] = arr[int(regs[op[4]]) % len(arr)]
                elif kind == _STORE:
                    arr = (frame.arrays[op[2]] if op[1] == "local"
                           else self.global_arrays[op[2]])
                    arr[int(regs[op[3]]) % len(arr)] = regs[op[4]]
                elif kind == _UNOP:
                    regs[op[2]] = op[1](regs[op[3]])
                elif kind == _GLOAD:
                    regs[op[1]] = self.global_scalars[op[2]]
                elif kind == _GSTORE:
                    self.global_scalars[op[1]] = regs[op[2]]
                elif kind == _SELECT:
                    regs[op[1]] = regs[op[3]] if regs[op[2]] else regs[op[4]]
                elif kind == _CALL:
                    callee = compiled.get(op[2])
                    if callee is None:
                        raise MachineError(f"call to unknown {op[2]!r}")
                    frame.ip = ip  # resume after the call
                    new_frame = self._new_frame(
                        callee, tuple(regs[a] for a in op[3]))
                    new_frame.ret_dst = op[1]
                    stack.append((new_frame, callee,
                                  [callee.entry] if trace else None))
                    transfer = ""  # sentinel: switch to callee
                    break
                elif kind == _RET:
                    value = regs[op[1]] if op[1] is not None else 0
                    if trace:
                        complete(cf.func.name, tuple(blocks))
                    stack.pop()
                    if stack:
                        caller = stack[-1][0]
                        if frame.ret_dst is not None:
                            caller.regs[frame.ret_dst] = value
                    else:
                        self._last_return = value
                    transfer = ""  # sentinel: frame switch
                    break
                else:  # pragma: no cover - defensive
                    raise MachineError(f"bad opcode {kind}")
            if executed > limit:
                self.instructions_executed = executed
                raise MachineError(
                    f"instruction limit exceeded ({limit})")
            if transfer is None:
                raise MachineError(  # pragma: no cover - sealed IR prevents it
                    f"block {frame.block!r} fell through")
            if transfer == "":
                continue  # call or return switched frames
            # --- edge traversal: probe count, hooks, tracer -------------
            key = (frame.block, transfer)
            if profile and key in cf.probe_keys:
                uid = cf.edge_uid[key]
                pc = probe_counts[cf.func.name]
                pc[uid] = pc.get(uid, 0) + 1
            hook = cf.hooks.get(key)
            if hook is not None:
                hook(frame)
            if trace:
                if cf.is_back[key]:
                    complete(cf.func.name, tuple(blocks))
                    blocks[:] = (transfer,)
                else:
                    blocks.append(transfer)
            frame.block = transfer
            frame.ip = 0
        self.instructions_executed = executed
        costs.base += (executed - executed_start) * cm.ir_instruction


def run_module(module: Module, max_instructions: int = 500_000_000,
               backend: Optional[str] = None) -> RunResult:
    """Run the module's ``main`` once, with no observation channel."""
    return Machine(module, max_instructions=max_instructions,
                   backend=backend).run()
