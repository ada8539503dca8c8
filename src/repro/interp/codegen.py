"""Python source generation for the compiled execution backend.

Each sealed IR function is translated into generated Python source --
a ``_make`` header and one text per segment, each segment compiled with
:func:`compile`/``exec`` the first time control enters it (see
:meth:`CodegenResult.unit`) -- and driven by the trampoline in
:mod:`repro.interp.compiled`.  Register accesses become
constant-index list subscripts, block transitions become precomputed
integer segment ids, and the observation channels (edge counting on
the cotree probes, path tracing, edge hooks) are *fused into the
block-exit code only when enabled*: a machine built without profiling
emits no counting code at all, so the common fast path carries zero
per-instruction or per-edge conditionals.

Path tracing numbers each function's Ball-Larus paths the way PP does
(:class:`PathIds`): the path in progress is the integer ``_t``, a
spanning-tree chord adds its increment (``_t += K``), and a back edge
or return appends the finished id to the machine's raw id list
(``_tr(_t)``); a back edge then restarts ``_t`` at its header's entry
value.  Tree edges emit nothing.  The backend decodes the list when
execution leaves the trampoline.

The unit of generation is the *segment*: the run of instructions from a
block start (or from a call-return point inside a block) up to the next
call or the block terminator.  To keep hot control transfers off the
trampoline, the emitter then chases the CFG from each segment's exit:

* a jump/branch target is **inlined** (copied into the segment) only
  when it has exactly one CFG predecessor, or when the segment starts
  at a loop header and the target lies in that header's natural loop;
  a per-segment instruction budget caps the copying.  A whole loop
  iteration -- internal if/else diamonds included -- thus becomes
  straight-line Python, while a join block outside the segment's own
  loop is never duplicated, so generated source grows with the IR;
* an edge back to the segment's own start block compiles to a native
  ``continue`` of the segment's ``while True:`` wrapper, so hot loops
  spin entirely inside one generated function;
* calls, joins outside the segment's own loop, cycles through other
  blocks, and budget exhaustion fall back to returning a precomputed
  integer segment id to the trampoline.

Instruction accounting lives in the generated code: every exit path adds
its exact instruction count (a compile-time constant) to the shared
``_ic`` cell and re-checks the ``max_instructions`` limit, matching the
tuple interpreter's per-block cadence.  Segment protocol (see the
trampoline):

* ``return <int>``                    -- continue at that segment id;
* ``return (func, args, dst, seg)``   -- call ``func`` with ``args``,
  store the result in caller slot ``dst`` (or ``None``), resume at
  segment ``seg``;
* ``return (value,)``                 -- return ``value`` from the frame.

A segment that touches ``_t`` loads it from ``frame.path_id`` on entry
and stores it back before every ``return`` that leaves the frame live,
so the id survives trampoline bounces and calls.

Semantics are byte-identical to the tuple interpreter (same C-style
division, index wrapping, 0/1 comparisons, instruction counting, and
traversal order of probe count -> hook -> path id); the differential
tests in ``tests/test_interp_backends.py`` hold the backend to that
contract across the whole workload suite, and :mod:`repro.analysis.equiv`
proves each generated module equivalent to its IR.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from ..cfg.dominators import compute_dominators
from ..cfg.loops import find_back_edges, find_loops
from ..ir.function import Function, Module
from ..ir.instructions import (BinOp, Branch, Call, Const, GlobalLoad,
                               GlobalStore, Jump, Load, Mov, Ret, Select,
                               Store, UnOp)

__all__ = ["ModeSpec", "CodegenResult", "PathIds", "path_ids",
           "generate_source", "INLINE_BUDGET"]

# Extra instructions one segment may inline from successor blocks before
# falling back to the trampoline.  Only single-predecessor blocks and
# blocks of the loop the segment heads are ever inlined, so joins
# outside that loop are emitted once; inside it, the budget bounds the
# join copies diamonds make while letting typical loop bodies compile
# into a single native loop.
INLINE_BUDGET = 400


@dataclass(frozen=True)
class ModeSpec:
    """Which observation channels the generated code must carry.

    ``profile`` counts edge events on the function's cotree probes
    (:func:`~repro.analysis.conservation.static_placement`); every other
    edge count is recovered by flow-conservation reconstruction, so the
    probe set is a property of the function, not of the mode."""

    profile: bool = False
    # Ball-Larus path ids on the function's :class:`PathIds` chords.
    trace: bool = False
    # Edge hooks: every edge calls the hook in its slot of the per-
    # function ``_hk`` list (indexed like ``edge_keys``) when one is set.
    # The code does not depend on which edges carry hooks, so attaching,
    # replacing or clearing a hook writes a slot and regenerates nothing.
    hooks: bool = False


@dataclass(frozen=True)
class CodegenResult:
    """Generated source plus the tables the backend needs to wire it up.

    The source is a ``_make(...)`` header and one text per segment, each
    a nested ``def _seg_K(frame, regs):``.  :meth:`unit` is what the
    backend compiles for segment ``K``; :attr:`source` joins them all
    for the translation validator."""

    header: str
    segments: tuple[str, ...]
    # Dense edge order: edge_keys[i] is the (block, target) counted by
    # slot i of the edge-counter list (probe edges only) and hooked by
    # slot i of ``_hk``.
    edge_keys: tuple[tuple[str, str], ...] = ()
    # Global array names in ``_g{i}`` parameter order.
    global_arrays: tuple[str, ...] = ()

    @property
    def source(self) -> str:
        """The whole generated module: the header and every segment."""
        return self.header + "".join(self.segments)

    def unit(self, seg_id: int) -> str:
        """A module whose ``_make`` returns just segment ``seg_id``'s
        closure: the header, that segment, and the return."""
        return (f"{self.header}{self.segments[seg_id]}"
                f"    return _seg_{seg_id}\n")


# Straight-line templates; {d}/{a}/{b} are pre-rendered ``regs[K]``
# register operands.
_BIN_TEMPLATES = {
    "+": "{d} = {a} + {b}",
    "-": "{d} = {a} - {b}",
    "*": "{d} = {a} * {b}",
    "/": "{d} = _div({a}, {b})",
    "%": "{d} = _mod({a}, {b})",
    "<": "{d} = 1 if {a} < {b} else 0",
    "<=": "{d} = 1 if {a} <= {b} else 0",
    ">": "{d} = 1 if {a} > {b} else 0",
    ">=": "{d} = 1 if {a} >= {b} else 0",
    "==": "{d} = 1 if {a} == {b} else 0",
    "!=": "{d} = 1 if {a} != {b} else 0",
    "&": "{d} = int({a}) & int({b})",
    "|": "{d} = int({a}) | int({b})",
    "^": "{d} = int({a}) ^ int({b})",
    "<<": "{d} = int({a}) << (int({b}) & 63)",
    ">>": "{d} = int({a}) >> (int({b}) & 63)",
}

_UN_TEMPLATES = {
    "-": "{d} = -{a}",
    "!": "{d} = 1 if {a} == 0 else 0",
    "~": "{d} = ~int({a})",
}

_LIMIT_CHECK = ("if _ic[0] > _lim[0]: "
                "raise _err('instruction limit exceeded (%d)' % _lim[0])")

# The path-id spill before a ``return`` that leaves the frame live.
_ID_STORE = "frame.path_id = _t"


class _Namer:
    """Stable mangled names for arrays referenced by the function (IR
    identifiers may shadow Python keywords or each other, so literal
    names only ever appear as dict-key string constants)."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.names: dict[str, str] = {}

    def get(self, name: str) -> str:
        mangled = self.names.get(name)
        if mangled is None:
            mangled = f"{self.prefix}{len(self.names)}"
            self.names[name] = mangled
        return mangled

    def ordered(self) -> tuple[str, ...]:
        return tuple(self.names)


def _segment_ranges(func: Function) -> tuple[list[tuple[str, int]],
                                             dict[str, int]]:
    """Split every block at call boundaries.

    Returns ``(segments, block_entry_seg)`` where each segment is
    ``(block, start_index)`` (it runs to the next call or the block's
    terminator), and ``block_entry_seg`` maps a block name to the id of
    its first segment.  The entry block's first segment is always id 0.
    """
    order = [func.cfg.entry] + [b for b in func.cfg.blocks
                                if b != func.cfg.entry]
    segments: list[tuple[str, int]] = []
    block_entry: dict[str, int] = {}
    for bname in order:
        instrs = func.cfg.blocks[bname].instructions
        block_entry[bname] = len(segments)
        segments.append((bname, 0))
        for i, instr in enumerate(instrs):
            if isinstance(instr, Call):
                # A sealed block never ends with a Call, so the resume
                # range (i + 1 ...) is always non-empty.
                segments.append((bname, i + 1))
    return segments, block_entry


class _Geometry:
    """The per-function emission geometry: segment table, dense edge
    index, back-edge keys, and the inlining facts (predecessor counts and
    natural-loop bodies by header).  Depends only on the sealed IR, so it
    is computed once per function and shared by every mode
    specialization the emitter is asked for."""

    __slots__ = ("segments", "block_entry", "range_seg", "edge_index",
                 "back_keys", "single_pred", "loop_body")

    def __init__(self, func: Function):
        self.segments, self.block_entry = _segment_ranges(func)
        # (block, start index) -> segment id, for call-resume points.
        self.range_seg = {key: i for i, key in enumerate(self.segments)}
        # Dense edge indexing in terminator order (deterministic,
        # matching the order seal() derived the CFG edges in).
        self.edge_index: dict[tuple[str, str], int] = {}
        for bname, _start in self.segments:
            if _start:
                continue
            term = func.cfg.blocks[bname].instructions[-1]
            if isinstance(term, Jump):
                targets: tuple[str, ...] = (term.target,)
            elif isinstance(term, Branch):
                targets = (term.then_target, term.else_target)
            else:
                targets = ()
            for target in targets:
                self.edge_index[(bname, target)] = len(self.edge_index)
        dom = compute_dominators(func.cfg)
        back_uids = {e.uid for e in find_back_edges(func.cfg, dom)}
        self.back_keys = {
            key for key in self.edge_index
            if func.edge_by_target[key[0]][key[1]].uid in back_uids}
        # Blocks with exactly one incoming CFG edge: inlining one into its
        # sole predecessor duplicates no join.
        self.single_pred = frozenset(
            name for name, block in func.cfg.blocks.items()
            if len(block.pred_edges) == 1)
        # Loop header -> its natural loop's blocks.
        self.loop_body = {loop.header: frozenset(loop.body)
                          for loop in find_loops(func.cfg, dom)}


_GEOMETRY: "weakref.WeakKeyDictionary[Function, _Geometry]" = \
    weakref.WeakKeyDictionary()


def function_geometry(func: Function) -> _Geometry:
    """The memoised :class:`_Geometry` of a sealed function."""
    geo = _GEOMETRY.get(func)
    if geo is None:
        geo = _GEOMETRY[func] = _Geometry(func)
    return geo


class PathIds:
    """The path tracer's numbering of one sealed function: the paper's
    Section 3.1 Ball-Larus numbering of :func:`~repro.cfg.dag.function_dag`
    (which breaks the same :func:`find_back_edges` the geometry does),
    with the increments moved off a spanning tree weighted by the static
    heuristics (:func:`~repro.core.events.event_count`).  A path starts
    at 0 at the entry; ``chords`` maps each non-back edge ``(block,
    target)`` with a nonzero increment to it; ``back`` maps each back
    edge to ``(increment, restart)``: what the ending path adds before
    its id is emitted, and where the path at its header starts.  Every
    completed path's id lies in ``[0, total)``."""

    __slots__ = ("numbering", "chords", "back", "total")

    def __init__(self, func: Function):
        # Deferred: the core package imports the interpreter.
        from ..cfg.dag import function_dag
        from ..core.events import dag_edge_weights, event_count
        from ..core.heuristics import static_edge_weights
        from ..core.numbering import PathNumbering

        dag = function_dag(func)
        numbering = PathNumbering(dag)
        inc = event_count(dag, numbering.live, numbering.val,
                          dag_edge_weights(dag,
                                           static_edge_weights(func.cfg)))
        self.numbering = numbering
        self.total = numbering.total
        self.chords: dict[tuple[str, str], int] = {}
        for edge in dag.dag.edges():
            cfg_edge = dag.cfg_edge_for(edge)
            if cfg_edge is not None and inc[edge.uid]:
                self.chords[(cfg_edge.src, cfg_edge.dst)] = inc[edge.uid]
        self.back: dict[tuple[str, str], tuple[int, int]] = {}
        for back in dag.back_edges:
            head, tail = dag.dummies_for(back)
            self.back[(back.src, back.dst)] = (
                inc[tail.uid], inc[head.uid] if head is not None else 0)

    def blocks(self, path_id: int) -> tuple[str, ...]:
        """The block sequence the tuple interpreter's tracer records for
        the path numbered ``path_id``."""
        edges = self.numbering.decode(path_id)
        if edges is None:
            raise ValueError(f"path id {path_id} out of range "
                             f"[0, {self.total})")
        dag = self.numbering.dag
        blocks = [dag.dag.entry]
        for edge in edges:
            if dag.is_entry_dummy(edge):
                blocks = [edge.dst]  # the path restarts at a loop header
            elif not dag.is_exit_dummy(edge):
                blocks.append(edge.dst)
        return tuple(blocks)


_PATH_IDS: "weakref.WeakKeyDictionary[Function, PathIds]" = \
    weakref.WeakKeyDictionary()


def path_ids(func: Function) -> PathIds:
    """The memoised :class:`PathIds` of a sealed function."""
    ids = _PATH_IDS.get(func)
    if ids is None:
        ids = _PATH_IDS[func] = PathIds(func)
    return ids


class _FunctionEmitter:
    """Emits the generated module for one function under one mode."""

    def __init__(self, func: Function, module: Module, spec: ModeSpec):
        self.func = func
        self.module = module
        self.spec = spec
        self.slot = func.register_slots.__getitem__
        self.blocks = func.cfg.blocks
        geo = function_geometry(func)
        self.segments = geo.segments
        self.block_entry = geo.block_entry
        self.range_seg = geo.range_seg
        self.edge_index = geo.edge_index
        self.back_keys = geo.back_keys
        self.single_pred = geo.single_pred
        self.loop_body = geo.loop_body
        if spec.profile:
            # Deferred: the analysis package imports this module.
            from ..analysis.conservation import static_placement
            self.probes = static_placement(func).probe_keys
        else:
            self.probes = frozenset()
        self.ids = path_ids(func) if spec.trace else None
        self.local_names = _Namer("_l")
        self.global_names = _Namer("_g")

        # Per-segment emission state.
        self.lines: list[str] = []
        self.used_locals: dict[str, None] = {}
        self.budget = 0
        self.start_block = ""
        self.at_block_start = False
        # Whether this segment reads or writes the path id ``_t``.
        self.uses_id = False
        # Blocks of the loop this segment heads (empty unless it starts
        # at a loop header).
        self.own_loop: frozenset = frozenset()

    # -- low-level writers ---------------------------------------------

    def w(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def r(self, reg: str) -> str:
        """The ``regs[K]`` operand of an IR register."""
        return f"regs[{self.slot(reg)}]"

    def array_ref(self, name: str) -> tuple[str, int]:
        """(python name, length) for an array operand; records local
        arrays so the segment prologue can hoist them."""
        if name in self.func.arrays:
            self.used_locals.setdefault(name)
            return self.local_names.get(name), self.func.arrays[name]
        return self.global_names.get(name), self.module.global_arrays[name]

    # -- instruction and edge emission ---------------------------------

    def emit_instr(self, instr, indent: int) -> None:
        w, r = self.w, self.r
        if isinstance(instr, Const):
            w(indent, f"{r(instr.dst)} = {instr.value!r}")
        elif isinstance(instr, Mov):
            w(indent, f"{r(instr.dst)} = {r(instr.src)}")
        elif isinstance(instr, BinOp):
            w(indent, _BIN_TEMPLATES[instr.op].format(
                d=r(instr.dst), a=r(instr.a), b=r(instr.b)))
        elif isinstance(instr, UnOp):
            w(indent, _UN_TEMPLATES[instr.op].format(
                d=r(instr.dst), a=r(instr.a)))
        elif isinstance(instr, Select):
            w(indent, f"{r(instr.dst)} = {r(instr.a)} "
                      f"if {r(instr.cond)} else {r(instr.b)}")
        elif isinstance(instr, Load):
            name, length = self.array_ref(instr.array)
            w(indent, f"{r(instr.dst)} = "
                      f"{name}[int({r(instr.idx)}) % {length}]")
        elif isinstance(instr, Store):
            name, length = self.array_ref(instr.array)
            w(indent, f"{name}[int({r(instr.idx)}) % {length}] = "
                      f"{r(instr.src)}")
        elif isinstance(instr, GlobalLoad):
            w(indent, f"{r(instr.dst)} = _gs[{instr.name!r}]")
        elif isinstance(instr, GlobalStore):
            w(indent, f"_gs[{instr.name!r}] = {r(instr.src)}")
        else:  # pragma: no cover - terminators/calls handled by caller
            raise TypeError(f"cannot generate code for {instr!r}")

    def emit_edge(self, key: tuple[str, str], indent: int) -> None:
        """The fused block-exit work for traversing one CFG edge, in the
        tuple interpreter's order: probe count, hook, path id.  The hook
        is read from the edge's ``_hk`` slot at traversal time, so one
        hooked code object serves every hook placement."""
        spec, w = self.spec, self.w
        if key in self.probes:
            w(indent, f"_ec[{self.edge_index[key]}] += 1")
        if spec.hooks:
            slot = self.edge_index[key]
            w(indent, f"if _hk[{slot}] is not None: _hk[{slot}](frame)")
        if self.ids is not None:
            if key in self.back_keys:
                increment, restart = self.ids.back[key]
                if increment:
                    w(indent, f"_t += {increment}")
                w(indent, "_tr(_t)")
                w(indent, f"_t = _tb + {restart}" if restart
                          else "_t = _tb")
                self.uses_id = True
            elif key in self.ids.chords:
                w(indent, f"_t += {self.ids.chords[key]}")
                self.uses_id = True

    def emit_cost(self, cost: int, indent: int) -> None:
        """Bill ``cost`` executed instructions and re-check the limit
        (the tuple interpreter checks once per block execution)."""
        self.w(indent, f"_ic[0] += {cost}")
        self.w(indent, _LIMIT_CHECK)

    # -- control flow --------------------------------------------------

    def emit_range(self, bname: str, start: int, cost: int, indent: int,
                   chain: frozenset) -> None:
        """Emit instructions from ``(bname, start)`` to the next call or
        the terminator, then chase the control transfer."""
        instrs = self.blocks[bname].instructions
        last = len(instrs) - 1
        i = start
        while i < last and not isinstance(instrs[i], Call):
            self.emit_instr(instrs[i], indent)
            i += 1
        instr = instrs[i]
        cost += i - start + 1
        self.budget -= i - start + 1
        if isinstance(instr, Call):
            args = "".join(f"{self.r(a)}, " for a in instr.args)
            dst = self.slot(instr.dst) if instr.dst is not None else None
            self.emit_cost(cost, indent)
            self.emit_id_store(indent)
            self.w(indent, f"return ({instr.func!r}, ({args}), {dst}, "
                           f"{self.range_seg[(bname, i + 1)]})")
        elif isinstance(instr, Ret):
            self.emit_ret(instr, cost, indent)
        elif isinstance(instr, Jump):
            self.emit_edge((bname, instr.target), indent)
            self.emit_goto(instr.target, cost, indent, chain)
        elif isinstance(instr, Branch):
            then_t, else_t = instr.then_target, instr.else_target
            self.w(indent, f"if {self.r(instr.cond)}:")
            self.emit_edge((bname, then_t), indent + 1)
            self.emit_goto(then_t, cost, indent + 1, chain)
            self.emit_edge((bname, else_t), indent)
            self.emit_goto(else_t, cost, indent, chain)
        else:  # pragma: no cover - sealed IR always terminates blocks
            raise TypeError(f"block {bname!r} ends with {instr!r}")

    def emit_goto(self, target: str, cost: int, indent: int,
                  chain: frozenset) -> None:
        """Transfer to ``target``: native loop continue, inline the
        target block, or trampoline bounce."""
        if target == self.start_block and self.at_block_start:
            # Back to this segment's own top: spin natively.
            self.emit_cost(cost, indent)
            self.w(indent, "continue")
        elif (target not in chain and self.budget > 0
              and (target in self.single_pred or target in self.own_loop)):
            self.emit_range(target, 0, cost, indent, chain | {target})
        else:
            # A join outside this segment's own loop, a cycle, or budget
            # exhausted: hand the transfer back to the trampoline.
            self.emit_cost(cost, indent)
            self.emit_id_store(indent)
            self.w(indent, f"return {self.block_entry[target]}")

    def emit_id_store(self, indent: int) -> None:
        """Spill ``_t`` before a return that leaves the frame live (the
        spills are dropped from a segment that never touches ``_t``)."""
        if self.ids is not None:
            self.w(indent, _ID_STORE)

    def emit_ret(self, instr: Ret, cost: int, indent: int) -> None:
        value = self.r(instr.src) if instr.src is not None else "0"
        self.emit_cost(cost, indent)
        if self.ids is not None:
            self.w(indent, "_tr(_t)")
            self.uses_id = True
        self.w(indent, f"return ({value},)")

    # -- assembly ------------------------------------------------------

    def emit_segment(self, seg_id: int) -> str:
        bname, start = self.segments[seg_id]
        self.lines = []
        self.used_locals = {}
        self.budget = INLINE_BUDGET
        self.start_block = bname
        self.at_block_start = (start == 0)
        self.own_loop = (self.loop_body.get(bname, frozenset())
                         if self.at_block_start else frozenset())
        self.uses_id = False
        self.emit_range(bname, start, 0, 3, frozenset({bname}))
        out = [f"    def _seg_{seg_id}(frame, regs):"]
        out.extend(
            f"        {self.local_names.get(name)} = "
            f"frame.arrays[{name!r}]" for name in self.used_locals)
        if self.uses_id:
            out.append("        _t = frame.path_id")
        out.append("        while True:")
        out.extend(line for line in self.lines
                   if self.uses_id or not line.endswith(_ID_STORE))
        out.append("")
        return "\n".join(out)

    def emit_module(self) -> tuple[str, tuple[str, ...]]:
        """The ``_make`` header and every segment's text (the header
        comes last: it lists the global arrays the segments named)."""
        segments = tuple(self.emit_segment(seg_id)
                         for seg_id in range(len(self.segments)))
        global_params = "".join(
            f", {self.global_names.names[n]}"
            for n in self.global_names.ordered())
        header = (f"def _make(_div, _mod, _err, _ic, _lim, _gs, _tr, _tb, "
                  f"_ec, _hk{global_params}):\n")
        return header, segments


def generate_source(func: Function, module: Module,
                    spec: ModeSpec) -> CodegenResult:
    """Translate one sealed function into a compilable Python module."""
    emitter = _FunctionEmitter(func, module, spec)
    header, segments = emitter.emit_module()
    return CodegenResult(
        header=header,
        segments=segments,
        edge_keys=tuple(emitter.edge_index),
        global_arrays=emitter.global_names.ordered(),
    )
