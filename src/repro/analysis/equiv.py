"""Translation validation for the compiled backend and the optimizers.

Two clients sit on top of the symbolic executor in
:mod:`repro.analysis.symexec`:

**Codegen validation** (:func:`check_function_codegen`,
:func:`check_generated`) proves, per sealed function x observation mode,
that the Python source
:func:`repro.interp.codegen.generate_source` emitted is equivalent to
the IR it was generated from.  The generated module is parsed back (via
:mod:`ast`) into per-segment *leaf paths* -- one per branch combination
through the segment's inlined block chase -- and each leaf path is (a)
symbolically evaluated as Python and (b) replayed over the IR blocks,
driven by the leaf's billed instruction cost (which uniquely locates
the point where the segment handed control back).  The two sides must
agree on the ordered effect/observation stream (stores, global stores,
edge counts, hooks, path-trace events), the final register state, every
branch decision's condition term, the billed cost, and the terminal
(trampoline bounce, native ``continue``, call tuple, or frame return).

Registers appear only as ``regs[K]`` subscripts and branches only as
``if regs[K]:``; any other register or branch shape is an E101.

**Pass validation** (:func:`check_pass`, :func:`apply_pass`) checks a
per-pass simulation relation between the pre- and post-transform CFGs of
every function: complete symbolic paths through the pre-function (with
interprocedural descent, concolic branch folding, and forked assumptions
on symbolic branches) are replayed over the post-function under the same
assumptions, and must produce the identical return term, the identical
ordered effect stream, and -- up to the pass's declared block mapping,
via :mod:`repro.opt.rebuild`'s synthetic-name tags -- the same root
block trace that the edge-profile estimator consumes.

Diagnostic codes (``Exxx`` namespace):

====  =======  =====================================================
E001  INFO     irreducible CFG -- function skipped
E101  ERROR    generated code has an unrecognized shape
E102  ERROR    segment table disagrees with the IR's call boundaries
E103  ERROR    branch decision missing or on the wrong condition
E104  ERROR    final register state differs
E105  ERROR    effect/observation stream differs
E107  ERROR    billed instruction cost differs
E108  ERROR    segment terminal (goto/continue/call/return) differs
E201  ERROR    pass changed a path's return value
E202  ERROR    pass changed a path's effect stream
E203  INFO     post-path took a branch the pre-path never decided
E204  ERROR    post-path overran the simulation step budget
E205  ERROR    pass broke the block-trace mapping
E206  INFO     no complete symbolic path within budget -- skipped
E207  ERROR    pass dropped a function from the module
====  =======  =====================================================
"""

from __future__ import annotations

import ast
import functools
import weakref
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from ..cfg.dominators import compute_dominators
from ..cfg.graph import ControlFlowGraph
from ..cfg.loops import find_back_edges
from ..interp.codegen import CodegenResult, ModeSpec, generate_source
from ..ir.function import Function, Module
from ..ir.instructions import Branch, Call, Instr, Jump, Ret
from .diagnostics import Diagnostic, Report, Severity
from .symexec import (IRSymbolicExecutor, SymState, Term, TermFactory,
                      format_op, format_term, ops_equal)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.session import ProfilingSession
    from ..profiles.edge_profile import EdgeProfile
    from ..profiles.path_profile import PathProfile
    from ..workloads import Workload

__all__ = [
    "PASS_NAMES", "ExploreLimits", "CodegenValidationError",
    "standard_modes", "check_function_codegen", "check_module_codegen",
    "check_generated", "apply_pass",
    "check_pass", "equiv_module", "equiv_suite",
]

#: The optimizer passes the simulation checker knows how to drive, in
#: dependency-light-to-heavy order.
PASS_NAMES = ("cleanup", "licm", "inline", "unroll", "ifconvert",
              "superblock")


class CodegenValidationError(RuntimeError):
    """Raised by :func:`check_generated` when generated code is wrong."""

    def __init__(self, report: Report):
        super().__init__(report.summary())
        self.report = report


@dataclass(frozen=True)
class ExploreLimits:
    """Budgets for the pass client's symbolic path exploration."""

    max_steps: int = 12000       # per path
    max_paths: int = 24          # completed paths per function
    max_live: int = 120          # explored (incl. abandoned) paths
    max_decisions: int = 20      # symbolic branch forks per path


DEFAULT_LIMITS = ExploreLimits()


def _is_irreducible(cfg: ControlFlowGraph) -> bool:
    """A retreating edge whose target does not dominate its source."""
    dom = compute_dominators(cfg)
    return any(not dom.dominates(edge.dst, edge.src)
               for edge in find_back_edges(cfg, dom))


# ---------------------------------------------------------------------------
# Shared segment/edge geometry (the *protocol spec* -- recomputed here,
# independently of the emitter's internal state, from the same published
# contract the trampoline relies on).
# ---------------------------------------------------------------------------

def _segment_ranges(func: Function) -> tuple[list[tuple[str, int]],
                                             dict[str, int]]:
    """Blocks split at call boundaries: ``[(block, start_index), ...]``
    in entry-first block order, plus block -> first-segment-id."""
    order = [func.cfg.entry] + [b for b in func.cfg.blocks
                                if b != func.cfg.entry]
    segments: list[tuple[str, int]] = []
    block_entry: dict[str, int] = {}
    for bname in order:
        block_entry[bname] = len(segments)
        segments.append((bname, 0))
        for i, instr in enumerate(func.cfg.blocks[bname].instructions):
            if isinstance(instr, Call):
                segments.append((bname, i + 1))
    return segments, block_entry


def _edge_index(func: Function) -> dict[tuple[str, str], int]:
    """Dense edge numbering in entry-first terminator order."""
    order = [func.cfg.entry] + [b for b in func.cfg.blocks
                                if b != func.cfg.entry]
    index: dict[tuple[str, str], int] = {}
    for bname in order:
        term = func.cfg.blocks[bname].instructions[-1]
        if isinstance(term, Jump):
            targets: tuple[str, ...] = (term.target,)
        elif isinstance(term, Branch):
            targets = (term.then_target, term.else_target)
        else:
            targets = ()
        for target in targets:
            index[(bname, target)] = len(index)
    return index


def _back_keys(func: Function) -> set[tuple[str, str]]:
    """(block, target) keys of path-flush (back) edges -- the same
    :func:`find_back_edges` definition both interpreters traverse by."""
    back_uids = {e.uid for e in find_back_edges(func.cfg)}
    return {(e.src, e.dst)
            for bname, by_target in func.edge_by_target.items()
            for e in by_target.values() if e.uid in back_uids}


def standard_modes(func: Function) -> tuple[ModeSpec, ...]:
    """The observation-mode lattice every function is validated under:
    every channel combination the program can request.  Profiler
    selections turn on edge counting (on the conservation probes) and
    path tracing in any combination, plan and profiler edge ops add
    hooks to any of those, and a recording adds the path listener to
    edge counting and tracing.  Hooked code does not depend on the plan,
    so one hooked mode per combination proves every plan's code."""
    return tuple(
        ModeSpec(profile=profile, trace=trace, hooks=hooks)
        for hooks in (False, True)
        for trace in (False, True)
        for profile in (False, True)
    ) + (ModeSpec(profile=True, trace=True, listener=True),)


# ---------------------------------------------------------------------------
# Codegen client: parsing generated Python back to effect summaries
# ---------------------------------------------------------------------------

class _Unrecognized(Exception):
    """Generated code deviated from the emitter's published shapes."""


@dataclass
class _GenPath:
    """One evaluated leaf path through a segment's generated body."""

    ops: list[tuple[object, ...]]
    decisions: list[tuple[Term, bool]]
    cost: int
    terminal: tuple[object, ...]
    regs: dict[int, Term]


_AST_BIN = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Mod: "%",
    ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^",
    ast.LShift: "<<", ast.RShift: ">>",
}

_AST_CMP = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Eq: "==", ast.NotEq: "!=",
}


def _const_int(node: ast.expr, what: str) -> int:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    raise _Unrecognized(f"expected integer constant for {what}")


def _reg_slot(node: ast.expr) -> Optional[int]:
    """The K of a ``regs[K]`` subscript, else None."""
    if (isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "regs"
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, int)):
        return node.slice.value
    return None


@functools.lru_cache(maxsize=None)
def _hook_call_dump(slot: int) -> str:
    """The AST dump of edge ``slot``'s hook call, the one shape hooked
    code may use."""
    source = f"if _hk[{slot}] is not None: _hk[{slot}](frame)"
    return ast.dump(ast.parse(source).body[0])


def _hook_slot(node: ast.stmt) -> Optional[int]:
    """The K of a hook slot call ``if _hk[K] is not None: _hk[K](frame)``
    -- an observation, not a branch -- else None.  An If testing a
    ``_hk`` slot in any other shape is unrecognized."""
    if not (isinstance(node, ast.If)
            and isinstance(node.test, ast.Compare)):
        return None
    left = node.test.left
    if not (isinstance(left, ast.Subscript)
            and isinstance(left.value, ast.Name)
            and left.value.id == "_hk"):
        return None
    slot = _const_int(left.slice, "hook slot")
    if ast.dump(node) != _hook_call_dump(slot):
        raise _Unrecognized("hook slot call shape")
    return slot


def _is_limit_check(node: ast.stmt) -> bool:
    """``if _ic[0] > _lim[0]: raise ...`` -- accounting, not control."""
    return (isinstance(node, ast.If)
            and not node.orelse
            and len(node.body) == 1
            and isinstance(node.body[0], ast.Raise)
            and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Subscript)
            and isinstance(node.test.left.value, ast.Name)
            and node.test.left.value.id == "_ic")


def _leaf_paths(stmts: Sequence[ast.stmt],
                prefix: tuple[tuple[object, ...], ...]
                ) -> list[list[tuple[object, ...]]]:
    """Enumerate the linear leaf paths of a generated segment body.

    Every generated ``if regs[K]:`` has an empty ``orelse`` and a
    then-arm that always terminates, so the statements *after* the If
    form the else arm.  Returns lists of ``('stmt', node)`` /
    ``('decision', test_node, taken)`` / ``('hook', slot)`` events, each
    ending at a ``return``/``continue`` terminal.
    """
    out: list[list[tuple[object, ...]]] = []
    events = list(prefix)
    for i, node in enumerate(stmts):
        if _is_limit_check(node):
            continue  # accounting guard; the cost itself is the event
        slot = _hook_slot(node)
        if slot is not None:
            events.append(("hook", slot))
            continue
        if isinstance(node, ast.If):
            if node.orelse:
                raise _Unrecognized("generated If with an else arm")
            taken = tuple(events) + (("decision", node.test, True),)
            not_taken = tuple(events) + (("decision", node.test, False),)
            out.extend(_leaf_paths(node.body, taken))
            out.extend(_leaf_paths(stmts[i + 1:], not_taken))
            return out
        events.append(("stmt", node))
        if isinstance(node, (ast.Return, ast.Continue)):
            out.append(events)
            return out
    raise _Unrecognized("segment body fell through without a terminal")


class _SegmentParser:
    """Symbolically evaluates the leaf paths of one generated segment."""

    def __init__(self, func: Function, module: Module, spec: ModeSpec,
                 result: CodegenResult, factory: TermFactory,
                 local_arrays: dict[str, str]):
        self.func = func
        self.module = module
        self.spec = spec
        self.result = result
        self.factory = factory
        self.local_arrays = local_arrays  # mangled _lK -> IR array name

    def _fresh_state(self) -> SymState:
        fact = self.factory
        return SymState(fact, lambda key: fact.input(("slot", key)))

    def evaluate(self, events: list[tuple[object, ...]]
                 ) -> _GenPath:
        fact = self.factory
        state = self._fresh_state()
        ops: list[tuple[object, ...]] = []
        decisions: list[tuple[Term, bool]] = []
        cost = 0
        terminal: Optional[tuple[object, ...]] = None
        rv: Optional[Term] = None
        pending_flush = False

        def eval_expr(node: ast.expr) -> Term:
            slot = _reg_slot(node)
            if slot is not None:
                return state.get(slot)
            if isinstance(node, ast.Constant):
                if isinstance(node.value, (int, float)):
                    return fact.const(node.value)
                raise _Unrecognized(f"constant {node.value!r}")
            if isinstance(node, ast.UnaryOp):
                if (isinstance(node.op, ast.USub)
                        and isinstance(node.operand, ast.Constant)):
                    return fact.const(-node.operand.value)
                if isinstance(node.op, ast.USub):
                    return fact.neg(eval_expr(node.operand))
                if isinstance(node.op, ast.Invert):
                    return fact.inv(eval_expr(node.operand))
                raise _Unrecognized("unary operator")
            if isinstance(node, ast.BinOp):
                op = _AST_BIN.get(type(node.op))
                if op is None:
                    raise _Unrecognized("binary operator")
                return fact.bin(op, eval_expr(node.left),
                                eval_expr(node.right))
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name) and not node.keywords:
                    name = node.func.id
                    if name == "_div" and len(node.args) == 2:
                        return fact.cdiv(eval_expr(node.args[0]),
                                         eval_expr(node.args[1]))
                    if name == "_mod" and len(node.args) == 2:
                        return fact.cmod(eval_expr(node.args[0]),
                                         eval_expr(node.args[1]))
                    if name == "int" and len(node.args) == 1:
                        return fact.cast(eval_expr(node.args[0]))
                raise _Unrecognized("call expression")
            if isinstance(node, ast.IfExp):
                if isinstance(node.test, ast.Compare):
                    if (len(node.test.ops) != 1
                            or type(node.test.ops[0]) not in _AST_CMP
                            or _const_int(node.body, "IfExp") != 1
                            or _const_int(node.orelse, "IfExp") != 0):
                        raise _Unrecognized("comparison shape")
                    op = _AST_CMP[type(node.test.ops[0])]
                    return fact.cmp(op, eval_expr(node.test.left),
                                    eval_expr(node.test.comparators[0]))
                return fact.select(eval_expr(node.test),
                                   eval_expr(node.body),
                                   eval_expr(node.orelse))
            if isinstance(node, ast.Subscript):
                return eval_load(node)
            raise _Unrecognized(f"expression {ast.dump(node)[:60]}")

        def array_location(name: str) -> tuple[tuple, int]:
            """(symexec location key, declared length) for a mangled
            generated array name."""
            if name in self.local_arrays:
                ir_name = self.local_arrays[name]
                return (("local", None, ir_name),
                        self.func.arrays[ir_name])
            if name.startswith("_g"):
                idx = int(name[2:])
                ir_name = self.result.global_arrays[idx]
                return ("global", ir_name), \
                    self.module.global_arrays[ir_name]
            raise _Unrecognized(f"unknown array {name!r}")

        def eval_index(node: ast.expr, length: int) -> Term:
            """``int(regs[K]) % length`` -- the wrap recipe."""
            if (isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Mod)
                    and _const_int(node.right, "wrap length") == length):
                return fact.bin("%", eval_expr(node.left),
                                fact.const(length))
            raise _Unrecognized("array index without wrap")

        def eval_load(node: ast.Subscript) -> Term:
            if not isinstance(node.value, ast.Name):
                raise _Unrecognized("subscript base")
            base = node.value.id
            if base == "_gs":
                name = node.slice.value  # type: ignore[attr-defined]
                if not isinstance(name, str):
                    raise _Unrecognized("_gs key")
                return fact.gload(name, state.version(("gs", name)))
            location, length = array_location(base)
            idx = eval_index(node.slice, length)
            return fact.load(location, state.version(location), idx)

        def do_store(target: ast.Subscript, value: ast.expr) -> None:
            nonlocal pending_flush
            base = target.value
            if isinstance(base, ast.Name) and base.id == "regs":
                slot = _reg_slot(target)
                if slot is None:
                    raise _Unrecognized("register store index")
                state.set(slot, eval_expr(value))
                return
            if isinstance(base, ast.Name) and base.id == "_gs":
                name = target.slice.value  # type: ignore[attr-defined]
                ops.append(("gstore", name, eval_expr(value)))
                state.write_mem(("gs", name))
                return
            if isinstance(base, ast.Name) and base.id == "_pc":
                # `_pc[_p] = _pc.get(_p, 0) + 1` right after the
                # `_p = tuple(frame.path_blocks)` snapshot: a flush.
                if not pending_flush:
                    raise _Unrecognized("_pc update without snapshot")
                ops.append(("flush",))
                pending_flush = False
                return
            if isinstance(base, ast.Name):
                location, length = array_location(base.id)
                idx = eval_index(target.slice, length)
                ops.append(("store", location, idx, eval_expr(value)))
                state.write_mem(location)
                return
            raise _Unrecognized("store target")

        def do_stmt(node: ast.stmt) -> None:
            nonlocal cost, rv, pending_flush, terminal
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Subscript):
                    do_store(target, node.value)
                    return
                if isinstance(target, ast.Name) and target.id == "_p":
                    pending_flush = True
                    return
                if isinstance(target, ast.Name) and target.id == "_rv":
                    rv = eval_expr(node.value)
                    return
                if (isinstance(target, ast.Attribute)
                        and target.attr == "path_blocks"):
                    # `frame.path_blocks = ['target']`
                    elts = node.value.elts  # type: ignore[attr-defined]
                    ops.append(("reset", elts[0].value))
                    return
                raise _Unrecognized("assignment target")
            if isinstance(node, ast.AugAssign):
                target = node.target
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)):
                    if target.value.id == "_ic":
                        cost += _const_int(node.value, "cost")
                        return
                    if target.value.id == "_ec":
                        idx = _const_int(target.slice, "edge index")
                        if _const_int(node.value, "count") != 1:
                            raise _Unrecognized("edge increment != 1")
                        ops.append(("count", idx))
                        return
                raise _Unrecognized("augmented assignment")
            if isinstance(node, ast.Expr) and isinstance(node.value,
                                                         ast.Call):
                call = node.value
                if (isinstance(call.func, ast.Name)
                        and call.func.id == "_pl"):
                    fname = call.args[0].value  # type: ignore
                    ops.append(("listener", fname))
                    return
                if (isinstance(call.func, ast.Attribute)
                        and call.func.attr == "append"):
                    # `frame.path_blocks.append('target')`
                    ops.append(("append", call.args[0].value))  # type: ignore
                    return
                raise _Unrecognized("expression statement")
            if isinstance(node, ast.Return):
                terminal = parse_terminal(node)
                return
            if isinstance(node, ast.Continue):
                terminal = ("continue",)
                return
            raise _Unrecognized(f"statement {ast.dump(node)[:60]}")

        def parse_terminal(node: ast.Return) -> tuple[object, ...]:
            value = node.value
            if isinstance(value, ast.Constant) and isinstance(value.value,
                                                              int):
                return ("goto", value.value)
            if isinstance(value, ast.Tuple) and len(value.elts) == 1:
                elt = value.elts[0]
                if isinstance(elt, ast.Name) and elt.id == "_rv":
                    if rv is None:
                        raise _Unrecognized("_rv returned before set")
                    return ("ret", rv)
                return ("ret", eval_expr(elt))
            if isinstance(value, ast.Tuple) and len(value.elts) == 4:
                fn_node, args_node, dst_node, seg_node = value.elts
                if (not isinstance(fn_node, ast.Constant)
                        or not isinstance(args_node, ast.Tuple)):
                    raise _Unrecognized("call tuple shape")
                args = tuple(eval_expr(a) for a in args_node.elts)
                dst: Optional[int]
                if (isinstance(dst_node, ast.Constant)
                        and dst_node.value is None):
                    dst = None
                else:
                    dst = _const_int(dst_node, "call dst")
                return ("call", fn_node.value, args, dst,
                        _const_int(seg_node, "resume segment"))
            raise _Unrecognized("return shape")

        for event in events:
            if event[0] == "decision":
                slot = _reg_slot(event[1])
                if slot is None:
                    raise _Unrecognized("branch on a non-register test")
                decisions.append((state.get(slot), bool(event[2])))
            elif event[0] == "hook":
                ops.append(event)
            else:
                do_stmt(event[1])

        if terminal is None:
            raise _Unrecognized("leaf path without terminal")
        return _GenPath(ops=ops, decisions=decisions, cost=cost,
                        terminal=terminal, regs=dict(state.regs))


class _CodegenChecker:
    """Validates one function x mode against its generated source."""

    def __init__(self, func: Function, module: Module, spec: ModeSpec,
                 result: CodegenResult, report: Report):
        self.func = func
        self.module = module
        self.spec = spec
        self.result = result
        self.report = report
        self.factory = TermFactory()
        self.segments, self.block_entry = _segment_ranges(func)
        self.range_seg = {key: i for i, key in enumerate(self.segments)}
        self.edge_index = _edge_index(func)
        self.back = _back_keys(func)
        # The edges whose traversal the generated code must count: the
        # function's cotree probes, derived here independently of the
        # emitter.
        self.probes: frozenset[tuple[str, str]] = frozenset()
        if spec.profile:
            from .conservation import static_placement
            self.probes = static_placement(func).probe_keys
        self.context = ""

    def fail(self, code: str, message: str, hint: str = "") -> None:
        self.report.add(Diagnostic(
            severity=Severity.ERROR, code=code,
            message=f"{self.context}: {message}" if self.context
            else message,
            function=self.func.name, hint=hint))

    # -- driving --------------------------------------------------------

    def run(self) -> None:
        mode = (f"profile={int(self.spec.profile)} "
                f"trace={int(self.spec.trace)} "
                f"listener={int(self.spec.listener)} "
                f"hooks={int(self.spec.hooks)}")
        try:
            seg_defs, local_maps = self._parse_module()
        except _Unrecognized as exc:
            self.context = f"[{mode}]"
            self.fail("E101", str(exc))
            return
        if len(seg_defs) != len(self.segments):
            self.context = f"[{mode}]"
            self.fail("E102", f"generated {len(seg_defs)} segments, IR "
                              f"call boundaries imply "
                              f"{len(self.segments)}")
            return
        for seg_id, (body, local_map) in enumerate(zip(seg_defs,
                                                       local_maps)):
            bname, start = self.segments[seg_id]
            self.context = f"[{mode}] _seg_{seg_id} ({bname!r}+{start})"
            try:
                self._check_segment(seg_id, body, local_map)
            except _Unrecognized as exc:
                self.fail("E101", str(exc))

    def _parse_module(self) -> tuple[list[list[ast.stmt]],
                                     list[dict[str, str]]]:
        tree = ast.parse(self.result.source)
        if (len(tree.body) != 1
                or not isinstance(tree.body[0], ast.FunctionDef)):
            raise _Unrecognized("module is not a single _make def")
        make = tree.body[0]
        bodies: list[list[ast.stmt]] = []
        local_maps: list[dict[str, str]] = []
        for node in make.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name != f"_seg_{len(bodies)}":
                raise _Unrecognized(f"unexpected segment {node.name!r}")
            local_map: dict[str, str] = {}
            loop: Optional[ast.While] = None
            for stmt in node.body:
                if (isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                        and isinstance(stmt.value, ast.Subscript)):
                    # `_lK = frame.arrays['name']`
                    key = stmt.value.slice
                    if not (isinstance(key, ast.Constant)
                            and isinstance(key.value, str)):
                        raise _Unrecognized("array prologue key")
                    local_map[stmt.targets[0].id] = key.value
                elif isinstance(stmt, ast.While):
                    loop = stmt
                else:
                    raise _Unrecognized("unexpected segment prologue")
            if loop is None:
                raise _Unrecognized("segment without while-loop wrapper")
            bodies.append(list(loop.body))
            local_maps.append(local_map)
        return bodies, local_maps

    # -- one segment ----------------------------------------------------

    def _check_segment(self, seg_id: int, body: list[ast.stmt],
                       local_map: dict[str, str]) -> None:
        parser = _SegmentParser(self.func, self.module, self.spec,
                                self.result, self.factory, local_map)
        for events in _leaf_paths(body, ()):
            self._replay(seg_id, parser.evaluate(events))

    def _replay(self, seg_id: int, gen: _GenPath) -> None:
        """Symbolically execute the IR along ``gen``'s decisions, driven
        by its billed cost, and compare every channel."""
        fact = self.factory
        state = SymState(fact, lambda key: fact.input(("slot", key)))
        ops: list[tuple[object, ...]] = []
        executor = IRSymbolicExecutor(
            self.func, self.module, state, ops,
            reg_key=self.func.register_slots.__getitem__, frame=None)
        slots = self.func.register_slots
        blocks = self.func.cfg.blocks
        start_block, seg_start = self.segments[seg_id]
        block, idx = start_block, seg_start
        remaining = gen.cost
        decisions = list(gen.decisions)
        taken_decisions = 0
        spec = self.spec

        while True:
            instrs = blocks[block].instructions
            last = len(instrs) - 1
            while idx < last and not isinstance(instrs[idx], Call):
                executor.step(instrs[idx])
                idx += 1
                remaining -= 1
            instr = instrs[idx]
            remaining -= 1
            if remaining < 0:
                self.fail("E107", f"generated path bills {gen.cost} "
                                  f"instructions; IR path is longer")
                return
            if isinstance(instr, Call):
                if remaining:
                    self.fail("E107", f"cost {gen.cost} does not land on "
                                      f"the call in block {block!r}")
                    return
                args = tuple(state.get(slots[a]) for a in instr.args)
                dst = slots[instr.dst] if instr.dst is not None else None
                expected = ("call", instr.func, args, dst,
                            self.range_seg[(block, idx + 1)])
                self._finish(gen, ops, state, expected, taken_decisions)
                return
            if isinstance(instr, Ret):
                if remaining:
                    self.fail("E107", f"cost {gen.cost} does not land on "
                                      f"the return in block {block!r}")
                    return
                if instr.src is not None:
                    value = state.get(slots[instr.src])
                else:
                    value = fact.const(0)
                if spec.trace:
                    ops.append(("flush",))
                    if spec.listener:
                        ops.append(("listener", self.func.name))
                self._finish(gen, ops, state, ("ret", value),
                             taken_decisions)
                return
            if isinstance(instr, Jump):
                target = instr.target
            elif isinstance(instr, Branch):
                if taken_decisions >= len(decisions):
                    self.fail("E103", f"IR branch in block {block!r} has "
                                      f"no generated decision")
                    return
                test, taken = decisions[taken_decisions]
                taken_decisions += 1
                cond = state.get(slots[instr.cond])
                if cond is not test:
                    self.fail(
                        "E103",
                        f"branch in block {block!r} tests "
                        f"{format_term(cond)} but generated code tests "
                        f"{format_term(test)}")
                    return
                target = instr.then_target if taken else instr.else_target
            else:
                raise _Unrecognized(f"block {block!r} terminator")

            key = (block, target)
            if key in self.probes:
                ops.append(("count", self.edge_index[key]))
            if spec.hooks:
                ops.append(("hook", self.edge_index[key]))
            if spec.trace:
                if key in self.back:
                    ops.append(("flush",))
                    if spec.listener:
                        ops.append(("listener", self.func.name))
                    ops.append(("reset", target))
                else:
                    ops.append(("append", target))

            if remaining == 0:
                if gen.terminal == ("continue",):
                    if target != start_block or seg_start != 0:
                        self.fail("E108", f"native continue but edge "
                                          f"leads to {target!r}, not the "
                                          f"segment top")
                        return
                elif gen.terminal[0] == "goto":
                    goto_seg = gen.terminal[1]
                    if (not 0 <= goto_seg < len(self.segments)
                            or self.segments[goto_seg] != (target, 0)):
                        self.fail("E108", f"bounce to segment {goto_seg} "
                                          f"but edge leads to {target!r}")
                        return
                else:
                    self.fail("E108", f"IR path ends on edge to "
                                      f"{target!r} but generated path "
                                      f"ends with {gen.terminal[0]!r}")
                    return
                self._finish(gen, ops, state, gen.terminal,
                             taken_decisions)
                return
            block, idx = target, 0

    def _finish(self, gen: _GenPath, ops: list[tuple[object, ...]], state: SymState,
                expected_terminal: tuple[object, ...],
                used_decisions: int) -> None:
        if used_decisions != len(gen.decisions):
            self.fail("E103", f"generated path decides "
                              f"{len(gen.decisions)} branches, IR path "
                              f"decides {used_decisions}")
            return
        if gen.terminal[0] in ("call", "ret"):
            if (gen.terminal[0] != expected_terminal[0]
                    or not ops_equal(gen.terminal, expected_terminal)):
                self.fail("E108", f"terminal differs: generated "
                                  f"{_fmt_terminal(gen.terminal)}, IR "
                                  f"{_fmt_terminal(expected_terminal)}")
                return
        if len(gen.ops) != len(ops) or any(
                not ops_equal(a, b) for a, b in zip(gen.ops, ops)):
            self.fail("E105", "effect/observation stream differs: "
                              f"generated [{_fmt_ops(gen.ops)}], IR "
                              f"[{_fmt_ops(ops)}]")
            return
        for key in set(gen.regs) | set(state.regs):
            mine = state.get(key)
            theirs = gen.regs.get(key)
            if theirs is None:
                theirs = state.factory.input(("slot", key))
            if mine is not theirs:
                self.fail("E104", f"register slot {key} ends as "
                                  f"{format_term(theirs)} in generated "
                                  f"code but {format_term(mine)} in IR")
                return


def _fmt_ops(ops: Iterable[tuple]) -> str:
    return "; ".join(format_op(op) for op in ops) or "<empty>"


def _fmt_terminal(terminal: tuple[object, ...]) -> str:
    if terminal[0] == "ret":
        return f"ret {format_term(terminal[1])}"
    if terminal[0] == "call":
        _tag, name, args, dst, seg = terminal
        inner = ", ".join(format_term(a) for a in args)
        return f"call {name}({inner}) -> slot {dst}, seg {seg}"
    return " ".join(str(part) for part in terminal)


def check_function_codegen(func: Function, module: Module,
                           modes: Optional[Sequence[ModeSpec]] = None,
                           report: Optional[Report] = None) -> Report:
    """Validate one sealed function's generated code under ``modes``
    (default: the :func:`standard_modes` lattice)."""
    if report is None:
        report = Report(title=f"codegen equivalence: {func.name}")
    if _is_irreducible(func.cfg):
        report.add(Diagnostic(
            severity=Severity.INFO, code="E001",
            message="irreducible control flow; codegen validation "
                    "skipped", function=func.name))
        return report
    for spec in (modes if modes is not None else standard_modes(func)):
        result = generate_source(func, module, spec)
        _CodegenChecker(func, module, spec, result, report).run()
    return report


def check_module_codegen(module: Module,
                         modes: Optional[Sequence[ModeSpec]] = None
                         ) -> Report:
    """Validate every sealed function of ``module``."""
    report = Report(title=f"codegen equivalence: {module.name}")
    for func in module.functions.values():
        if func.sealed:
            check_function_codegen(func, module, modes, report)
    return report


# The runtime fail-fast hook: Machine(validate_codegen=True) routes every
# compiled (function, mode) through here exactly once per process.
_VALIDATED: "weakref.WeakKeyDictionary[Function, set]" = \
    weakref.WeakKeyDictionary()


def check_generated(func: Function, module: Module, spec: ModeSpec,
                    result: CodegenResult) -> None:
    """Validate ``result`` (already generated for ``func`` x ``spec``)
    and raise :class:`CodegenValidationError` on any error.  Verdicts
    are cached per function x mode, so steady-state reruns are free."""
    done = _VALIDATED.setdefault(func, set())
    if spec in done:
        return
    report = Report(title=f"codegen equivalence: {func.name}")
    if _is_irreducible(func.cfg):
        done.add(spec)
        return
    _CodegenChecker(func, module, spec, result, report).run()
    if not report.ok:
        raise CodegenValidationError(report)
    done.add(spec)


# ---------------------------------------------------------------------------
# Pass client: per-pass simulation relation over symbolic paths
# ---------------------------------------------------------------------------

@dataclass
class _Frame:
    """One activation on a symbolic path's call stack."""

    func: Function
    token: tuple[object, ...]
    block: str
    idx: int
    ret_key: Optional[tuple[object, ...]]

    def copy(self) -> "_Frame":
        return _Frame(self.func, self.token, self.block, self.idx,
                      self.ret_key)


class _PathRun:
    """One in-flight symbolic path (state, stack, effects, root trace)."""

    __slots__ = ("state", "frames", "ops", "trace", "steps", "forks")

    def __init__(self, state: SymState, frames: list[_Frame],
                 ops: list[tuple[object, ...]], trace: list[str], steps: int,
                 forks: int):
        self.state = state
        self.frames = frames
        self.ops = ops
        self.trace = trace
        self.steps = steps
        self.forks = forks

    def clone(self) -> "_PathRun":
        return _PathRun(self.state.clone(),
                        [f.copy() for f in self.frames],
                        list(self.ops), list(self.trace), self.steps,
                        self.forks)


def _root_run(func: Function, fact: TermFactory) -> _PathRun:
    """A fresh run of ``func`` with positional symbolic parameters and
    the interpreter's zero-filled registers."""
    state = SymState(fact, lambda _key: fact.const(0))
    token = ("root", func.name)
    for i, param in enumerate(func.params):
        state.set((token, param), fact.input(("param", i)))
    frame = _Frame(func, token, func.cfg.entry, 0, None)
    return _PathRun(state, [frame], [], [func.cfg.entry], 0, 0)


def _exit_distances(func: Function) -> dict[str, int]:
    """Per block, the fewest CFG edges to any returning block (BFS over
    reversed edges).  Used to bias exploration toward completion."""
    preds: dict[str, list[str]] = {b: [] for b in func.cfg.blocks}
    rets: list[str] = []
    for bname, block in func.cfg.blocks.items():
        term = block.instructions[-1]
        if isinstance(term, Jump):
            preds[term.target].append(bname)
        elif isinstance(term, Branch):
            preds[term.then_target].append(bname)
            preds[term.else_target].append(bname)
        else:
            rets.append(bname)
    dist = {b: len(preds) + 1 for b in preds}
    frontier = rets
    for b in rets:
        dist[b] = 0
    while frontier:
        nxt: list[str] = []
        for b in frontier:
            for p in preds[b]:
                if dist[p] > dist[b] + 1:
                    dist[p] = dist[b] + 1
                    nxt.append(p)
        frontier = nxt
    return dist


class _Explorer:
    """Cross-path exploration context: which blocks any path visited so
    far (per function), and each function's exit-distance map.  Steers
    fresh symbolic branches toward unvisited code first and toward the
    function exit second, so bounded budgets both finish paths and reach
    the optimizers' synthetic blocks."""

    def __init__(self) -> None:
        self.visited: dict[str, set[str]] = {}
        self._dist: dict[str, dict[str, int]] = {}

    def visit(self, func: Function, block: str) -> None:
        self.visited.setdefault(func.name, set()).add(block)

    def pick_arm(self, func: Function, instr: Branch) -> bool:
        then_t, else_t = instr.then_target, instr.else_target
        seen = self.visited.setdefault(func.name, set())
        if (then_t in seen) != (else_t in seen):
            return then_t not in seen
        dist = self._dist.get(func.name)
        if dist is None:
            dist = self._dist[func.name] = _exit_distances(func)
        return dist[then_t] <= dist[else_t]


def _advance(run: _PathRun, module: Module, limits: ExploreLimits,
             fork_sink: Optional[list[_PathRun]],
             explorer: Optional[_Explorer] = None
             ) -> tuple[str, Optional[Term]]:
    """Run ``run`` to completion or abandonment.

    ``fork_sink`` collects forked twins at symbolic branches (explore
    mode); when it is None the run is a *replay* -- a symbolic branch
    whose condition carries no assumption aborts with ``"unaligned"``.
    Returns ``(outcome, return_term)`` with outcome one of ``done`` /
    ``steps`` / ``decisions`` / ``unaligned``.
    """
    state = run.state
    fact = state.factory
    while True:
        if run.steps >= limits.max_steps:
            return ("steps", None)
        run.steps += 1
        frame = run.frames[-1]
        instr: Instr = \
            frame.func.cfg.blocks[frame.block].instructions[frame.idx]
        token = frame.token

        if isinstance(instr, Call):
            callee = module.functions[instr.func]
            args = [state.get((token, a)) for a in instr.args]
            ret_key = ((token, instr.dst)
                       if instr.dst is not None else None)
            new_token = (instr.func, state.activation(instr.func))
            for param, arg in zip(callee.params, args):
                state.set((new_token, param), arg)
            frame.idx += 1
            run.frames.append(_Frame(callee, new_token,
                                     callee.cfg.entry, 0, ret_key))
            if explorer is not None:
                explorer.visit(callee, callee.cfg.entry)
            continue
        if isinstance(instr, Ret):
            if instr.src is not None:
                value = state.get((token, instr.src))
            else:
                value = fact.const(0)
            finished = run.frames.pop()
            if not run.frames:
                return ("done", value)
            if finished.ret_key is not None:
                state.set(finished.ret_key, value)
            continue
        if isinstance(instr, (Jump, Branch)):
            if isinstance(instr, Jump):
                target = instr.target
            else:
                cond = state.get((token, instr.cond))
                if cond.is_const:
                    taken = bool(cond.value)
                else:
                    assumed = state.assumed(cond)
                    if assumed is not None:
                        taken = assumed
                    elif fork_sink is None:
                        return ("unaligned", cond)
                    elif len(run.frames) > 1:
                        # Callee branch: choose one arm greedily and
                        # record it, without forking -- the callee's own
                        # interior is covered when it is the root, and
                        # forking here would spend the whole decision
                        # budget before the root's loops deepen.
                        taken = (explorer.pick_arm(frame.func, instr)
                                 if explorer is not None else True)
                        state.assume(cond, taken)
                    else:
                        run.forks += 1
                        if run.forks > limits.max_decisions:
                            return ("decisions", None)
                        taken = (explorer.pick_arm(frame.func, instr)
                                 if explorer is not None else True)
                        twin = run.clone()
                        twin.state.assume(cond, not taken)
                        fork_sink.append(twin)
                        state.assume(cond, taken)
                target = (instr.then_target if taken
                          else instr.else_target)
            frame.block = target
            frame.idx = 0
            if len(run.frames) == 1:
                run.trace.append(target)
            if explorer is not None:
                explorer.visit(frame.func, target)
            continue

        IRSymbolicExecutor(
            frame.func, module, state, run.ops,
            reg_key=lambda name, _t=token: (_t, name),
            frame=token).step(instr)
        frame.idx += 1


def _explore(func: Function, module: Module, fact: TermFactory,
             limits: ExploreLimits
             ) -> tuple[list[tuple[_PathRun, Term]], int]:
    """Enumerate complete symbolic paths through ``func`` (descending
    into callees).  Returns (completed runs, abandoned count)."""
    completed: list[tuple[_PathRun, Term]] = []
    abandoned = 0
    explorer = _Explorer()
    stack = [_root_run(func, fact)]
    live_budget = limits.max_live
    while stack and len(completed) < limits.max_paths and live_budget:
        live_budget -= 1
        run = stack.pop()
        sink: list[_PathRun] = []
        outcome, value = _advance(run, module, limits, sink, explorer)
        stack.extend(sink)
        if outcome == "done":
            assert value is not None
            completed.append((run, value))
        else:
            abandoned += 1
    abandoned += len(stack)
    return completed, abandoned


def _replay(func: Function, module: Module, fact: TermFactory,
            assumptions: dict[int, bool], step_cap: int
            ) -> tuple[str, Optional[Term], _PathRun]:
    """Replay one path over the post-transform function under the
    pre-path's branch assumptions."""
    run = _root_run(func, fact)
    run.state.assumptions.update(assumptions)
    limits = replace(DEFAULT_LIMITS, max_steps=step_cap)
    outcome, value = _advance(run, module, limits, None)
    return outcome, value, run


# -- per-pass block-trace mappings ------------------------------------------

def _strip_clone_suffix(name: str) -> str:
    return name.split("@", 1)[0]


def _mapped_traces(pass_name: str, pre: list[str], post: list[str],
                   post_func: Function
                   ) -> Optional[tuple[list[str], list[str]]]:
    """Project the two root block traces into the pass's declared
    mapping; None means the pass carries no trace obligation."""
    if pass_name == "cleanup":
        # Jump threading and block merging restructure freely; the
        # estimator re-derives its mapping from the rebuilt CFG.
        return None
    if pass_name == "licm":
        return pre, [b for b in post if "@ph" not in b]
    if pass_name in ("unroll", "superblock"):
        return pre, [_strip_clone_suffix(b) for b in post]
    if pass_name == "ifconvert":
        kept = post_func.cfg.blocks
        return [b for b in pre if b in kept], post
    if pass_name == "inline":
        return ([b for b in pre if "@" not in b],
                [b for b in post if "@" not in b])
    return None


def apply_pass(pass_name: str, module: Module,
               edge_profile: "EdgeProfile",
               path_profile: "PathProfile") -> Module:
    """Run one named optimizer pass, returning the transformed module."""
    from ..opt.cleanup import cleanup_module
    from ..opt.ifconvert import if_convert_module
    from ..opt.inline import inline_module
    from ..opt.licm import licm_module
    from ..opt.superblock import form_superblocks
    from ..opt.unroll import unroll_module
    from ..profiles.metrics import HOT_THRESHOLD

    if pass_name == "cleanup":
        return cleanup_module(module)[0]
    if pass_name == "licm":
        return licm_module(module)[0]
    if pass_name == "inline":
        return inline_module(module, edge_profile)[0]
    if pass_name == "unroll":
        return unroll_module(module, edge_profile)[0]
    if pass_name == "ifconvert":
        return if_convert_module(module, edge_profile)[0]
    if pass_name == "superblock":
        return form_superblocks(
            module, path_profile.hot_paths(HOT_THRESHOLD))[0]
    raise ValueError(f"unknown pass {pass_name!r}")


def check_pass(pass_name: str, pre_module: Module, post_module: Module,
               limits: ExploreLimits = DEFAULT_LIMITS,
               report: Optional[Report] = None) -> Report:
    """Check the simulation relation for one pass over every function."""
    if report is None:
        report = Report(title=f"pass equivalence: {pass_name}")
    for fname, pre_func in pre_module.functions.items():
        post_func = post_module.functions.get(fname)
        if post_func is None:
            report.add(Diagnostic(
                severity=Severity.ERROR, code="E207",
                message=f"pass {pass_name} dropped function {fname!r}",
                function=fname))
            continue
        _check_pass_function(pass_name, pre_func, pre_module, post_func,
                             post_module, limits, report)
    return report


def _check_pass_function(pass_name: str, pre_func: Function,
                         pre_module: Module, post_func: Function,
                         post_module: Module, limits: ExploreLimits,
                         report: Report) -> None:
    fname = pre_func.name
    if _is_irreducible(pre_func.cfg) or _is_irreducible(post_func.cfg):
        report.add(Diagnostic(
            severity=Severity.INFO, code="E001",
            message="irreducible control flow; pass validation skipped",
            function=fname))
        return
    fact = TermFactory()
    completed, _abandoned = _explore(pre_func, pre_module, fact, limits)
    if not completed:
        report.add(Diagnostic(
            severity=Severity.INFO, code="E206",
            message="no complete symbolic path within budget; pass "
                    "validation skipped", function=fname))
        return
    unaligned = 0
    for pre_run, pre_value in completed:
        step_cap = 4 * pre_run.steps + 128
        outcome, post_value, post_run = _replay(
            post_func, post_module, fact,
            pre_run.state.assumptions, step_cap)
        if outcome == "unaligned":
            # The post-path hit a branch condition the pre-path never
            # decided.  Before skipping, hold the effects it already
            # performed to the simulation: every pass preserves the
            # order of observable stores, so they must form a prefix of
            # the pre-path's effect stream.
            prefix = pre_run.ops[:len(post_run.ops)]
            if len(post_run.ops) > len(pre_run.ops) or any(
                    not ops_equal(a, b)
                    for a, b in zip(prefix, post_run.ops)):
                report.add(Diagnostic(
                    severity=Severity.ERROR, code="E202",
                    message=f"{pass_name} changed the effect stream "
                            f"before diverging: "
                            f"[{_fmt_ops(prefix)}] -> "
                            f"[{_fmt_ops(post_run.ops)}]",
                    function=fname))
                return
            unaligned += 1
            continue
        if outcome != "done":
            report.add(Diagnostic(
                severity=Severity.ERROR, code="E204",
                message=f"post-{pass_name} path exceeded "
                        f"{step_cap} simulation steps (pre path took "
                        f"{pre_run.steps})", function=fname))
            return
        assert post_value is not None
        if pre_value is not post_value:
            report.add(Diagnostic(
                severity=Severity.ERROR, code="E201",
                message=f"{pass_name} changed the return value: "
                        f"{format_term(pre_value)} -> "
                        f"{format_term(post_value)}", function=fname))
            return
        if len(pre_run.ops) != len(post_run.ops) or any(
                not ops_equal(a, b)
                for a, b in zip(pre_run.ops, post_run.ops)):
            report.add(Diagnostic(
                severity=Severity.ERROR, code="E202",
                message=f"{pass_name} changed the effect stream: "
                        f"[{_fmt_ops(pre_run.ops)}] -> "
                        f"[{_fmt_ops(post_run.ops)}]", function=fname))
            return
        mapped = _mapped_traces(pass_name, pre_run.trace, post_run.trace,
                                post_func)
        if mapped is not None and mapped[0] != mapped[1]:
            report.add(Diagnostic(
                severity=Severity.ERROR, code="E205",
                message=f"{pass_name} broke the block-trace mapping: "
                        f"{' '.join(mapped[0])} vs "
                        f"{' '.join(mapped[1])}", function=fname))
            return
    if unaligned == len(completed):
        report.add(Diagnostic(
            severity=Severity.INFO, code="E203",
            message=f"all {unaligned} pre-paths unaligned with "
                    f"post-{pass_name} branches; simulation vacuous",
            function=fname))


# ---------------------------------------------------------------------------
# Module / suite drivers
# ---------------------------------------------------------------------------

def equiv_module(module: Module,
                 passes: Sequence[str] = PASS_NAMES,
                 limits: ExploreLimits = DEFAULT_LIMITS,
                 codegen: bool = True
                 ) -> list[tuple[str, Report]]:
    """Run both clients over one module: the codegen lattice and the
    requested optimizer passes (fed by a tuple-backend ground-truth
    trace).
    Returns ``[(label, report), ...]``."""
    from ..engine.stages import ground_truth

    reports: list[tuple[str, Report]] = []
    if codegen:
        reports.append(("codegen", check_module_codegen(module)))
    if passes:
        path_profile, edge_profile, _rv = ground_truth(module,
                                                       backend="tuple")
        for pass_name in passes:
            post = apply_pass(pass_name, module, edge_profile,
                              path_profile)
            reports.append((f"pass:{pass_name}",
                            check_pass(pass_name, module, post, limits)))
    return reports


def equiv_suite(session: "ProfilingSession",
                workloads: Iterable["Workload"],
                passes: Sequence[str] = PASS_NAMES,
                limits: ExploreLimits = DEFAULT_LIMITS
                ) -> list[tuple[str, str, Report]]:
    """Run :func:`equiv_module` over a workload suite, caching each
    workload's verdicts in the session's artifact cache (keyed by module
    fingerprint, pass list, and budget)."""
    from ..engine.fingerprint import fingerprint_module, fingerprint_text

    out: list[tuple[str, str, Report]] = []
    for workload in workloads:
        module = session.compile(workload)
        key = fingerprint_text(
            "equiv", fingerprint_module(module), ",".join(passes),
            repr(limits))
        reports = session.cache.get_or_compute(
            "equiv", key,
            lambda m=module: equiv_module(m, passes, limits))
        for label, report in reports:
            out.append((workload.name, label, report))
    return out
