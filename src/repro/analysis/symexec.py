"""Hash-consed symbolic execution over the register IR.

This module is the shared engine under the two translation-validation
clients in :mod:`repro.analysis.equiv`: it evaluates straight-line IR
instructions into *terms* -- immutable, interned DAG nodes -- using the
interpreter's exact value recipes (C-style :func:`_c_div`/:func:`_c_mod`,
0/1 comparisons, ``int()`` casts around bitwise operators, shift counts
masked to 6 bits, index wrapping modulo the array length, zero-filled
registers).  Because the recipes mirror both the tuple interpreter's
``_BIN_FNS``/``_UN_FNS`` tables and the expression templates of
:mod:`repro.interp.codegen`, a generated-Python expression and the IR
instruction it was emitted from build the *identical* term, and two
optimizer-pass versions of a computation agree up to register renaming.

Design points:

* **Interning** -- every term is built through one :class:`TermFactory`;
  structurally equal terms are the same object, so equality checks are
  identity checks and shared subexpressions never blow up the DAG.
* **Concolic folding** -- an operator whose operands are all constants
  folds to a constant using the same primitive the interpreters use, so
  the constant folds :mod:`repro.opt.cleanup` performs are invisible to
  the equivalence relation.  Folds that would raise (overflow on
  ``int(inf)``, huge shifts, ...) fall back to a symbolic node on *both*
  sides, keeping the relation total.
* **Memory versioning** -- loads carry a per-location version that
  advances on every store, so two executions that perform the same
  stores in the same order read equal terms, while a
  dropped/duplicated/reordered store perturbs every later load.
* **Path assumptions** -- a branch on a symbolic condition records the
  taken direction against the condition term; :class:`Select` terms
  whose condition is an assumed term resolve to the chosen arm, which is
  exactly the simulation argument if-conversion needs.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Optional

from ..interp.machine import _c_div, _c_mod
from ..ir.function import Function, Module
from ..ir.instructions import (BinOp, Const, GlobalLoad, GlobalStore, Instr,
                               Load, Mov, Select, Store, UnOp)

__all__ = [
    "Term", "TermFactory", "SymState", "IRSymbolicExecutor",
    "ir_binop", "ir_unop", "wrap_index",
    "format_term", "format_op", "ops_equal",
]


class Term:
    """One interned term-DAG node.

    ``kind`` discriminates the node type; ``payload`` carries the node's
    non-term data (a constant value, an operator string, a memory
    location key, ...); ``args`` are the child terms.  Terms are only
    created through a :class:`TermFactory`, which guarantees that
    structural equality implies object identity within that factory.
    """

    __slots__ = ("uid", "kind", "payload", "args")

    def __init__(self, uid: int, kind: str, payload: object,
                 args: tuple["Term", ...]):
        self.uid = uid
        self.kind = kind
        self.payload = payload
        self.args = args

    @property
    def is_const(self) -> bool:
        return self.kind == "const"

    @property
    def value(self) -> object:
        """The concrete value of a constant term."""
        assert self.kind == "const"
        return self.payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Term#{self.uid}({format_term(self)})"


# Primitive folds over raw Python operators.  Bitwise operators only ever
# see operands that already went through a ``cast`` node, matching the
# interpreter's ``int(a) & int(b)`` recipes.
_PY_BIN: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
    "<<": operator.lshift,
    ">>": operator.rshift,
    "%": operator.mod,
}

_PY_CMP: dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}

# Exceptions a concrete fold may raise on degenerate values; the fold
# then stays symbolic (identically on every side of a comparison).
_FOLD_ERRORS = (ArithmeticError, ValueError, OverflowError, TypeError)


class TermFactory:
    """Builds and interns terms; one factory per equivalence check."""

    def __init__(self) -> None:
        self._interned: dict[tuple[object, ...], Term] = {}
        self._next_uid = 0

    def _mk(self, kind: str, payload: object,
            args: tuple[Term, ...] = ()) -> Term:
        # Constants discriminate on the value's type as well: 1, 1.0 and
        # True hash equal but behave differently under C-style division.
        key = (kind, type(payload).__name__, payload,
               tuple(a.uid for a in args))
        term = self._interned.get(key)
        if term is None:
            term = Term(self._next_uid, kind, payload, args)
            self._next_uid += 1
            self._interned[key] = term
        return term

    # -- leaves --------------------------------------------------------

    def const(self, value: object) -> Term:
        return self._mk("const", value)

    def input(self, key: object) -> Term:
        """An unknown initial value (register slot, parameter, ...)."""
        return self._mk("input", key)

    # -- operators (with concolic folding) -----------------------------

    def bin(self, op: str, a: Term, b: Term) -> Term:
        if a.is_const and b.is_const:
            try:
                return self.const(_PY_BIN[op](a.value, b.value))
            except _FOLD_ERRORS:
                pass
        return self._mk("bin", op, (a, b))

    def cmp(self, op: str, a: Term, b: Term) -> Term:
        if a.is_const and b.is_const:
            try:
                return self.const(1 if _PY_CMP[op](a.value, b.value) else 0)
            except _FOLD_ERRORS:
                pass
        return self._mk("cmp", op, (a, b))

    def cdiv(self, a: Term, b: Term) -> Term:
        if a.is_const and b.is_const:
            try:
                return self.const(_c_div(a.value, b.value))
            except _FOLD_ERRORS:
                pass
        return self._mk("cdiv", None, (a, b))

    def cmod(self, a: Term, b: Term) -> Term:
        if a.is_const and b.is_const:
            try:
                return self.const(_c_mod(a.value, b.value))
            except _FOLD_ERRORS:
                pass
        return self._mk("cmod", None, (a, b))

    def cast(self, a: Term) -> Term:
        """``int(a)`` -- the interpreter's bitwise-operand coercion."""
        if a.is_const:
            try:
                return self.const(int(a.value))  # type: ignore[call-overload]
            except _FOLD_ERRORS:
                pass
        return self._mk("cast", None, (a,))

    def neg(self, a: Term) -> Term:
        if a.is_const:
            try:
                return self.const(-a.value)  # type: ignore[operator]
            except _FOLD_ERRORS:
                pass
        return self._mk("neg", None, (a,))

    def inv(self, a: Term) -> Term:
        """``~a`` over an already-cast operand."""
        if a.is_const:
            try:
                return self.const(~a.value)  # type: ignore[operator]
            except _FOLD_ERRORS:
                pass
        return self._mk("inv", None, (a,))

    def select(self, cond: Term, a: Term, b: Term) -> Term:
        """Raw select; path-sensitive resolution lives on the state."""
        if cond.is_const:
            return a if cond.value else b
        if a is b:
            return a
        return self._mk("sel", None, (cond, a, b))

    # -- memory and calls ----------------------------------------------

    def load(self, location: object, version: int, idx: Term) -> Term:
        return self._mk("load", (location, version), (idx,))

    def gload(self, name: str, version: int) -> Term:
        return self._mk("gload", (name, version))


# ---------------------------------------------------------------------------
# The canonical instruction recipes (shared by the IR executor and, by
# construction, by the generated-code templates of interp.codegen).
# ---------------------------------------------------------------------------

def ir_binop(fact: TermFactory, op: str, a: Term, b: Term) -> Term:
    """The term an IR ``BinOp(op, a, b)`` evaluates to."""
    if op in ("+", "-", "*"):
        return fact.bin(op, a, b)
    if op == "/":
        return fact.cdiv(a, b)
    if op == "%":
        return fact.cmod(a, b)
    if op in _PY_CMP:
        return fact.cmp(op, a, b)
    if op in ("&", "|", "^"):
        return fact.bin(op, fact.cast(a), fact.cast(b))
    if op in ("<<", ">>"):
        return fact.bin(op, fact.cast(a),
                        fact.bin("&", fact.cast(b), fact.const(63)))
    raise ValueError(f"unknown binary operator {op!r}")


def ir_unop(fact: TermFactory, op: str, a: Term) -> Term:
    """The term an IR ``UnOp(op, a)`` evaluates to."""
    if op == "-":
        return fact.neg(a)
    if op == "!":
        return fact.cmp("==", a, fact.const(0))
    if op == "~":
        return fact.inv(fact.cast(a))
    raise ValueError(f"unknown unary operator {op!r}")


def wrap_index(fact: TermFactory, idx: Term, length: int) -> Term:
    """``int(idx) % length`` -- the interpreter's array-index wrap."""
    return fact.bin("%", fact.cast(idx), fact.const(length))


class SymState:
    """A register file over terms, plus the memory clock, the per-callee
    activation counters, and the path's branch assumptions.

    Register keys are arbitrary hashable values (the codegen client keys
    by slot index, the pass client by ``(activation, name)``); a key read
    before it is written lazily initialises through ``init_reg`` -- the
    codegen client supplies fresh inputs (a segment starts mid-execution
    with unknown registers), the pass client supplies the interpreter's
    zero fill.
    """

    def __init__(self, factory: TermFactory,
                 init_reg: Callable[[object], Term]):
        self.factory = factory
        self.init_reg = init_reg
        self.regs: dict[object, Term] = {}
        # Memory versioning: a single clock, advanced by every store; a
        # location's version is its last write.
        self.mem_clock = 0
        self.last_write: dict[object, int] = {}
        # Per-callee activation ordinals.
        self.activations: dict[str, int] = {}
        # Branch assumptions: condition-term uid -> assumed truth.
        self.assumptions: dict[int, bool] = {}

    # -- registers -----------------------------------------------------

    def get(self, key: object) -> Term:
        term = self.regs.get(key)
        if term is None:
            term = self.init_reg(key)
            self.regs[key] = term
        return term

    def set(self, key: object, term: Term) -> None:
        self.regs[key] = term

    # -- memory --------------------------------------------------------

    def version(self, location: object) -> int:
        return self.last_write.get(location, 0)

    def write_mem(self, location: object) -> None:
        self.mem_clock += 1
        self.last_write[location] = self.mem_clock

    # -- activations ---------------------------------------------------

    def activation(self, callee: str) -> int:
        """A callee-stable activation ordinal (used to key local-array
        locations so they survive the inliner's call-count changes)."""
        ordinal = self.activations.get(callee, 0)
        self.activations[callee] = ordinal + 1
        return ordinal

    # -- path sensitivity ----------------------------------------------

    def assume(self, cond: Term, outcome: bool) -> None:
        self.assumptions[cond.uid] = outcome

    def assumed(self, cond: Term) -> Optional[bool]:
        return self.assumptions.get(cond.uid)

    def select(self, cond: Term, a: Term, b: Term) -> Term:
        """Select with path-assumption resolution (folds when the path
        already fixed the condition's truth at a branch)."""
        assumed = self.assumptions.get(cond.uid)
        if assumed is not None:
            return a if assumed else b
        return self.factory.select(cond, a, b)

    def clone(self) -> "SymState":
        """An independent copy for path forking (terms stay shared)."""
        twin = SymState(self.factory, self.init_reg)
        twin.regs = dict(self.regs)
        twin.mem_clock = self.mem_clock
        twin.last_write = dict(self.last_write)
        twin.activations = dict(self.activations)
        twin.assumptions = dict(self.assumptions)
        return twin


class IRSymbolicExecutor:
    """Steps the straight-line IR instructions of one activation.

    ``reg_key`` maps an IR register name to its state key; ``frame``
    tokens distinguish local arrays of different activations.  Stores and
    global stores are appended to ``ops`` -- an ordered effect stream
    shared with the client's observation events.  Control flow
    (``Jump``/``Branch``/``Call``/``Ret``) stays with the client: it owns
    path selection.
    """

    def __init__(self, func: Function, module: Module, state: SymState,
                 ops: list[tuple[object, ...]],
                 reg_key: Optional[Callable[[str], object]] = None,
                 frame: object = None):
        self.func = func
        self.module = module
        self.state = state
        self.ops = ops
        self.reg_key: Callable[[str], object] = (
            reg_key if reg_key is not None else lambda name: name)
        self.frame = frame

    # -- operand helpers -----------------------------------------------

    def read(self, name: str) -> Term:
        return self.state.get(self.reg_key(name))

    def write(self, name: str, term: Term) -> None:
        self.state.set(self.reg_key(name), term)

    def location(self, array: str) -> tuple[object, int]:
        """(location key, length) for an array operand."""
        if array in self.func.arrays:
            return ("local", self.frame, array), self.func.arrays[array]
        return ("global", array), self.module.global_arrays[array]

    # -- the step function ---------------------------------------------

    def step(self, instr: Instr) -> None:
        """Execute one non-control instruction."""
        fact = self.state.factory
        if isinstance(instr, Const):
            self.write(instr.dst, fact.const(instr.value))
        elif isinstance(instr, Mov):
            self.write(instr.dst, self.read(instr.src))
        elif isinstance(instr, BinOp):
            self.write(instr.dst, ir_binop(fact, instr.op,
                                           self.read(instr.a),
                                           self.read(instr.b)))
        elif isinstance(instr, UnOp):
            self.write(instr.dst, ir_unop(fact, instr.op,
                                          self.read(instr.a)))
        elif isinstance(instr, Select):
            self.write(instr.dst, self.state.select(self.read(instr.cond),
                                                    self.read(instr.a),
                                                    self.read(instr.b)))
        elif isinstance(instr, Load):
            location, length = self.location(instr.array)
            idx = wrap_index(fact, self.read(instr.idx), length)
            self.write(instr.dst, fact.load(
                location, self.state.version(location), idx))
        elif isinstance(instr, Store):
            location, length = self.location(instr.array)
            idx = wrap_index(fact, self.read(instr.idx), length)
            self.ops.append(("store", location, idx, self.read(instr.src)))
            self.state.write_mem(location)
        elif isinstance(instr, GlobalLoad):
            location = ("gs", instr.name)
            self.write(instr.dst, fact.gload(
                instr.name, self.state.version(location)))
        elif isinstance(instr, GlobalStore):
            self.ops.append(("gstore", instr.name, self.read(instr.src)))
            self.state.write_mem(("gs", instr.name))
        else:
            raise TypeError(f"not a straight-line instruction: {instr!r}")


# ---------------------------------------------------------------------------
# Rendering (for diagnostics)
# ---------------------------------------------------------------------------

def format_term(term: Term, depth: int = 4) -> str:
    """A compact, depth-capped rendering for diagnostic messages."""
    if depth <= 0:
        return "…"
    args = term.args
    if term.kind == "const":
        return repr(term.payload)
    if term.kind == "input":
        return f"in{term.payload!r}"
    if term.kind in ("bin", "cmp"):
        return (f"({format_term(args[0], depth - 1)} {term.payload} "
                f"{format_term(args[1], depth - 1)})")
    if term.kind == "cdiv":
        return (f"cdiv({format_term(args[0], depth - 1)}, "
                f"{format_term(args[1], depth - 1)})")
    if term.kind == "cmod":
        return (f"cmod({format_term(args[0], depth - 1)}, "
                f"{format_term(args[1], depth - 1)})")
    if term.kind == "cast":
        return f"int({format_term(args[0], depth - 1)})"
    if term.kind == "neg":
        return f"-{format_term(args[0], depth - 1)}"
    if term.kind == "inv":
        return f"~{format_term(args[0], depth - 1)}"
    if term.kind == "sel":
        return (f"({format_term(args[0], depth - 1)} ? "
                f"{format_term(args[1], depth - 1)} : "
                f"{format_term(args[2], depth - 1)})")
    if term.kind == "load":
        location, version = term.payload  # type: ignore[misc]
        return (f"{_loc(location)}[{format_term(args[0], depth - 1)}]"
                f"@v{version}")
    if term.kind == "gload":
        name, version = term.payload  # type: ignore[misc]
        return f"{name}@v{version}"
    return f"<{term.kind}>"  # pragma: no cover - defensive


def _loc(location: object) -> str:
    if isinstance(location, tuple) and len(location) >= 2:
        return str(location[-1])
    return str(location)  # pragma: no cover - defensive


def format_op(op: tuple[object, ...]) -> str:
    """Render one effect/observation stream entry."""
    tag = op[0]
    if tag == "store":
        _tag, location, idx, val = op
        assert isinstance(idx, Term) and isinstance(val, Term)
        return f"store {_loc(location)}[{format_term(idx)}] = " \
               f"{format_term(val)}"
    if tag == "gstore":
        _tag, name, val = op
        assert isinstance(val, Term)
        return f"gstore {name} = {format_term(val)}"
    parts = [str(tag)]
    for extra in op[1:]:
        parts.append(format_term(extra) if isinstance(extra, Term)
                     else str(extra))
    return " ".join(parts)


def ops_equal(a: tuple[object, ...], b: tuple[object, ...]) -> bool:
    """Structural equality of two stream entries (terms by identity)."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, Term) or isinstance(y, Term):
            if x is not y:
                return False
        elif isinstance(x, tuple) and isinstance(y, tuple):
            if not ops_equal(x, y):
                return False
        elif x != y:
            return False
    return True
