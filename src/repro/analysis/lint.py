"""IR lint passes built on the dataflow framework.

Findings are advisory :class:`Diagnostic` records; none of them make a
function un-runnable (the interpreter zero-fills registers, tolerates
dead stores, and skips unreachable blocks), but each usually indicates a
front-end or optimizer bug worth a look:

* ``L001`` use-before-def — a register is read on some path before any
  assignment (it silently reads 0).
* ``L002`` dead store — a register write no later instruction can read.
* ``L003`` unreachable block — survives in a sealed function even though
  control can never reach it.
* ``L004`` constant-condition branch — every definition reaching a
  ``Branch`` condition is the same literal, so one arm is dead.
* ``L005`` shadowed/duplicate name — a local array shadows a global, a
  parameter shadows a global scalar, a parameter list repeats a name, or
  a module names a scalar and an array identically.
* ``L006`` duplicate branch target — several out-edges of one block lead
  to the same successor (a branch whose arms coincide, or parallel
  edges); dynamically the machine keys edge events by (block, target),
  so the bundle's counts collapse onto one edge and profiles, probe
  placements, and hot-arm layouts cannot tell its members apart.

Findings located in synthetic (optimizer- or instrumentation-inserted)
blocks are attributed with ``synthetic=True`` and demoted to ``INFO``
unless ``warn_synthetic=True`` — tool-minted blocks routinely contain
patterns (e.g. unrolled dead prologue stores) that are fine by
construction and must not fail a lint gate.
"""

from __future__ import annotations

from typing import Optional

from ..cfg.traversal import reachable
from ..ir.function import Function, Module
from ..ir.instructions import Branch, Call, Const
from .dataflow import DefiniteAssignment, LiveRegisters, \
    ReachingDefinitions
from .diagnostics import Diagnostic, Report, Severity


def _diag(func: Function, block: Optional[str], code: str, message: str,
          hint: str, warn_synthetic: bool) -> Diagnostic:
    synthetic = bool(block is not None and func.is_synthetic(block))
    severity = (Severity.INFO if synthetic and not warn_synthetic
                else Severity.WARNING)
    return Diagnostic(severity=severity, code=code, message=message,
                      function=func.name, block=block, hint=hint,
                      synthetic=synthetic)


def check_use_before_def(func: Function,
                         warn_synthetic: bool = False) -> list[Diagnostic]:
    """``L001``: registers read before any assignment on some path."""
    assignment = DefiniteAssignment(func)
    diags: list[Diagnostic] = []
    flagged: set[tuple[str, str]] = set()
    for name in func.cfg.blocks:
        assigned = set(assignment.assigned_on_entry(name))
        for instr in func.cfg.blocks[name].instructions:
            for reg in instr.registers_read():
                if reg not in assigned and (name, reg) not in flagged:
                    flagged.add((name, reg))
                    diags.append(_diag(
                        func, name, "L001",
                        f"register {reg!r} may be read before assignment "
                        f"(reads 0)",
                        "assign the register on every path from entry, or "
                        "make the implicit zero explicit with a const",
                        warn_synthetic))
            written = instr.register_written()
            if written is not None:
                assigned.add(written)
    return diags


def check_dead_stores(func: Function,
                      warn_synthetic: bool = False) -> list[Diagnostic]:
    """``L002``: register writes no later instruction can observe.

    ``Call`` results are exempt — the call executes for its side effects
    even when the result is unused.
    """
    liveness = LiveRegisters(func)
    diags: list[Diagnostic] = []
    for name, block in func.cfg.blocks.items():
        live = set(liveness.live_out(name))
        for index in range(len(block.instructions) - 1, -1, -1):
            instr = block.instructions[index]
            written = instr.register_written()
            if written is not None:
                if written not in live and not isinstance(instr, Call):
                    diags.append(_diag(
                        func, name, "L002",
                        f"dead store to {written!r} at instruction "
                        f"{index} ({instr!r})",
                        "delete the store or forward its value; "
                        "repro.opt.cleanup removes these automatically",
                        warn_synthetic))
                live.discard(written)
            live.update(instr.registers_read())
    return diags


def check_unreachable_blocks(func: Function,
                             warn_synthetic: bool = False
                             ) -> list[Diagnostic]:
    """``L003``: blocks control can never reach from entry."""
    if func.cfg.entry is None:
        return []
    live = reachable(func.cfg)
    return [
        _diag(func, name, "L003", "block is unreachable from entry",
              "run repro.opt.cleanup (or prune_unreachable) after "
              "restructuring the CFG", warn_synthetic)
        for name in func.cfg.blocks if name not in live
    ]


def check_constant_branches(func: Function,
                            warn_synthetic: bool = False
                            ) -> list[Diagnostic]:
    """``L004``: branches whose condition is provably one literal."""
    reaching = ReachingDefinitions(func)
    diags: list[Diagnostic] = []
    for name, block in func.cfg.blocks.items():
        instrs = block.instructions
        branch = instrs[-1] if instrs else None
        if not isinstance(branch, Branch):
            continue
        value = _constant_condition(func, reaching, name, branch.cond)
        if value is None:
            continue
        taken = branch.then_target if value else branch.else_target
        dead = branch.else_target if value else branch.then_target
        diags.append(_diag(
            func, name, "L004",
            f"branch condition {branch.cond!r} is always "
            f"{value!r}; always jumps to {taken!r}",
            f"replace the branch with `jump {taken}` and delete the "
            f"dead arm toward {dead!r}", warn_synthetic))
    return diags


def _constant_condition(func: Function, reaching: ReachingDefinitions,
                        block: str, cond: str) -> Optional[object]:
    """The single literal ``cond`` can hold at ``block``'s end, if any."""
    instrs = func.cfg.blocks[block].instructions
    for instr in reversed(instrs[:-1]):
        if instr.register_written() == cond:
            return instr.value if isinstance(instr, Const) else None
    defs = [d for d in reaching.reaching(block) if d.reg == cond]
    if not defs:
        return None
    values: set[object] = set()
    for d in defs:
        site = func.cfg.blocks[d.block].instructions[d.index]
        if not isinstance(site, Const):
            return None
        values.add(site.value)
    if len(values) == 1:
        return values.pop()
    return None


def check_shadowed_names(func: Function, module: Optional[Module] = None,
                         warn_synthetic: bool = False) -> list[Diagnostic]:
    """``L005``: shadowed or duplicate names (function-scoped part)."""
    diags: list[Diagnostic] = []
    seen: set[str] = set()
    for param in func.params:
        if param in seen:
            diags.append(_diag(
                func, None, "L005",
                f"duplicate parameter {param!r}",
                "rename the parameter; later positions overwrite "
                "earlier ones at call time", warn_synthetic))
        seen.add(param)
    if module is None:
        return diags
    for array in func.arrays:
        scope = ("global array" if array in module.global_arrays
                 else "global scalar" if array in module.global_scalars
                 else None)
        if scope is not None:
            diags.append(_diag(
                func, None, "L005",
                f"local array {array!r} shadows a {scope}",
                "rename the local array; loads/stores resolve to the "
                "local and silently ignore the global", warn_synthetic))
    for param in func.params:
        if param in module.global_scalars:
            diags.append(_diag(
                func, None, "L005",
                f"parameter {param!r} shadows global scalar {param!r}",
                "rename the parameter; reads resolve to the register, "
                "not the global", warn_synthetic))
    return diags


def check_duplicate_targets(func: Function,
                            warn_synthetic: bool = False
                            ) -> list[Diagnostic]:
    """``L006``: several out-edges of one block share a successor."""
    diags: list[Diagnostic] = []
    for name, block in func.cfg.blocks.items():
        bundles: dict[str, int] = {}
        for edge in block.succ_edges:
            if edge.dummy:
                continue
            bundles[edge.dst] = bundles.get(edge.dst, 0) + 1
        term = block.instructions[-1] if block.instructions else None
        for dst in sorted(bundles):
            if bundles[dst] < 2:
                continue
            shape = ("branch arms coincide on"
                     if isinstance(term, Branch)
                     and term.then_target == term.else_target
                     else f"{bundles[dst]} parallel edges reach")
            diags.append(_diag(
                func, name, "L006",
                f"{shape} successor {dst!r}",
                "collapse the bundle (a coinciding branch is a jump); "
                "edge events are keyed by (block, target), so the "
                "members' counts are dynamically indistinguishable",
                warn_synthetic))
    return diags


_FUNCTION_CHECKS = (check_use_before_def, check_dead_stores,
                    check_unreachable_blocks, check_constant_branches,
                    check_duplicate_targets)


def lint_function(func: Function, module: Optional[Module] = None,
                  warn_synthetic: bool = False) -> list[Diagnostic]:
    """All lint passes over one sealed function."""
    diags: list[Diagnostic] = []
    for check in _FUNCTION_CHECKS:
        diags.extend(check(func, warn_synthetic))
    diags.extend(check_shadowed_names(func, module, warn_synthetic))
    return diags


def lint_module(module: Module,
                warn_synthetic: bool = False) -> Report:
    """All lint passes over every function, plus module-level names."""
    report = Report(title=f"lint {module.name}")
    for name in sorted(module.global_scalars):
        if name in module.global_arrays:
            report.add(Diagnostic(
                severity=Severity.WARNING, code="L005",
                message=(f"global scalar {name!r} and global array "
                         f"{name!r} share a name"),
                hint="rename one; scalar and array accesses use "
                     "separate opcodes, which hides the clash"))
    for func in module.functions.values():
        report.extend(lint_function(func, module, warn_synthetic))
    return report
