"""Structural validation of sealed IR modules.

The validator catches the errors that would otherwise surface as confusing
interpreter failures: dangling branch targets, calls to unknown functions,
arity mismatches, references to undeclared arrays or globals, and
unreachable blocks.
"""

from __future__ import annotations

from ..cfg.traversal import reachable
from .function import Function, IRError, Module
from .instructions import (Branch, Call, GlobalLoad, GlobalStore, Jump, Load,
                           Ret, Store)


def validate_function(func: Function, module: Module) -> list[str]:
    """Return a list of problems found in ``func`` (empty when valid)."""
    problems: list[str] = []
    if not func.sealed:
        problems.append(f"{func.name}: function not sealed")
        return problems
    cfg = func.cfg
    known_arrays = set(func.arrays) | set(module.global_arrays)
    for name, block in cfg.blocks.items():
        instrs = block.instructions
        if not instrs:
            problems.append(f"{func.name}.{name}: empty block")
            continue
        for i, instr in enumerate(instrs):
            if instr.is_terminator and i != len(instrs) - 1:
                problems.append(
                    f"{func.name}.{name}: terminator mid-block at {i}")
            if isinstance(instr, (Load, Store)):
                if instr.array not in known_arrays:
                    problems.append(
                        f"{func.name}.{name}: unknown array {instr.array!r}")
            elif isinstance(instr, (GlobalLoad, GlobalStore)):
                if instr.name not in module.global_scalars:
                    problems.append(
                        f"{func.name}.{name}: unknown global {instr.name!r}")
            elif isinstance(instr, Call):
                callee = module.functions.get(instr.func)
                if callee is None:
                    problems.append(
                        f"{func.name}.{name}: call to unknown "
                        f"function {instr.func!r}")
                elif len(instr.args) != len(callee.params):
                    problems.append(
                        f"{func.name}.{name}: call to {instr.func!r} with "
                        f"{len(instr.args)} args, expected "
                        f"{len(callee.params)}")
        term = instrs[-1]
        if isinstance(term, Jump):
            if term.target not in cfg.blocks:
                problems.append(
                    f"{func.name}.{name}: jump to unknown {term.target!r}")
        elif isinstance(term, Branch):
            for target in (term.then_target, term.else_target):
                if target not in cfg.blocks:
                    problems.append(
                        f"{func.name}.{name}: branch to unknown {target!r}")
        elif isinstance(term, Ret):
            if name != cfg.exit:
                problems.append(
                    f"{func.name}.{name}: ret outside the exit block")
        else:
            problems.append(f"{func.name}.{name}: missing terminator")

    live = reachable(cfg)
    dead = set(cfg.blocks) - live
    for name in sorted(dead):
        problems.append(f"{func.name}.{name}: unreachable block")
    if cfg.exit not in live:
        problems.append(f"{func.name}: exit block unreachable")
    return problems


def validate_module(module: Module) -> list[str]:
    """Return all problems across the module (empty when valid)."""
    problems: list[str] = []
    if module.main not in module.functions:
        problems.append(f"module {module.name!r}: no main "
                        f"function {module.main!r}")
    for name in sorted(module.global_scalars):
        if name in module.global_arrays:
            problems.append(f"module {module.name!r}: global scalar and "
                            f"global array share the name {name!r}")
    for func in module.functions.values():
        problems.extend(validate_function(func, module))
    return problems


def check_module(module: Module) -> None:
    """Raise :class:`IRError` with all problems when the module is invalid."""
    problems = validate_module(module)
    if problems:
        raise IRError("invalid module:\n  " + "\n  ".join(problems))
