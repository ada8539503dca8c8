"""Rebuilding sealed functions after a CFG-restructuring transformation.

Sealed :class:`~repro.ir.function.Function` objects are immutable, so the
inliner and unroller work on plain ``{block name: [instructions]}`` maps
and re-seal through this module.  Unreachable blocks left behind by a
transformation are pruned before sealing (the validator rejects them).
"""

from __future__ import annotations

from ..ir.function import Function
from ..ir.instructions import Branch, Instr, Jump


def retarget(instr: Instr, mapping: dict[str, str]) -> Instr:
    """``instr`` with its branch targets renamed through ``mapping``
    (targets not in it are kept); non-branches are returned as is."""
    if isinstance(instr, Jump):
        return Jump(mapping.get(instr.target, instr.target))
    if isinstance(instr, Branch):
        return Branch(instr.cond,
                      mapping.get(instr.then_target, instr.then_target),
                      mapping.get(instr.else_target, instr.else_target))
    return instr


def prune_unreachable(blocks: dict[str, list[Instr]], entry: str
                      ) -> dict[str, list[Instr]]:
    """Keep only blocks reachable from ``entry`` by terminator targets."""
    seen: set[str] = set()
    stack = [entry]
    while stack:
        name = stack.pop()
        if name in seen or name not in blocks:
            continue
        seen.add(name)
        instrs = blocks[name]
        if not instrs:
            continue
        term = instrs[-1]
        if isinstance(term, Jump):
            stack.append(term.target)
        elif isinstance(term, Branch):
            stack.append(term.then_target)
            stack.append(term.else_target)
    return {name: instrs for name, instrs in blocks.items() if name in seen}


def rebuild_function(name: str, params: list[str],
                     arrays: dict[str, int],
                     blocks: dict[str, list[Instr]], entry: str,
                     synthetic: set[str] | None = None) -> Function:
    """Assemble and seal a function from raw block contents.

    ``synthetic`` names blocks carried over from a function that had
    already tagged them.  Blocks the optimizer passes mint themselves
    use an ``@`` in the name (``@inl0``, ``@sb1``, ``body@head.u2``) and
    are tagged automatically, so lint diagnostics attribute them to the
    optimizer rather than the source program.
    """
    func = Function(name, params)
    for array, size in arrays.items():
        func.add_local_array(array, size)
    pruned = prune_unreachable(blocks, entry)
    for bname, instrs in pruned.items():
        func.add_block(bname)
        for instr in instrs:
            func.append(bname, instr)
        if "@" in bname or (synthetic is not None and bname in synthetic):
            func.mark_synthetic(bname)
    func.seal(entry)
    return func


def block_map(func: Function) -> dict[str, list[Instr]]:
    """A mutable copy of a function's blocks."""
    return {name: list(block.instructions)
            for name, block in func.cfg.blocks.items()}
