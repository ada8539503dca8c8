"""Human-readable IR dumps.

``format_function``/``format_module`` render sealed IR in an
assembly-like textual form -- the format the examples and the CLI's
``disasm`` command show.  The output is stable (blocks in
reverse-postorder, entry first) so it can be snapshot-tested.
"""

from __future__ import annotations

from ..cfg.traversal import reverse_postorder
from .function import Function, Module


def format_function(func: Function) -> str:
    """One function as text."""
    if not func.sealed:
        raise ValueError(f"function {func.name!r} is not sealed")
    params = ", ".join(func.params)
    lines = [f"func {func.name}({params}) {{"]
    for name, size in sorted(func.arrays.items()):
        lines.append(f"  array {name}[{size}]")
    order = reverse_postorder(func.cfg)
    # Append unreachable blocks (possible in hand-built IR) at the end.
    rest = [b for b in func.cfg.blocks if b not in set(order)]
    for bname in order + sorted(rest):
        marker = ""
        if bname == func.cfg.entry:
            marker = "  ; entry"
        elif bname == func.cfg.exit:
            marker = "  ; exit"
        lines.append(f"{bname}:{marker}")
        for instr in func.cfg.blocks[bname].instructions:
            lines.append(f"    {instr!r}")
    lines.append("}")
    return "\n".join(lines)


def format_module(module: Module) -> str:
    """The whole module as text."""
    lines = [f"module {module.name}"]
    for name, value in sorted(module.global_scalars.items()):
        lines.append(f"global {name} = {value!r}")
    for name, size in sorted(module.global_arrays.items()):
        lines.append(f"global {name}[{size}]")
    for func in module.functions.values():
        lines.append("")
        lines.append(format_function(func))
    return "\n".join(lines)
