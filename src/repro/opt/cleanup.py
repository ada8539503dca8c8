"""Classic scalar optimizations (the paper's "standard scalar
optimizations", Section 7.3).

Four passes, iterated to a fixed point per function:

* **constant folding / block-local constant propagation** -- registers
  holding known constants are substituted, arithmetic on constants is
  evaluated with *exactly* the interpreter's semantics (reusing its
  operator tables), and branches on constants become jumps;
* **block-local copy propagation** -- uses of ``dst`` after ``dst = src``
  read ``src`` directly until either is redefined;
* **dead-code elimination** -- side-effect-free writes to registers that
  global liveness proves dead are dropped;
* **CFG simplification** -- empty forwarding blocks are threaded away,
  straight-line block chains (A jumps to B, B's only predecessor is A)
  are merged, and unreachable blocks pruned.  Merging is what lets the
  folding passes work across joins that superblock formation removed.

None of the passes may change behaviour; the property tests execute
random programs before and after to enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..interp.machine import _BIN_FNS, _UN_FNS
from ..ir.function import Function, Module
from ..ir.instructions import (BinOp, Branch, Call, Const, GlobalLoad,
                               GlobalStore, Instr, Jump, Load, Mov, Ret,
                               Select, Store, UnOp)
from .liveness import Liveness
from .rebuild import block_map, rebuild_function

# Writes by these are removable when the destination is dead.
_PURE_WRITES = (Const, Mov, BinOp, UnOp, Load, GlobalLoad, Select)


@dataclass
class CleanupStats:
    """What the passes did, per module."""

    constants_folded: int = 0
    copies_propagated: int = 0
    dead_removed: int = 0
    branches_resolved: int = 0
    blocks_threaded: int = 0
    blocks_merged: int = 0

    @property
    def total(self) -> int:
        return (self.constants_folded + self.copies_propagated
                + self.dead_removed + self.branches_resolved
                + self.blocks_threaded + self.blocks_merged)


def _substitute(instr: Instr, env: dict[str, str]) -> Instr:
    """Rewrite register reads through the copy environment.

    Returns the *same* object when nothing changes, so callers can use
    identity to count real rewrites (and reach a fixed point).
    """
    if not env or not any(reg in env for reg in instr.registers_read()):
        return instr

    def r(reg: str) -> str:
        return env.get(reg, reg)

    if isinstance(instr, Mov):
        return Mov(instr.dst, r(instr.src))
    if isinstance(instr, BinOp):
        return BinOp(instr.op, instr.dst, r(instr.a), r(instr.b))
    if isinstance(instr, UnOp):
        return UnOp(instr.op, instr.dst, r(instr.a))
    if isinstance(instr, Load):
        return Load(instr.dst, instr.array, r(instr.idx))
    if isinstance(instr, Store):
        return Store(instr.array, r(instr.idx), r(instr.src))
    if isinstance(instr, GlobalStore):
        return GlobalStore(instr.name, r(instr.src))
    if isinstance(instr, Call):
        return Call(instr.dst, instr.func, [r(a) for a in instr.args])
    if isinstance(instr, Select):
        return Select(instr.dst, r(instr.cond), r(instr.a), r(instr.b))
    if isinstance(instr, Branch):
        return Branch(r(instr.cond), instr.then_target, instr.else_target)
    if isinstance(instr, Ret):
        return Ret(r(instr.src)) if instr.src is not None else instr
    return instr


def _fold_block(instrs: list[Instr], stats: CleanupStats) -> list[Instr]:
    """Constant folding + constant/copy propagation within one block."""
    consts: dict[str, object] = {}
    copies: dict[str, str] = {}
    out: list[Instr] = []

    def kill(reg: str | None) -> None:
        if reg is None:
            return
        consts.pop(reg, None)
        copies.pop(reg, None)
        # Anything copying *from* reg is stale now.
        for dst in [d for d, s in copies.items() if s == reg]:
            del copies[dst]

    for instr in instrs:
        before = instr
        instr = _substitute(instr, copies)
        if instr is not before:
            stats.copies_propagated += 1
        if isinstance(instr, Const):
            kill(instr.dst)
            consts[instr.dst] = instr.value
            out.append(instr)
            continue
        if isinstance(instr, Mov):
            if instr.src in consts:
                kill(instr.dst)
                value = consts[instr.src]
                consts[instr.dst] = value
                out.append(Const(instr.dst, value))
                stats.constants_folded += 1
            else:
                kill(instr.dst)
                if instr.src != instr.dst:
                    copies[instr.dst] = instr.src
                out.append(instr)
            continue
        if isinstance(instr, BinOp) and instr.a in consts \
                and instr.b in consts:
            value = _BIN_FNS[instr.op](consts[instr.a], consts[instr.b])
            kill(instr.dst)
            consts[instr.dst] = value
            out.append(Const(instr.dst, value))
            stats.constants_folded += 1
            continue
        if isinstance(instr, UnOp) and instr.a in consts:
            value = _UN_FNS[instr.op](consts[instr.a])
            kill(instr.dst)
            consts[instr.dst] = value
            out.append(Const(instr.dst, value))
            stats.constants_folded += 1
            continue
        if isinstance(instr, Select) and instr.cond in consts:
            chosen = instr.a if consts[instr.cond] else instr.b
            kill(instr.dst)
            if chosen in consts:
                value = consts[chosen]
                consts[instr.dst] = value
                out.append(Const(instr.dst, value))
            else:
                if chosen != instr.dst:
                    copies[instr.dst] = chosen
                out.append(Mov(instr.dst, chosen))
            stats.constants_folded += 1
            continue
        if isinstance(instr, Branch) and instr.cond in consts:
            target = (instr.then_target if consts[instr.cond]
                      else instr.else_target)
            out.append(Jump(target))
            stats.branches_resolved += 1
            continue
        if isinstance(instr, Call):
            # Calls may touch globals but not our registers (besides dst).
            kill(instr.register_written())
            out.append(instr)
            continue
        kill(instr.register_written())
        out.append(instr)
    return out


def _eliminate_dead(func_name: str, params: list[str],
                    arrays: dict[str, int],
                    blocks: dict[str, list[Instr]], entry: str,
                    stats: CleanupStats) -> dict[str, list[Instr]]:
    """Drop side-effect-free writes to dead registers (global liveness)."""
    probe = rebuild_function(func_name + ".probe", params, arrays,
                             {b: list(i) for b, i in blocks.items()}, entry)
    liveness = Liveness(probe)
    out: dict[str, list[Instr]] = {}
    for bname in probe.cfg.blocks:
        live = liveness.live_after(bname)
        kept_rev: list[Instr] = []
        for instr in reversed(probe.cfg.blocks[bname].instructions):
            written = instr.register_written()
            removable = (isinstance(instr, _PURE_WRITES)
                         and written is not None and written not in live)
            if removable:
                stats.dead_removed += 1
                continue
            kept_rev.append(instr)
            if written is not None:
                live.discard(written)
            live.update(instr.registers_read())
        out[bname] = list(reversed(kept_rev))
    return out


def _thread_jumps(blocks: dict[str, list[Instr]], entry: str,
                  stats: CleanupStats) -> None:
    """Redirect edges through blocks that only contain a jump."""
    forward: dict[str, str] = {}
    for name, instrs in blocks.items():
        if name != entry and len(instrs) == 1 and isinstance(instrs[0], Jump):
            forward[name] = instrs[0].target

    def resolve(target: str) -> str:
        seen = set()
        while target in forward and target not in seen:
            seen.add(target)
            target = forward[target]
        return target

    for name, instrs in blocks.items():
        if not instrs:
            continue
        term = instrs[-1]
        if isinstance(term, Jump):
            resolved = resolve(term.target)
            if resolved != term.target:
                instrs[-1] = Jump(resolved)
                stats.blocks_threaded += 1
        elif isinstance(term, Branch):
            then_t = resolve(term.then_target)
            else_t = resolve(term.else_target)
            if (then_t, else_t) != (term.then_target, term.else_target):
                stats.blocks_threaded += 1
                if then_t == else_t:
                    instrs[-1] = Jump(then_t)
                else:
                    instrs[-1] = Branch(term.cond, then_t, else_t)


def _merge_chains(blocks: dict[str, list[Instr]], entry: str,
                  stats: CleanupStats) -> None:
    """Merge A ending in Jump(B) with B when A is B's only predecessor."""
    merged = True
    while merged:
        merged = False
        preds: dict[str, list[str]] = {}
        for name, instrs in blocks.items():
            if not instrs:
                continue
            term = instrs[-1]
            targets = []
            if isinstance(term, Jump):
                targets = [term.target]
            elif isinstance(term, Branch):
                targets = [term.then_target, term.else_target]
            for t in targets:
                preds.setdefault(t, []).append(name)
        for name in list(blocks):
            instrs = blocks.get(name)
            if not instrs or not isinstance(instrs[-1], Jump):
                continue
            target = instrs[-1].target
            if target == name or target == entry:
                continue
            if preds.get(target, []) != [name]:
                continue
            if target not in blocks:
                continue
            blocks[name] = instrs[:-1] + blocks[target]
            del blocks[target]
            stats.blocks_merged += 1
            merged = True
            break  # pred map is stale; recompute


def cleanup_function(func: Function, module: Module,
                     stats: CleanupStats) -> Function:
    """Iterate the passes to a fixed point (at most 8 rounds) and return
    a fresh function."""
    blocks = block_map(func)
    entry = func.cfg.entry
    assert entry is not None
    params = list(func.params)
    arrays = dict(func.arrays)
    for _round in range(8):
        before = stats.total
        for name in list(blocks):
            blocks[name] = _fold_block(blocks[name], stats)
        _thread_jumps(blocks, entry, stats)
        _merge_chains(blocks, entry, stats)
        blocks = _eliminate_dead(func.name, params, arrays, blocks, entry,
                                 stats)
        if stats.total == before:
            break
    return rebuild_function(func.name, params, arrays, blocks, entry,
                            synthetic=set(getattr(func, "synthetic_blocks",
                                                  ())))


def cleanup_module(module: Module) -> tuple[Module, CleanupStats]:
    """Run the scalar optimizations over every function."""
    stats = CleanupStats()
    out = Module(module.name)
    out.main = module.main
    out.global_scalars = dict(module.global_scalars)
    out.global_arrays = dict(module.global_arrays)
    for name, func in module.functions.items():
        out.functions[name] = cleanup_function(func, module, stats)
    return out, stats
