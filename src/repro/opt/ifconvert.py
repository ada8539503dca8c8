"""If-conversion: predicate small diamonds into branch-free selects.

The hyperblock work the paper cites (Mahlke et al. [24]) removes
hard-to-predict branches by *predication*: execute both arms, keep the
right results.  This pass is the scalar version: a diamond whose arms are
short and side-effect-free is folded into straight-line code --

    if (c) { x = a; }        cond = c
    else   { x = b; }   =>   x.t = a ; x.e = b
    use x                    x = cond ? x.t : x.e

guided by the edge profile: only *mispredictable* branches (taken
probability within :data:`BIAS_WINDOW` of 50/50) are converted, since biased
branches predict well and converting them just wastes work.

The interaction with path profiling is the study's point
(:mod:`repro.harness.ifconvert_study`): every converted branch removes a
branch decision, so the program has fewer, longer Ball-Larus paths and
cheaper PPP instrumentation -- optimization and profiling co-operate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.function import Function, Module
from ..ir.instructions import (BinOp, Branch, Const, Instr, Jump, Mov,
                               Select, UnOp)
from ..profiles.edge_profile import EdgeProfile, FunctionEdgeProfile
from .rebuild import block_map, rebuild_function

MAX_ARM_INSTRUCTIONS = 6   # both-arm execution must stay cheap
BIAS_WINDOW = 0.3          # convert when 0.5 - w <= p(taken) <= 0.5 + w

# Instructions safe to execute speculatively: pure register writes.
_SPECULATABLE = (Const, Mov, BinOp, UnOp, Select)


@dataclass
class IfConvertStats:
    diamonds_converted: int = 0
    selects_inserted: int = 0
    candidates_rejected_bias: int = 0
    candidates_rejected_shape: int = 0


def _arm_body(instrs: list[Instr]) -> list[Instr] | None:
    """The speculatable body of an arm block, or None if unsuitable."""
    if not instrs or not isinstance(instrs[-1], Jump):
        return None
    body = instrs[:-1]
    if len(body) > MAX_ARM_INSTRUCTIONS:
        return None
    if not all(isinstance(i, _SPECULATABLE) for i in body):
        return None
    return body


def _rename_arm(body: list[Instr], tag: str
                ) -> tuple[list[Instr], dict[str, str]]:
    """Clone an arm with fresh destination names (reads follow the arm's
    own sequential definitions).  Returns (instructions, final values)."""
    env: dict[str, str] = {}
    out: list[Instr] = []

    def read(reg: str) -> str:
        return env.get(reg, reg)

    for i, instr in enumerate(body):
        written = instr.register_written()
        assert written is not None
        fresh = f"{written}{tag}.{i}"
        if isinstance(instr, Const):
            out.append(Const(fresh, instr.value))
        elif isinstance(instr, Mov):
            out.append(Mov(fresh, read(instr.src)))
        elif isinstance(instr, BinOp):
            out.append(BinOp(instr.op, fresh, read(instr.a), read(instr.b)))
        elif isinstance(instr, UnOp):
            out.append(UnOp(instr.op, fresh, read(instr.a)))
        elif isinstance(instr, Select):
            out.append(Select(fresh, read(instr.cond), read(instr.a),
                              read(instr.b)))
        env[written] = fresh
    return out, env


def _branch_bias(profile: FunctionEdgeProfile, func: Function,
                 block: str) -> float | None:
    """p(then edge taken), or None when the block never executed."""
    edges = func.cfg.blocks[block].succ_edges
    total = sum(profile.freq(e) for e in edges)
    if total == 0:
        return None
    term = func.cfg.blocks[block].instructions[-1]
    assert isinstance(term, Branch)
    then_edges = [e for e in edges if e.dst == term.then_target]
    return sum(profile.freq(e) for e in then_edges) / total


def if_convert_function(func: Function, profile: FunctionEdgeProfile,
                        stats: IfConvertStats) -> Function:
    blocks = block_map(func)
    entry = func.cfg.entry
    assert entry is not None
    pred_count = {name: len(block.pred_edges)
                  for name, block in func.cfg.blocks.items()}

    converted = True
    counter = 0
    while converted:
        converted = False
        for name in list(blocks):
            instrs = blocks[name]
            if not instrs or not isinstance(instrs[-1], Branch):
                continue
            term = instrs[-1]
            then_b, else_b = term.then_target, term.else_target
            # Full diamond: both arms are straight-line single-pred blocks
            # joining at the same merge.
            then_body = _arm_body(blocks.get(then_b, []))
            else_body = _arm_body(blocks.get(else_b, []))
            if then_body is None or else_body is None \
                    or pred_count.get(then_b, 2) != 1 \
                    or pred_count.get(else_b, 2) != 1:
                stats.candidates_rejected_shape += 1
                continue
            then_join = blocks[then_b][-1].target  # type: ignore[union-attr]
            else_join = blocks[else_b][-1].target  # type: ignore[union-attr]
            if then_join != else_join:
                stats.candidates_rejected_shape += 1
                continue
            bias = _branch_bias(profile, func, name)
            if bias is None or abs(bias - 0.5) > BIAS_WINDOW:
                stats.candidates_rejected_bias += 1
                continue
            counter += 1
            tag_t, tag_e = f"@ict{counter}", f"@ice{counter}"
            t_instrs, t_env = _rename_arm(then_body, tag_t)
            e_instrs, e_env = _rename_arm(else_body, tag_e)
            new_tail: list[Instr] = t_instrs + e_instrs
            for reg in sorted(set(t_env) | set(e_env)):
                new_tail.append(Select(reg, term.cond,
                                       t_env.get(reg, reg),
                                       e_env.get(reg, reg)))
                stats.selects_inserted += 1
            new_tail.append(Jump(then_join))
            blocks[name] = instrs[:-1] + new_tail
            pred_count[then_join] = pred_count.get(then_join, 2) - 1
            stats.diamonds_converted += 1
            converted = True
    return rebuild_function(
        func.name, list(func.params), dict(func.arrays), blocks, entry,
        synthetic=set(getattr(func, "synthetic_blocks", ())))


def if_convert_module(module: Module, profile: EdgeProfile
                      ) -> tuple[Module, IfConvertStats]:
    """If-convert every function's mispredictable small diamonds."""
    stats = IfConvertStats()
    out = Module(module.name)
    out.main = module.main
    out.global_scalars = dict(module.global_scalars)
    out.global_arrays = dict(module.global_arrays)
    for name, func in module.functions.items():
        out.functions[name] = if_convert_function(
            func, profile[name], stats)
    return out, stats
