"""Seeded corruptions, for verifier and equivalence-checker testing.

Five families, all deterministic (the first applicable site wins) and
all applied to copies — never to the caller's object:

* **plan mutations** (:func:`mutate_plan`) corrupt a
  :class:`~repro.core.pipeline.ModulePlan` the way a placement bug
  would; :func:`repro.analysis.verify.verify_module_plan` must flag
  every one while passing the pristine plan;
* **codegen mutations** (:func:`mutate_source`) corrupt the Python
  source emitted by :func:`repro.interp.codegen.generate_source` the
  way an emitter bug would (wrong bounce target, dropped observation,
  mis-billed cost); the codegen client of
  :mod:`repro.analysis.equiv` must flag every one;
* **pass mutations** (:func:`mutate_module`) corrupt a transformed
  :class:`~repro.ir.function.Module` the way an optimizer bug would
  (retargeted jump, stale register rename, nudged constant),
  preferring the optimizer's own synthetic blocks; the pass client of
  :mod:`repro.analysis.equiv` must flag every one;
* **conservation mutations** (:func:`mutate_placement`) corrupt a
  :class:`~repro.analysis.conservation.ProbePlacement` the way a
  counter-inference bug would (probe on a tree edge, dropped cotree
  probe, wrong reconstruction coefficient);
  :func:`repro.analysis.verify.verify_placement` must flag every one
  while passing the pristine placement;
* **match mutations** (:func:`mutate_transfer`) corrupt a
  :class:`~repro.analysis.transfer.TransferResult` the way a
  stale-profile matching bug would (crossed or non-injective block
  matches, an edge match off the block map, an unrepaired or
  mis-scaled transfer, a drifted invocation count); the ``V7xx``
  checks in :mod:`repro.analysis.verify` must flag every one while
  passing the pristine transfer.
"""

from __future__ import annotations

import copy
import dataclasses
import re
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from ..core.ops import AddReg, CountConst, CountReg, InstrOp, SetReg
from .conservation import VIRTUAL_UID, ProbePlacement
from ..core.pipeline import FunctionPlan, ModulePlan
from ..ir.function import Function, Module
from ..ir.instructions import (BinOp, Branch, Call, Const, GlobalStore,
                               Instr, Jump, Load, Mov, Ret, Select,
                               Store, UnOp)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from .match import FunctionMatch
    from .transfer import TransferResult


def _op_sites(fplan: FunctionPlan
              ) -> Iterator[tuple[list[InstrOp], int, InstrOp]]:
    """(op list, index, op) for every placed op, deterministically."""
    assert fplan.placement is not None
    for uid in sorted(fplan.placement.edge_ops):
        ops = fplan.placement.edge_ops[uid]
        for index, op in enumerate(ops):
            yield ops, index, op


def _instrumented(mplan: ModulePlan) -> Iterator[FunctionPlan]:
    for fplan in mplan.functions.values():
        if fplan.instrumented and fplan.placement is not None:
            yield fplan


def _drop_init(mplan: ModulePlan) -> bool:
    for fplan in _instrumented(mplan):
        for ops, index, op in _op_sites(fplan):
            if isinstance(op, SetReg) and not op.poison:
                del ops[index]
                return True
    return False


def _drop_count(mplan: ModulePlan) -> bool:
    for fplan in _instrumented(mplan):
        for ops, index, op in _op_sites(fplan):
            if isinstance(op, (CountReg, CountConst)):
                del ops[index]
                return True
    return False


def _swap_increment(mplan: ModulePlan) -> bool:
    for fplan in _instrumented(mplan):
        for ops, index, op in _op_sites(fplan):
            if isinstance(op, AddReg):
                ops[index] = AddReg(op.value + 1)
                return True
    return False


def _zero_poison(mplan: ModulePlan) -> bool:
    # Neutralise every poison in the plan (a single site can be benign
    # when no register-dependent count is reachable behind it, and the
    # verifier rightly tolerates that).
    changed = False
    for fplan in _instrumented(mplan):
        for ops, index, op in _op_sites(fplan):
            if isinstance(op, SetReg) and op.poison:
                ops[index] = SetReg(0, poison=True)
                changed = True
    return changed


def _drop_poison(mplan: ModulePlan) -> bool:
    for fplan in _instrumented(mplan):
        for ops, index, op in _op_sites(fplan):
            if isinstance(op, SetReg) and op.poison:
                del ops[index]
                return True
    return False


def _dup_count(mplan: ModulePlan) -> bool:
    for fplan in _instrumented(mplan):
        for ops, index, op in _op_sites(fplan):
            if isinstance(op, (CountReg, CountConst)):
                ops.insert(index, copy.copy(op))
                return True
    return False


def _count_off_by_one(mplan: ModulePlan) -> bool:
    for fplan in _instrumented(mplan):
        for ops, index, op in _op_sites(fplan):
            if isinstance(op, CountConst):
                ops[index] = CountConst(op.value + 1)
                return True
            if isinstance(op, CountReg):
                ops[index] = CountReg(op.add + 1)
                return True
    return False


def _init_off_by_one(mplan: ModulePlan) -> bool:
    for fplan in _instrumented(mplan):
        for ops, index, op in _op_sites(fplan):
            if isinstance(op, SetReg) and not op.poison:
                ops[index] = SetReg(op.value + 1)
                return True
    return False


def _shrink_num_hot(mplan: ModulePlan) -> bool:
    for fplan in _instrumented(mplan):
        assert fplan.placement is not None
        if fplan.placement.num_hot > 0:
            fplan.placement.num_hot -= 1
            return True
    return False


def _shrink_counter_span(mplan: ModulePlan) -> bool:
    for fplan in _instrumented(mplan):
        assert fplan.placement is not None
        if fplan.placement.counter_span > 0:
            fplan.placement.counter_span -= 1
            return True
    return False


def _retarget_edge(mplan: ModulePlan) -> bool:
    for fplan in _instrumented(mplan):
        assert fplan.placement is not None
        edge_ops = fplan.placement.edge_ops
        if not edge_ops:
            continue
        uid = sorted(edge_ops)[0]
        bogus = max(e.uid for e in fplan.func.cfg.edges()) + 1000
        edge_ops[bogus] = edge_ops.pop(uid)
        return True
    return False


def _flip_store_mode(mplan: ModulePlan) -> bool:
    for fplan in _instrumented(mplan):
        fplan.use_hash = not fplan.use_hash
        return True
    return False


def _lie_static_ops(mplan: ModulePlan) -> bool:
    for fplan in _instrumented(mplan):
        assert fplan.placement is not None
        fplan.placement.static_ops += 1
        return True
    return False


_MUTATORS: dict[str, Callable[[ModulePlan], bool]] = {
    "drop-init": _drop_init,
    "drop-count": _drop_count,
    "swap-increment": _swap_increment,
    "zero-poison": _zero_poison,
    "drop-poison": _drop_poison,
    "dup-count": _dup_count,
    "count-off-by-one": _count_off_by_one,
    "init-off-by-one": _init_off_by_one,
    "shrink-num-hot": _shrink_num_hot,
    "shrink-counter-span": _shrink_counter_span,
    "retarget-edge": _retarget_edge,
    "flip-store-mode": _flip_store_mode,
    "lie-static-ops": _lie_static_ops,
}

MUTATIONS: tuple[str, ...] = tuple(_MUTATORS)


def mutate_plan(mplan: ModulePlan, kind: str) -> Optional[ModulePlan]:
    """A deep-copied plan with one seeded corruption of ``kind``, or
    ``None`` when the plan offers no applicable site (e.g. no poison
    ops in an all-hot plan)."""
    if kind not in _MUTATORS:
        raise ValueError(f"unknown mutation kind {kind!r}; "
                         f"choose from {', '.join(MUTATIONS)}")
    mutated = copy.deepcopy(mplan)
    if not _MUTATORS[kind](mutated):
        return None
    return mutated


# ----------------------------------------------------------------------
# Codegen mutations: corrupting generated Python source
# ----------------------------------------------------------------------

def _sub_first(pattern: str,
               repl: "str | Callable[[re.Match[str]], str]",
               source: str) -> Optional[str]:
    """One regex substitution at the first match, or None if no match."""
    mutated, count = re.subn(pattern, repl, source, count=1, flags=re.M)
    return mutated if count else None


def _cg_wrong_goto(source: str) -> Optional[str]:
    """Bounce to the wrong trampoline segment."""
    num_segments = source.count("def _seg_")
    if num_segments < 2:
        return None
    return _sub_first(
        r"^(\s*)return (\d+)$",
        lambda m: f"{m.group(1)}return "
                  f"{(int(m.group(2)) + 1) % num_segments}",
        source)


def _cg_drop_count(source: str) -> Optional[str]:
    """Drop one fused edge-profile increment."""
    return _sub_first(r"^\s*_ec\[\d+\] \+= 1\n", "", source)


def _cg_drop_hook(source: str) -> Optional[str]:
    """Drop one edge's hook slot call."""
    return _sub_first(
        r"^\s*if _hk\[\d+\] is not None: _hk\[\d+\]\(frame\)\n", "",
        source)


def _cg_wrong_hook_slot(source: str) -> Optional[str]:
    """Call the hook in the next edge's slot instead of this edge's."""
    return _sub_first(
        r"^(\s*)if _hk\[(\d+)\] is not None: _hk\[\d+\]\(frame\)$",
        lambda m: f"{m.group(1)}if _hk[{int(m.group(2)) + 1}] is not "
                  f"None: _hk[{int(m.group(2)) + 1}](frame)",
        source)


def _cg_wrong_increment(source: str) -> Optional[str]:
    """Add one more to one chord's path-id increment."""
    return _sub_first(
        r"^(\s*)_t \+= (-?\d+)$",
        lambda m: f"{m.group(1)}_t += {int(m.group(2)) + 1}", source)


def _cg_drop_emit(source: str) -> Optional[str]:
    """Drop one completed path's id emit."""
    return _sub_first(r"^\s*_tr\(_t\)\n", "", source)


def _cg_drop_cost(source: str) -> Optional[str]:
    """Drop one instruction-count charge."""
    return _sub_first(r"^\s*_ic\[0\] \+= \d+\n", "", source)


def _cg_swap_arith(source: str) -> Optional[str]:
    """Turn one generated addition into a subtraction."""
    return _sub_first(
        r"^(\s*regs\[\d+\] = regs\[\d+\]) \+ (regs\[\d+\])$",
        r"\1 - \2", source)


def _cg_wrong_slot(source: str) -> Optional[str]:
    """Write one result into the neighbouring register slot."""
    return _sub_first(
        r"^(\s*)regs\[(\d+)\] = ",
        lambda m: f"{m.group(1)}regs[{int(m.group(2)) + 1}] = ",
        source)


def _cg_flip_branch(source: str) -> Optional[str]:
    """Invert one generated branch condition."""
    return _sub_first(r"^(\s*)if (regs\[\d+\]):$", r"\1if not \2:",
                      source)


_CODEGEN_MUTATORS: dict[str, Callable[[str], Optional[str]]] = {
    "cg-wrong-goto": _cg_wrong_goto,
    "cg-drop-count": _cg_drop_count,
    "cg-drop-hook": _cg_drop_hook,
    "cg-wrong-hook-slot": _cg_wrong_hook_slot,
    "cg-wrong-increment": _cg_wrong_increment,
    "cg-drop-emit": _cg_drop_emit,
    "cg-drop-cost": _cg_drop_cost,
    "cg-swap-arith": _cg_swap_arith,
    "cg-wrong-slot": _cg_wrong_slot,
    "cg-flip-branch": _cg_flip_branch,
}

CODEGEN_MUTATIONS: tuple[str, ...] = tuple(_CODEGEN_MUTATORS)


def mutate_source(source: str, kind: str) -> Optional[str]:
    """Generated source with one seeded corruption of ``kind``, or
    ``None`` when the source offers no applicable site (e.g. no hook
    calls in a hookless mode)."""
    if kind not in _CODEGEN_MUTATORS:
        raise ValueError(f"unknown codegen mutation kind {kind!r}; "
                         f"choose from {', '.join(CODEGEN_MUTATIONS)}")
    return _CODEGEN_MUTATORS[kind](source)


# ----------------------------------------------------------------------
# Pass mutations: corrupting a transformed IR module
# ----------------------------------------------------------------------

def _block_sites(module: Module) -> Iterator[tuple[Function, str,
                                                   list[Instr]]]:
    """(function, block name, instructions), optimizer-made synthetic
    blocks first, then everything else, deterministically."""
    for synthetic_pass in (True, False):
        for fname in sorted(module.functions):
            func = module.functions[fname]
            for bname in sorted(func.cfg.blocks):
                if func.is_synthetic(bname) != synthetic_pass:
                    continue
                yield func, bname, func.cfg.blocks[bname].instructions


def _reads_of(instr: Instr) -> tuple[str, ...]:
    return instr.registers_read()


#: Attribute names holding a *read* register, per instruction class.
_READ_FIELDS: dict[type, tuple[str, ...]] = {
    Mov: ("src",),
    BinOp: ("a", "b"),
    UnOp: ("a",),
    Select: ("cond", "a", "b"),
    Load: ("idx",),
    Store: ("idx", "src"),
    GlobalStore: ("src",),
    Branch: ("cond",),
    Ret: ("src",),
}


def _opt_retarget_jump(module: Module) -> bool:
    """Point one jump at a different (existing) block."""
    for func, bname, instrs in _block_sites(module):
        term = instrs[-1]
        if not isinstance(term, Jump):
            continue
        for other in sorted(func.cfg.blocks):
            if other not in (term.target, bname):
                term.target = other
                return True
    return False


def _opt_swap_branch(module: Module) -> bool:
    """Swap one branch's then/else arms."""
    for _func, _bname, instrs in _block_sites(module):
        term = instrs[-1]
        if (isinstance(term, Branch)
                and term.then_target != term.else_target):
            term.then_target, term.else_target = \
                term.else_target, term.then_target
            return True
    return False


def _stale_name(reg: str) -> Optional[str]:
    """Undo an optimizer rename: ``@inl0$x`` -> ``x`` (inline),
    ``t@ict1.0`` -> ``t`` (if-convert / clone tags)."""
    if "$" in reg:
        return reg.split("$", 1)[1]
    if "@" in reg:
        base = reg.split("@", 1)[0]
        return base if base else None
    return None


def _opt_stale_rename(module: Module) -> bool:
    """Replace one renamed register *read* with its pre-rename name."""
    for _func, _bname, instrs in _block_sites(module):
        for instr in instrs:
            for field in _READ_FIELDS.get(type(instr), ()):
                reg = getattr(instr, field)
                if not isinstance(reg, str):
                    continue
                stale = _stale_name(reg)
                if stale is not None and stale != reg:
                    setattr(instr, field, stale)
                    return True
            if isinstance(instr, Call):
                for position, reg in enumerate(instr.args):
                    stale = _stale_name(reg)
                    if stale is not None and stale != reg:
                        args = list(instr.args)
                        args[position] = stale
                        instr.args = tuple(args)
                        return True
    return False


def _feeds_observable(instrs: list[Instr], index: int, dst: str) -> bool:
    """Does ``dst`` (defined at ``index``) reach a store, call, return,
    or branch in the same block before being redefined?"""
    for instr in instrs[index + 1:]:
        if dst in _reads_of(instr) or (
                isinstance(instr, Branch) and instr.cond == dst):
            if isinstance(instr, (Store, GlobalStore, Call, Ret,
                                  Branch)):
                return True
            # Flows onward through a pure op: chase that value too.
            written = instr.register_written()
            if written is not None and _feeds_observable(
                    instrs, instrs.index(instr), written):
                return True
        if instr.register_written() == dst:
            return False
    return False


def _opt_const_nudge(module: Module) -> bool:
    """Nudge one constant that feeds observable behaviour by one."""
    fallback: Optional[Const] = None
    for _func, _bname, instrs in _block_sites(module):
        for index, instr in enumerate(instrs):
            if not (isinstance(instr, Const)
                    and isinstance(instr.value, (int, float))):
                continue
            if _feeds_observable(instrs, index, instr.dst):
                instr.value += 1
                return True
            if fallback is None:
                fallback = instr
    if fallback is not None:
        fallback.value += 1
        return True
    return False


def _opt_drop_instr(module: Module) -> bool:
    """Delete one observable instruction (a store, preferably)."""
    fallback: Optional[tuple[list[Instr], int]] = None
    for _func, _bname, instrs in _block_sites(module):
        for index, instr in enumerate(instrs[:-1]):
            if isinstance(instr, (Store, GlobalStore)):
                del instrs[index]
                return True
            if fallback is None and not isinstance(instr, Call):
                fallback = (instrs, index)
    if fallback is not None:
        fallback[0].pop(fallback[1])
        return True
    return False


def _opt_dup_store(module: Module) -> bool:
    """Execute one store twice."""
    for _func, _bname, instrs in _block_sites(module):
        for index, instr in enumerate(instrs[:-1]):
            if isinstance(instr, (Store, GlobalStore)):
                instrs.insert(index, copy.copy(instr))
                return True
    return False


_PASS_MUTATORS: dict[str, Callable[[Module], bool]] = {
    "opt-retarget-jump": _opt_retarget_jump,
    "opt-swap-branch": _opt_swap_branch,
    "opt-stale-rename": _opt_stale_rename,
    "opt-const-nudge": _opt_const_nudge,
    "opt-drop-instr": _opt_drop_instr,
    "opt-dup-store": _opt_dup_store,
}

PASS_MUTATIONS: tuple[str, ...] = tuple(_PASS_MUTATORS)


# ----------------------------------------------------------------------
# Conservation mutations: corrupting a probe placement
# ----------------------------------------------------------------------

def _cons_probe_on_tree(placement: ProbePlacement
                        ) -> Optional[ProbePlacement]:
    """Also probe a spanning-tree edge (a redundant counter survives)."""
    if not placement.tree_uids:
        return None
    uid = min(placement.tree_uids)
    return dataclasses.replace(placement,
                               probe_uids=placement.probe_uids | {uid})


def _cons_drop_probe(placement: ProbePlacement
                     ) -> Optional[ProbePlacement]:
    """Delete one cotree probe (an edge count becomes unrecoverable)."""
    if not placement.probe_uids:
        return None
    uid = min(placement.probe_uids)
    return dataclasses.replace(placement,
                               probe_uids=placement.probe_uids - {uid})


def _cons_flip_coefficient(placement: ProbePlacement
                           ) -> Optional[ProbePlacement]:
    """Flip the sign of one reconstruction term that reads a probe
    count or the invocation count -- the basis flow for that input is
    nonzero there, so the round-trip proof must see the mismatch."""
    for step_index, step in enumerate(placement.steps):
        for term_index, (uid, coefficient) in enumerate(step.terms):
            if uid != VIRTUAL_UID and uid not in placement.probe_uids:
                continue
            terms = list(step.terms)
            terms[term_index] = (uid, -coefficient)
            steps = list(placement.steps)
            steps[step_index] = dataclasses.replace(
                step, terms=tuple(terms))
            return dataclasses.replace(placement, steps=tuple(steps))
    return None


_CONSERVATION_MUTATORS: dict[
        str, Callable[[ProbePlacement], Optional[ProbePlacement]]] = {
    "probe-on-tree-edge": _cons_probe_on_tree,
    "drop-cotree-probe": _cons_drop_probe,
    "wrong-recon-coefficient": _cons_flip_coefficient,
}

CONSERVATION_MUTATIONS: tuple[str, ...] = tuple(_CONSERVATION_MUTATORS)


def mutate_placement(placement: ProbePlacement,
                     kind: str) -> Optional[ProbePlacement]:
    """A new placement with one seeded corruption of ``kind``, or
    ``None`` when the placement offers no applicable site (e.g. no
    probes on a tree-only CFG).  Placements are frozen, so mutators
    rebuild rather than copy."""
    if kind not in _CONSERVATION_MUTATORS:
        raise ValueError(
            f"unknown conservation mutation kind {kind!r}; "
            f"choose from {', '.join(CONSERVATION_MUTATIONS)}")
    return _CONSERVATION_MUTATORS[kind](placement)


def mutate_module(module: Module, kind: str) -> Optional[Module]:
    """A deep-copied module with one seeded corruption of ``kind``, or
    ``None`` when the module offers no applicable site.  The copy
    matters: optimizer passes share instruction objects between the
    pre- and post-transform modules, so corrupting in place would
    corrupt both sides of the simulation identically."""
    if kind not in _PASS_MUTATORS:
        raise ValueError(f"unknown pass mutation kind {kind!r}; "
                         f"choose from {', '.join(PASS_MUTATIONS)}")
    mutated = copy.deepcopy(module)
    if not _PASS_MUTATORS[kind](mutated):
        return None
    return mutated


# ----------------------------------------------------------------------
# Match mutations: corrupting a stale-profile transfer
# ----------------------------------------------------------------------

def _function_matches(result: "TransferResult"
                      ) -> Iterator[tuple[int, "FunctionMatch"]]:
    for index, fm in enumerate(result.match.functions):
        yield index, fm


def _swap_function_match(result: "TransferResult", index: int,
                         fm: "FunctionMatch") -> None:
    functions = list(result.match.functions)
    functions[index] = fm
    result.match = dataclasses.replace(result.match,
                                       functions=tuple(functions))


def _match_cross_block(result: "TransferResult") -> bool:
    """Swap two block matches' targets (an edge match goes inconsistent)."""
    for index, fm in _function_matches(result):
        if not fm.edges or len(fm.blocks) < 2:
            continue
        anchor = fm.edges[0].old[0]
        blocks = list(fm.blocks)
        first = next(i for i, bm in enumerate(blocks)
                     if bm.old == anchor)
        second = next(i for i in range(len(blocks)) if i != first)
        a, b = blocks[first], blocks[second]
        blocks[first] = dataclasses.replace(a, new=b.new)
        blocks[second] = dataclasses.replace(b, new=a.new)
        _swap_function_match(result, index,
                             dataclasses.replace(fm,
                                                 blocks=tuple(blocks)))
        return True
    return False


def _match_noninjective(result: "TransferResult") -> bool:
    """Point two old blocks at the same new block."""
    for index, fm in _function_matches(result):
        if len(fm.blocks) < 2:
            continue
        blocks = list(fm.blocks)
        blocks[1] = dataclasses.replace(blocks[1], new=blocks[0].new)
        _swap_function_match(result, index,
                             dataclasses.replace(fm,
                                                 blocks=tuple(blocks)))
        return True
    return False


def _match_phantom_block(result: "TransferResult") -> bool:
    """Point a block match at a block that does not exist."""
    for index, fm in _function_matches(result):
        if not fm.blocks:
            continue
        blocks = list(fm.blocks)
        blocks[0] = dataclasses.replace(blocks[0],
                                        new="<phantom-block>")
        _swap_function_match(result, index,
                             dataclasses.replace(fm,
                                                 blocks=tuple(blocks)))
        return True
    return False


def _match_cross_edge(result: "TransferResult") -> bool:
    """Swap two edge matches' targets (the block map disagrees)."""
    for index, fm in _function_matches(result):
        distinct = [i for i in range(1, len(fm.edges))
                    if fm.edges[i].new != fm.edges[0].new]
        if not fm.edges or not distinct:
            continue
        other = distinct[0]
        edges = list(fm.edges)
        a, b = edges[0], edges[other]
        edges[0] = dataclasses.replace(a, new=b.new)
        edges[other] = dataclasses.replace(b, new=a.new)
        _swap_function_match(result, index,
                             dataclasses.replace(fm,
                                                 edges=tuple(edges)))
        return True
    return False


def _match_drop_repair(result: "TransferResult") -> bool:
    """Perturb one transferred count as an unrepaired transfer would.

    A self-loop edge cancels out of its own vertex's conservation
    equation, so the perturbation targets a non-self-loop edge, where
    the residual is guaranteed to show.
    """
    for name in sorted(result.profile.functions):
        fprofile = result.profile.functions[name]
        for edge in sorted(fprofile.func.cfg.edges(),
                           key=lambda e: e.uid):
            if edge.src == edge.dst:
                continue
            fprofile.edge_freq[edge.uid] = \
                fprofile.edge_freq.get(edge.uid, 0) + 1
            fprofile.invalidate()
            return True
    return False


def _match_misscale(result: "TransferResult") -> bool:
    """Double every edge count but not N (a scaling bug).

    Needs an executed function whose entry differs from its exit:
    scaling a pure circulation (or an entry==exit function, where N
    cancels out of its own equation) stays conserved and genuinely
    satisfies every V7xx obligation.
    """
    for name in sorted(result.profile.functions):
        fprofile = result.profile.functions[name]
        cfg = fprofile.func.cfg
        if fprofile.entry_count <= 0 or cfg.entry == cfg.exit:
            continue
        fprofile.edge_freq = {uid: 2 * count for uid, count
                              in fprofile.edge_freq.items()}
        fprofile.invalidate()
        return True
    return False


def _match_entry_drift(result: "TransferResult") -> bool:
    """Bump an invocation count away from the native channel's value."""
    for name in sorted(result.profile.functions):
        fprofile = result.profile.functions[name]
        if fprofile.func.cfg.entry == fprofile.func.cfg.exit:
            continue
        fprofile.entry_count += 1
        fprofile.invalidate()
        return True
    return False


_MATCH_MUTATORS: dict[str, "Callable[[TransferResult], bool]"] = {
    "cross-block-match": _match_cross_block,
    "noninjective-match": _match_noninjective,
    "phantom-block-match": _match_phantom_block,
    "cross-edge-match": _match_cross_edge,
    "drop-repair": _match_drop_repair,
    "misscale-transfer": _match_misscale,
    "entry-drift": _match_entry_drift,
}

MATCH_MUTATIONS: tuple[str, ...] = tuple(_MATCH_MUTATORS)


def mutate_transfer(result: "TransferResult",
                    kind: str) -> "Optional[TransferResult]":
    """A deep-copied transfer result with one seeded corruption of
    ``kind``, or ``None`` when it offers no applicable site (e.g. no
    invoked multi-block function for ``misscale-transfer`` to scale
    detectably).  The match dataclasses are frozen, so mutators rebuild
    them; the profile is mutated on the deep copy."""
    if kind not in _MATCH_MUTATORS:
        raise ValueError(f"unknown match mutation kind {kind!r}; "
                         f"choose from {', '.join(MATCH_MUTATIONS)}")
    mutated = copy.deepcopy(result)
    if not _MATCH_MUTATORS[kind](mutated):
        return None
    return mutated
