"""Profile-guided inlining (Section 7.3).

Follows the paper's description of Scale's inliner, which itself follows
Arnold et al.'s cost/benefit scheme:

* every call site gets a priority = expected benefit / cost, with benefit
  the call site's execution frequency (from the edge profile) and cost the
  callee's size in IR statements;
* sites are inlined in decreasing priority until total program size has
  grown by the *code bloat* budget (5% by default, per the paper);
* callees larger than 200 IR statements are never inlined;
* recursive self-calls are skipped, as are callees with local arrays
  (inlining would merge per-call fresh arrays into one caller-frame array,
  changing semantics).

Inlining splices the callee's blocks into the caller: the call block is
split at the call, arguments become register moves, the callee's return
becomes a move plus a jump to the continuation.  Inlined code keeps its
block identity under a ``@inlN.`` prefix so paths visibly lengthen across
the former call boundary -- the paper's reason for running this pass
before profiling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.function import Module
from ..ir.instructions import Branch, Call, Instr, Jump, Mov, Ret
from ..profiles.edge_profile import EdgeProfile
from .rebuild import block_map, rebuild_function

CODE_BLOAT = 0.05          # Section 7.3: 5% following Arnold et al.
MAX_CALLEE_SIZE = 200      # Section 7.3: no callees above 200 IR statements


@dataclass
class InlineStats:
    """What the pass did; feeds Table 1's '% calls inlined' column."""

    sites_inlined: int = 0
    dynamic_calls_total: float = 0.0
    dynamic_calls_inlined: float = 0.0
    size_before: int = 0
    size_after: int = 0
    inlined_sites: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def percent_calls_inlined(self) -> float:
        if self.dynamic_calls_total == 0:
            return 0.0
        return self.dynamic_calls_inlined / self.dynamic_calls_total


@dataclass
class _Site:
    caller: str
    block: str
    index: int
    callee: str
    frequency: float
    priority: float


def _collect_sites(module: Module, profile: EdgeProfile) -> list[_Site]:
    sites: list[_Site] = []
    for name, func in module.functions.items():
        fprofile = profile[name]
        for block, index, call in func.call_sites():
            freq = float(fprofile.block_freq(block))
            callee = module.functions.get(call.func)
            if callee is None:
                continue
            size = callee.size()
            priority = freq / size if size else 0.0
            sites.append(_Site(name, block, index, call.func, freq, priority))
    return sites


class _Inliner:
    def __init__(self, module: Module, profile: EdgeProfile,
                 code_bloat: float):
        self.module = module
        self.profile = profile
        self.original_size = module.size()
        self.budget = int(self.original_size * (1 + code_bloat))
        # Working copies of every function's blocks.
        self.blocks: dict[str, dict[str, list[Instr]]] = {
            name: block_map(func) for name, func in module.functions.items()}
        self.entries: dict[str, str] = {
            name: func.cfg.entry or "entry"
            for name, func in module.functions.items()}
        self.arrays: dict[str, dict[str, int]] = {
            name: dict(func.arrays) for name, func in module.functions.items()}
        self.sizes: dict[str, int] = {
            name: func.size() for name, func in module.functions.items()}
        self.counter = 0
        self.stats = InlineStats(size_before=self.original_size)

    def total_size(self) -> int:
        return sum(self.sizes.values())

    # ------------------------------------------------------------------

    def run(self, sites: list[_Site]) -> tuple[Module, InlineStats]:
        self.stats.dynamic_calls_total = sum(s.frequency for s in sites)
        sites = sorted(
            (s for s in sites if s.frequency > 0),
            key=lambda s: (-s.priority, s.caller, s.block, s.index))
        pending = list(sites)
        while pending:
            site = pending.pop(0)
            if not self._eligible(site):
                continue
            if self.total_size() + self.sizes[site.callee] - 1 > self.budget:
                continue  # over the bloat budget; try cheaper sites
            remapped = self._inline(site)
            # Fix bookkeeping of later sites in the same (split) block.
            for other in pending:
                if other.caller == site.caller and other.block == site.block \
                        and other.index > site.index:
                    other.block, other.index = remapped(other.index)
            self.stats.sites_inlined += 1
            self.stats.dynamic_calls_inlined += site.frequency
            self.stats.inlined_sites.append(
                (site.caller, site.block, site.callee))
        new_module = self._rebuild()
        self.stats.size_after = new_module.size()
        return new_module, self.stats

    def _eligible(self, site: _Site) -> bool:
        if site.callee == site.caller:
            return False  # no self-recursive inlining
        callee = self.module.functions[site.callee]
        if callee.size() > MAX_CALLEE_SIZE:
            return False
        if callee.arrays:
            return False  # fresh-array semantics would change
        blocks = self.blocks[site.caller]
        block = blocks.get(site.block)
        if block is None or site.index >= len(block):
            return False
        instr = block[site.index]
        return isinstance(instr, Call) and instr.func == site.callee

    # ------------------------------------------------------------------

    def _inline(self, site: _Site):
        """Splice the callee in; returns an index remapper for the block."""
        self.counter += 1
        tag = f"@inl{self.counter}"
        caller_blocks = self.blocks[site.caller]
        callee = self.module.functions[site.callee]
        call = caller_blocks[site.block][site.index]
        assert isinstance(call, Call)

        def reg(r: str) -> str:
            return f"{tag}${r}"

        def blk(b: str) -> str:
            return f"{tag}.{b}"

        cont_name = f"{site.block}{tag}.cont"
        head = caller_blocks[site.block][:site.index]
        tail = caller_blocks[site.block][site.index + 1:]

        # Argument moves, then jump into the inlined entry.
        for param, arg in zip(callee.params, call.args):
            head.append(Mov(reg(param), arg))
        entry_name = callee.cfg.entry
        assert entry_name is not None
        head.append(Jump(blk(entry_name)))
        caller_blocks[site.block] = head
        caller_blocks[cont_name] = tail

        for bname, block in callee.cfg.blocks.items():
            new_instrs: list[Instr] = []
            for instr in block.instructions:
                if isinstance(instr, Ret):
                    # return value -> the call's destination, then resume
                    # the caller at the continuation block.
                    if call.dst is not None:
                        if instr.src is not None:
                            new_instrs.append(Mov(call.dst, reg(instr.src)))
                        else:
                            from ..ir.instructions import Const
                            new_instrs.append(Const(call.dst, 0))
                    new_instrs.append(Jump(cont_name))
                else:
                    new_instrs.append(self._clone(instr, reg, blk))
            caller_blocks[blk(bname)] = new_instrs

        self.sizes[site.caller] += callee.size() - 1

        def remapped(index: int) -> tuple[str, int]:
            return (cont_name, index - (site.index + 1))

        return remapped

    def _clone(self, instr: Instr, reg, blk) -> Instr:
        from ..ir.instructions import (BinOp, Const, GlobalLoad, GlobalStore,
                                       Load, Store, UnOp)
        if isinstance(instr, Const):
            return Const(reg(instr.dst), instr.value)
        if isinstance(instr, Mov):
            return Mov(reg(instr.dst), reg(instr.src))
        if isinstance(instr, BinOp):
            return BinOp(instr.op, reg(instr.dst), reg(instr.a), reg(instr.b))
        if isinstance(instr, UnOp):
            return UnOp(instr.op, reg(instr.dst), reg(instr.a))
        if isinstance(instr, Load):
            return Load(reg(instr.dst), instr.array, reg(instr.idx))
        if isinstance(instr, Store):
            return Store(instr.array, reg(instr.idx), reg(instr.src))
        if isinstance(instr, GlobalLoad):
            return GlobalLoad(reg(instr.dst), instr.name)
        if isinstance(instr, GlobalStore):
            return GlobalStore(instr.name, reg(instr.src))
        if isinstance(instr, Call):
            dst = reg(instr.dst) if instr.dst is not None else None
            return Call(dst, instr.func, [reg(a) for a in instr.args])
        if isinstance(instr, Jump):
            return Jump(blk(instr.target))
        if isinstance(instr, Branch):
            return Branch(reg(instr.cond), blk(instr.then_target),
                          blk(instr.else_target))
        raise TypeError(f"cannot clone {instr!r}")  # pragma: no cover

    def _rebuild(self) -> Module:
        new_module = Module(self.module.name)
        new_module.main = self.module.main
        new_module.global_scalars = dict(self.module.global_scalars)
        new_module.global_arrays = dict(self.module.global_arrays)
        for name, func in self.module.functions.items():
            new_module.functions[name] = rebuild_function(
                name, list(func.params), self.arrays[name],
                self.blocks[name], self.entries[name],
                synthetic=set(getattr(func, "synthetic_blocks", ())))
        return new_module


def inline_module(module: Module, profile: EdgeProfile,
                  code_bloat: float = CODE_BLOAT
                  ) -> tuple[Module, InlineStats]:
    """Run profile-guided inlining; returns the new module and statistics."""
    inliner = _Inliner(module, profile, code_bloat)
    sites = _collect_sites(module, profile)
    return inliner.run(sites)
