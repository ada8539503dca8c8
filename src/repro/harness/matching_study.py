"""Stale-profile matching study: remap vs discard after a code edit.

The scale-based staleness study (:mod:`repro.harness.staleness`) keeps
the CFG fixed and only ages the counts.  This study ages the *code*:
from each workload's scalar-optimized baseline module it derives an
"old" and a "new" build under different seeded, semantics-preserving
edits -- every block renamed, the optimizer passes re-run, and
forwarding blocks split into a seed-chosen subset of branch arms (so
blocks present in the old build are deleted in the new one and vice
versa) -- profiles the old build, and asks how much of that profile the
matcher (:mod:`repro.analysis.match` / :mod:`repro.analysis.transfer`)
recovers on the new build, against two baselines:

* **fresh** -- re-profile the edited module from scratch (upper bound);
* **discard** -- what a fingerprint-keyed cache does today: the stale
  profile is thrown away and tier-2 layout planning gets nothing.

Reported per workload: block/edge match coverage, the fraction of edge
counts carried over matched edges, the edge-flow accuracy of the
remapped profile against the edited module's own ground truth, how many
Ball-Larus paths survived renaming, and tier-2 layout agreement (do the
remapped counts derive the *same* layout plans as fresh counts?).  With
``repeats > 0`` the study also times the edited module on the compiled
backend under discard/remap/fresh layouts and reports the fraction of
the fresh tier-2 speedup the remap recovers.
"""

from __future__ import annotations

import copy
import time
from dataclasses import asdict, dataclass
from typing import Optional

from ..engine import ProfilingSession
from ..ir.function import Function, Module
from ..ir.instructions import Branch, Jump
from ..opt import cleanup_module
from ..opt.rebuild import rebuild_function
from ..workloads import Workload
from .report import render_table

__all__ = [
    "EDIT_KINDS", "MatchingRow", "seeded_edit", "matching_study",
    "matching_table", "matching_rows_to_dict",
]

#: The seeded-edit families, applied in this order.
EDIT_KINDS = ("rename", "delete", "insert")


# ----------------------------------------------------------------------
# Seeded semantics-preserving edits
# ----------------------------------------------------------------------

def _rename_blocks(func: Function, suffix: str) -> Function:
    """Rename every block (and rewrite branch targets to match)."""
    mapping = {b: f"{b}{suffix}" for b in func.cfg.blocks}
    blocks: dict[str, list] = {}
    for bname, block in func.cfg.blocks.items():
        instrs = []
        for ins in block.instructions:
            if isinstance(ins, Jump):
                ins = Jump(mapping[ins.target])
            elif isinstance(ins, Branch):
                ins = Branch(ins.cond, mapping[ins.then_target],
                             mapping[ins.else_target])
            else:
                ins = copy.copy(ins)
            instrs.append(ins)
        blocks[mapping[bname]] = instrs
    synthetic = {mapping[b]
                 for b in getattr(func, "synthetic_blocks", ())}
    assert func.cfg.entry is not None
    return rebuild_function(func.name, func.params, dict(func.arrays),
                            blocks, mapping[func.cfg.entry],
                            synthetic=synthetic)


def _split_edges(func: Function, seed: int, cap: int = 3) -> Function:
    """Insert forwarding blocks on a seed-chosen subset of branch arms."""
    blocks: dict[str, list] = {}
    for bname, block in func.cfg.blocks.items():
        blocks[bname] = [copy.copy(ins) for ins in block.instructions]
    inserted = 0
    for index, bname in enumerate(sorted(blocks)):
        if inserted >= cap:
            break
        term = blocks[bname][-1] if blocks[bname] else None
        if not isinstance(term, Branch):
            continue
        if (index + seed) % 3:
            continue
        via = f"{bname}.via{inserted}"
        blocks[via] = [Jump(term.then_target)]
        blocks[bname][-1] = Branch(term.cond, via, term.else_target)
        inserted += 1
    synthetic = set(getattr(func, "synthetic_blocks", ()))
    assert func.cfg.entry is not None
    return rebuild_function(func.name, func.params, dict(func.arrays),
                            blocks, func.cfg.entry, synthetic=synthetic)


def seeded_edit(module: Module, seed: int = 1,
                kinds: tuple[str, ...] = EDIT_KINDS) -> Module:
    """Apply the seeded edit families to every function of a module.

    ``rename`` renames every block; ``delete`` re-runs the scalar
    optimizer passes (which thread jumps and drop dead blocks);
    ``insert`` splits a seed-chosen subset of branch arms through
    forwarding blocks.  All three preserve semantics, so the edited
    module still computes the original's return value.
    """
    out = Module(module.name)
    out.main = module.main
    out.global_scalars = dict(module.global_scalars)
    out.global_arrays = dict(module.global_arrays)
    for name, func in module.functions.items():
        if "rename" in kinds:
            func = _rename_blocks(func, f".r{seed}")
        out.functions[name] = func
    if "delete" in kinds:
        out, _stats = cleanup_module(out)
    if "insert" in kinds:
        rebuilt = Module(out.name)
        rebuilt.main = out.main
        rebuilt.global_scalars = dict(out.global_scalars)
        rebuilt.global_arrays = dict(out.global_arrays)
        for name, func in out.functions.items():
            rebuilt.functions[name] = _split_edges(func, seed)
        out = rebuilt
    return out


# ----------------------------------------------------------------------
# The study
# ----------------------------------------------------------------------

@dataclass
class MatchingRow:
    """One workload's remap-vs-discard outcome."""

    benchmark: str
    old_blocks: int
    new_blocks: int
    block_coverage: float
    edge_coverage: float
    retained: float
    edge_accuracy: float
    paths_kept: int
    paths_dropped: int
    layout_agreement: float
    discard_mops: Optional[float] = None
    remap_mops: Optional[float] = None
    fresh_mops: Optional[float] = None

    @property
    def recovered_speedup(self) -> Optional[float]:
        """Fraction of the fresh tier-2 speedup the remap recovers
        (1.0 = as fast as fresh advice; None when untimed or when
        tier 2 bought nothing to recover)."""
        if self.fresh_mops is None or self.discard_mops is None \
                or self.remap_mops is None:
            return None
        gain = self.fresh_mops - self.discard_mops
        if gain <= 0:
            return None
        return (self.remap_mops - self.discard_mops) / gain


def _edge_accuracy(remapped, fresh) -> float:
    """Overlap of the two profiles' normalized edge-flow distributions
    (1 - half the L1 distance; 1.0 = identical)."""
    def flows(profile) -> dict[tuple[str, tuple[str, str]], int]:
        out: dict[tuple[str, tuple[str, str]], int] = {}
        for name, fp in profile.functions.items():
            for edge in fp.func.cfg.edges():
                count = max(0, fp.edge_freq.get(edge.uid, 0))
                if count:
                    out[(name, edge.pair)] = count
        return out

    a = flows(remapped)
    b = flows(fresh)
    total_a = sum(a.values())
    total_b = sum(b.values())
    if not total_a or not total_b:
        return 1.0 if total_a == total_b else 0.0
    distance = sum(abs(a.get(k, 0) / total_a - b.get(k, 0) / total_b)
                   for k in set(a) | set(b))
    return 1.0 - distance / 2


def _layout_agreement(new_module: Module, remapped, fresh) -> float:
    """Do remapped counts plan the same tier-2 layouts as fresh ones?"""
    from ..interp import derive_module_layouts

    fresh_plans = derive_module_layouts(new_module, fresh)
    remap_plans = derive_module_layouts(new_module, remapped)
    names = set(fresh_plans) | set(remap_plans)
    if not names:
        return 1.0
    same = sum(1 for n in names
               if n in fresh_plans and n in remap_plans
               and fresh_plans[n].fingerprint()
               == remap_plans[n].fingerprint())
    return same / len(names)


def _ops_per_sec(module: Module, layouts, repeats: int) -> float:
    """Best-of-N compiled-backend ops/sec (the bench.py measurement)."""
    from ..interp import Machine

    def once() -> tuple[float, int]:
        machine = Machine(module, backend="compiled",
                          layouts=layouts or None)
        start = time.perf_counter()
        result = machine.run()
        return time.perf_counter() - start, result.instructions_executed

    once()  # warm-up populates the codegen cache
    best, instructions = min(once() for _ in range(max(1, repeats)))
    return instructions / best


def matching_study(workload: Workload, scale: int = 1, seed: int = 1,
                   *, session: ProfilingSession,
                   repeats: int = 0) -> MatchingRow:
    """Remap one workload's profile across a seeded edit and measure.

    With ``repeats == 0`` the study reports only the deterministic
    metrics (coverage, retention, accuracy, layout agreement); with
    ``repeats > 0`` it also wall-clock-times the edited module under
    discard/remap/fresh tier-2 layouts.
    """
    from ..interp import derive_module_layouts

    base = session.expand(workload, scale).baseline_module
    # Two builds of the same program under different edit seeds: blocks
    # inserted for the old build are deletions from the new build's
    # point of view, and the new build renames everything on top.
    old_module = seeded_edit(base, seed, kinds=("delete", "insert"))
    new_module = seeded_edit(base, seed + 1,
                             kinds=("rename", "delete", "insert"))
    old_paths, old_profile, old_rv = session.trace(old_module)
    _new_paths, fresh_profile, new_rv = session.trace(new_module)
    if old_rv != new_rv:
        raise RuntimeError(
            f"seeded edit changed {workload.name}'s semantics: "
            f"{old_rv!r} != {new_rv!r}")

    result = session.remap_profile(old_profile, new_module,
                                   paths=old_paths)
    match = result.match
    matched_blocks = sum(len(fm.blocks) for fm in match.functions)
    old_blocks = sum(len(f.cfg.blocks)
                     for f in old_module.functions.values())
    new_blocks = sum(len(f.cfg.blocks)
                     for f in new_module.functions.values())
    matched_edges = sum(len(fm.edges) for fm in match.functions)
    old_edges = sum(fm.old_edges for fm in match.functions) or 1

    row = MatchingRow(
        benchmark=workload.name,
        old_blocks=old_blocks, new_blocks=new_blocks,
        block_coverage=matched_blocks / (old_blocks or 1),
        edge_coverage=matched_edges / old_edges,
        retained=result.stats.retained,
        edge_accuracy=_edge_accuracy(result.profile, fresh_profile),
        paths_kept=result.stats.mapped_paths,
        paths_dropped=result.stats.dropped_paths,
        layout_agreement=_layout_agreement(new_module, result.profile,
                                           fresh_profile))
    if repeats > 0:
        fresh_layouts = derive_module_layouts(new_module, fresh_profile)
        remap_layouts = derive_module_layouts(new_module, result.profile)
        row.discard_mops = _ops_per_sec(new_module, None, repeats) / 1e6
        row.remap_mops = _ops_per_sec(new_module, remap_layouts,
                                      repeats) / 1e6
        row.fresh_mops = _ops_per_sec(new_module, fresh_layouts,
                                      repeats) / 1e6
    return row


def matching_table(workloads: list[Workload],
                   session: ProfilingSession,
                   scale: int = 1, seed: int = 1,
                   repeats: int = 0) -> str:
    """Render the study as the harness table."""
    rows = []
    timed = repeats > 0
    for workload in workloads:
        r = matching_study(workload, scale=scale, seed=seed,
                           session=session, repeats=repeats)
        cells = [r.benchmark, f"{r.old_blocks}->{r.new_blocks}",
                 f"{r.block_coverage * 100:.0f}%",
                 f"{r.edge_coverage * 100:.0f}%",
                 f"{r.retained * 100:.0f}%",
                 f"{r.edge_accuracy * 100:.0f}%",
                 f"{r.layout_agreement * 100:.0f}%"]
        if timed:
            recovered = r.recovered_speedup
            cells.append("n/a" if recovered is None
                         else f"{recovered * 100:.0f}%")
        rows.append(cells)
    headers = ["Benchmark", "Blocks", "Blk match", "Edge match",
               "Retained", "Accuracy", "Layouts"]
    if timed:
        headers.append("Speedup rec.")
    return render_table(
        headers, rows,
        title=("Stale-profile matching: profile remapped across seeded "
               "edits (rename/delete/insert) vs fresh re-profiling."))


def matching_rows_to_dict(rows: list[MatchingRow]) -> dict:
    """A JSON-safe report (the CI staleness artifact)."""
    payload = {row.benchmark: {
        key: value for key, value in asdict(row).items()
        if key != "benchmark" and value is not None}
        for row in rows}
    for row in rows:
        recovered = row.recovered_speedup
        if recovered is not None:
            payload[row.benchmark]["recovered_speedup"] = recovered
    retained = [row.retained for row in rows]
    accuracy = [row.edge_accuracy for row in rows]
    return {
        "schema": 1,
        "workloads": payload,
        "min_retained": min(retained) if retained else None,
        "mean_retained": (sum(retained) / len(retained)
                          if retained else None),
        "mean_accuracy": (sum(accuracy) / len(accuracy)
                          if accuracy else None),
    }
