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
  profile is thrown away and a profile consumer gets nothing.

Reported per workload: block/edge match coverage, the fraction of edge
counts carried over matched edges, the edge-flow accuracy of the
remapped profile against the edited module's own ground truth, how many
Ball-Larus paths survived renaming, and layout agreement: do the
remapped counts derive the *same* layout plans (:class:`LayoutPlan`:
the superblock layout a dynamic optimizer would build from the profile)
as fresh counts?
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass
from typing import Optional

from ..engine import ProfilingSession
from ..ir.function import Function, Module
from ..ir.instructions import Branch, Jump
from ..opt import cleanup_module
from ..opt.rebuild import rebuild_function, retarget
from ..profiles.definite import definite_flow_paths
from ..profiles.edge_profile import EdgeProfile, FunctionEdgeProfile
from ..workloads import Workload
from .report import render_table

__all__ = [
    "EDIT_KINDS", "LayoutPlan", "MatchingRow", "derive_layout",
    "derive_module_layouts", "seeded_edit", "matching_study",
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
    blocks = {mapping[bname]: [retarget(copy.copy(ins), mapping)
                               for ins in block.instructions]
              for bname, block in func.cfg.blocks.items()}
    synthetic = {mapping[b]
                 for b in getattr(func, "synthetic_blocks", ())}
    assert func.cfg.entry is not None
    return rebuild_function(func.name, func.params, dict(func.arrays),
                            blocks, mapping[func.cfg.entry],
                            synthetic=synthetic)


def _split_edges(func: Function, seed: int) -> Function:
    """Insert forwarding blocks on a seed-chosen subset of at most three
    branch arms."""
    blocks: dict[str, list] = {}
    for bname, block in func.cfg.blocks.items():
        blocks[bname] = [copy.copy(ins) for ins in block.instructions]
    inserted = 0
    for index, bname in enumerate(sorted(blocks)):
        if inserted >= 3:
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
# Layout planning: what a dynamic optimizer derives from a profile
# ----------------------------------------------------------------------

#: A function is planned when invoked at least this many times ...
MIN_INVOCATIONS = 32
#: ... or when its executed-instruction estimate clears this bar.
MIN_INSTRUCTIONS = 4096
#: Reconstructed paths below this fraction of the routine's branch flow
#: are not worth a superblock chain.
PATH_CUTOFF_FRACTION = 0.05
#: Keep at most this many chains per function.
MAX_CHAINS = 8
#: A block is *hot* at >= this fraction of the function's peak block
#: frequency.
HOT_FRACTION = 1 / 16


@dataclass(frozen=True)
class LayoutPlan:
    """One function's profile-derived superblock layout."""

    #: Superblock chains, hottest first; each is a reconstructed hot
    #: path's block sequence.
    chains: tuple = ()
    #: Blocks on the hot chains / above the hot-fraction bar.
    hot_blocks: frozenset = frozenset()
    #: Blocks the profile never saw execute.
    cold_blocks: frozenset = frozenset()
    #: ``(block, hot successor)`` for biased branches whose hot arm is
    #: the *then* target.
    preferred: tuple = ()


def _hot_chains(func: Function, fprofile: FunctionEdgeProfile) -> tuple:
    """Reconstruct the function's hottest paths into superblock chains
    (definite flow under the branch metric -- Figures 14/16)."""
    total = fprofile.branch_flow()
    if total <= 0:
        return ()
    try:
        paths = definite_flow_paths(
            func, fprofile, cutoff=PATH_CUTOFF_FRACTION * total)
    except Exception:
        # Irreducible or otherwise un-DAG-able control flow: the plan
        # still carries freq-based layout, just without chains.
        return ()
    ranked = sorted(paths, key=lambda p: (-p.freq, p.blocks))
    chains: list = []
    heads: set = set()
    for path in ranked:
        if len(chains) >= MAX_CHAINS:
            break
        blocks = tuple(path.blocks)
        if not blocks or blocks[0] in heads:
            continue
        heads.add(blocks[0])
        chains.append(blocks)
    return tuple(chains)


def derive_layout(func: Function,
                  fprofile: Optional[FunctionEdgeProfile]
                  ) -> Optional[LayoutPlan]:
    """A :class:`LayoutPlan` for one function, or ``None`` when the
    profile says it is not hot enough to plan."""
    if fprofile is None or not fprofile.executed():
        return None
    # Remapped stale profiles can carry locally inconsistent transferred
    # counts whose conservation repair infers a negative flow on an
    # unmatched edge; layout derivation treats those blocks as unexecuted.
    freqs = {name: max(0, fprofile.block_freq(name))
             for name in func.cfg.blocks}
    instructions = sum(
        freqs[name] * len(block.instructions)
        for name, block in func.cfg.blocks.items())
    if (fprofile.entry_count < MIN_INVOCATIONS
            and instructions < MIN_INSTRUCTIONS):
        return None
    peak = max(freqs.values(), default=0)
    if peak <= 0:
        return None

    chains = _hot_chains(func, fprofile)
    hot = {b for chain in chains for b in chain}
    hot_cut = max(1, int(peak * HOT_FRACTION))
    hot.update(b for b, f in freqs.items() if f >= hot_cut)
    cold = {b for b, f in freqs.items() if f < 1} - hot

    preferred: list = []
    for bname in func.cfg.blocks:
        term = func.cfg.blocks[bname].instructions[-1]
        if not isinstance(term, Branch):
            continue
        then_t, else_t = term.then_target, term.else_target
        if then_t == else_t:
            continue
        edges = func.edge_by_target[bname]
        f_then = fprofile.edge_freq.get(edges[then_t].uid, 0)
        f_else = fprofile.edge_freq.get(edges[else_t].uid, 0)
        if f_then > f_else:
            preferred.append((bname, then_t))
    return LayoutPlan(chains=chains, hot_blocks=frozenset(hot),
                      cold_blocks=frozenset(cold),
                      preferred=tuple(sorted(preferred)))


def derive_module_layouts(module: Module, edge_profile: EdgeProfile
                          ) -> dict[str, LayoutPlan]:
    """Per-function layout plans for every hot function."""
    layouts: dict[str, LayoutPlan] = {}
    for name, func in module.functions.items():
        if not func.sealed:
            continue
        fprofile = edge_profile.functions.get(name)
        if fprofile is None:
            continue
        plan = derive_layout(func, fprofile)
        if plan is not None:
            layouts[name] = plan
    return layouts


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
    """Do remapped counts plan the same layouts as fresh ones?"""
    fresh_plans = derive_module_layouts(new_module, fresh)
    remap_plans = derive_module_layouts(new_module, remapped)
    names = set(fresh_plans) | set(remap_plans)
    if not names:
        return 1.0
    same = sum(1 for n in names
               if n in fresh_plans and fresh_plans[n] == remap_plans.get(n))
    return same / len(names)


def matching_study(workload: Workload, scale: int = 1, seed: int = 1,
                   *, session: ProfilingSession) -> MatchingRow:
    """Remap one workload's profile across a seeded edit and measure."""
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

    return MatchingRow(
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


def matching_table(workloads: list[Workload],
                   session: ProfilingSession, scale: int = 1) -> str:
    """Render the study as the harness table."""
    rows = []
    for workload in workloads:
        r = matching_study(workload, scale=scale, session=session)
        cells = [r.benchmark, f"{r.old_blocks}->{r.new_blocks}",
                 f"{r.block_coverage * 100:.0f}%",
                 f"{r.edge_coverage * 100:.0f}%",
                 f"{r.retained * 100:.0f}%",
                 f"{r.edge_accuracy * 100:.0f}%",
                 f"{r.layout_agreement * 100:.0f}%"]
        rows.append(cells)
    headers = ["Benchmark", "Blocks", "Blk match", "Edge match",
               "Retained", "Accuracy", "Layouts"]
    return render_table(
        headers, rows,
        title=("Stale-profile matching: profile remapped across seeded "
               "edits (rename/delete/insert) vs fresh re-profiling."))


def matching_rows_to_dict(rows: list[MatchingRow]) -> dict:
    """A JSON-safe report (the CI staleness artifact)."""
    payload = {row.benchmark: {
        key: value for key, value in asdict(row).items()
        if key != "benchmark"}
        for row in rows}
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
