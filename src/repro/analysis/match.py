"""Static anchor matching between two IR modules (stale-profile matching).

A dynamic optimizer persists profiles across runs, but the program keeps
changing underneath them: blocks are renamed, split, deleted, re-optimized.
Discarding every profile whose module fingerprint went stale throws away
counts that are still mostly right.  *Stale Profile Matching* (Ayupov,
Panchenko & Pupyrev, 2024) shows that a static matching between the old
and new control-flow graphs recovers the bulk of a stale profile; this
module builds that matching for the IR.

The matcher works over :class:`FunctionSketch` summaries rather than raw
functions, so a sketch can be embedded in a serialized profile and matched
without the old module ever being reconstructed.  Per block it keeps two
content hashes:

* a **strict** hash over the full instruction text (registers and
  constants included, branch/jump *label names excluded* so a pure rename
  does not perturb it), and
* a **loose** hash over opcode kinds plus their stable anchors only
  (call targets, array and global names, operator symbols).

Matching is a deterministic cascade of anchors, strongest first; each
stage pairs only keys that are *unique on both sides*, and every matched
block leaves the candidate pools, so the result is injective by
construction.  The cascade: entry/exit pinning, strict hash, loose hash,
call-target anchors, constant anchors, then iterative
Weisfeiler-Lehman-style neighbourhood hashing (already-matched blocks
share a synthetic ``m<i>`` label on both sides, so identity propagates
outward across rounds), and finally name-based fallbacks.  Every
:class:`BlockMatch` records which anchor paired it and that anchor's
confidence, which downstream consumers (transfer repair, the V7xx
verifier, the CLI) surface rather than flattening to a boolean.

:func:`match_modules` memoises whole-module matches per
``(old fingerprint, new fingerprint)`` pair, since a session re-matching
the same stale profile against the same recompiled module is the common
case.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from ..ir.function import Function, Module
from ..ir.instructions import (BinOp, Branch, Call, Const, GlobalLoad,
                               GlobalStore, Instr, Jump, Load, Mov, Ret,
                               Select, Store, UnOp)

__all__ = [
    "BlockSketch", "FunctionSketch", "ModuleSketch",
    "BlockMatch", "EdgeMatch", "FunctionMatch", "ModuleMatch",
    "sketch_function", "sketch_module", "sketch_to_dict",
    "sketch_from_dict", "match_function_sketches", "match_sketches",
    "match_modules", "clear_match_memo",
]

#: Pair of block names, the stable way this subsystem addresses an edge
#: (sealed IR never carries parallel edges).
Pair = tuple[str, str]

#: Confidence assigned by each anchor stage of the cascade.
ANCHOR_CONFIDENCE: Mapping[str, float] = {
    "entry": 1.0,
    "exit": 1.0,
    "strict-hash": 0.95,
    "loose-hash": 0.85,
    "call-anchor": 0.8,
    "const-anchor": 0.75,
    "neighbourhood": 0.7,
    "name-loose": 0.55,
    "name-only": 0.4,
}

#: Neighbourhood-hash refinement rounds; matched labels propagate one
#: graph step per round, so three rounds see a radius-3 ball.
_WL_ROUNDS = 3


def _digest(*parts: str) -> str:
    joined = "\x1f".join(parts)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


def _strict_token(instr: Instr) -> str:
    """Full instruction text minus block-label names.

    Branch and jump targets are the one part of an instruction that a
    pure block rename rewrites, so they are excluded; everything else
    (registers, constants, anchors) participates.
    """
    if isinstance(instr, Jump):
        return "jump"
    if isinstance(instr, Branch):
        return f"branch {instr.cond}"
    return repr(instr)


def _loose_token(instr: Instr) -> str:
    """Opcode kind plus its stable anchors only.

    Registers, constant values, and block labels are all renameable by
    routine optimizer passes; call targets, array names, global names,
    and operator symbols survive them.
    """
    if isinstance(instr, Const):
        return "const"
    if isinstance(instr, Mov):
        return "mov"
    if isinstance(instr, BinOp):
        return f"bin {instr.op}"
    if isinstance(instr, UnOp):
        return f"un {instr.op}"
    if isinstance(instr, Select):
        return "select"
    if isinstance(instr, Load):
        return f"load {instr.array}"
    if isinstance(instr, Store):
        return f"store {instr.array}"
    if isinstance(instr, GlobalLoad):
        return f"gload {instr.name}"
    if isinstance(instr, GlobalStore):
        return f"gstore {instr.name}"
    if isinstance(instr, Call):
        return f"call {instr.func}"
    if isinstance(instr, Jump):
        return "jump"
    if isinstance(instr, Branch):
        return "branch"
    if isinstance(instr, Ret):
        return "ret"
    return type(instr).__name__.lower()  # pragma: no cover - future ops


# ---------------------------------------------------------------------------
# Sketches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSketch:
    """Content summary of one basic block."""

    name: str
    strict: str
    loose: str
    calls: tuple[str, ...]
    consts: tuple[str, ...]
    term: str


@dataclass(frozen=True)
class FunctionSketch:
    """Shape summary of one sealed function: blocks plus the edge list."""

    name: str
    entry: str
    exit: str
    blocks: tuple[BlockSketch, ...]
    edges: tuple[Pair, ...]

    def block(self, name: str) -> BlockSketch:
        for sketch in self.blocks:
            if sketch.name == name:
                return sketch
        raise KeyError(name)

    @property
    def content_hash(self) -> str:
        """Order-independent whole-function content hash, used to pair
        renamed functions across modules."""
        return _digest("function",
                       *sorted(b.strict for b in self.blocks),
                       str(len(self.edges)))


@dataclass(frozen=True)
class ModuleSketch:
    """Sketches for every function of a module."""

    name: str
    main: str
    functions: tuple[FunctionSketch, ...]

    def function(self, name: str) -> Optional[FunctionSketch]:
        for sketch in self.functions:
            if sketch.name == name:
                return sketch
        return None


def sketch_function(func: Function) -> FunctionSketch:
    """Summarise a sealed function for matching."""
    cfg = func.cfg
    if cfg.entry is None or cfg.exit is None:
        raise ValueError(f"function {func.name!r} is not sealed")
    blocks: list[BlockSketch] = []
    for name in sorted(cfg.blocks):
        instrs = cfg.blocks[name].instructions
        strict = _digest("strict", *[_strict_token(i) for i in instrs])
        loose = _digest("loose", *[_loose_token(i) for i in instrs])
        calls = tuple(i.func for i in instrs if isinstance(i, Call))
        consts = tuple(repr(i.value) for i in instrs
                       if isinstance(i, Const))
        term = _loose_token(instrs[-1]) if instrs else "empty"
        blocks.append(BlockSketch(name=name, strict=strict, loose=loose,
                                  calls=calls, consts=consts, term=term))
    edges = tuple(sorted({(e.src, e.dst) for e in cfg.edges()}))
    return FunctionSketch(name=func.name, entry=cfg.entry, exit=cfg.exit,
                          blocks=tuple(blocks), edges=edges)


def sketch_module(module: Module) -> ModuleSketch:
    """Summarise every function of a module."""
    return ModuleSketch(
        name=module.name, main=module.main,
        functions=tuple(sketch_function(module.functions[name])
                        for name in sorted(module.functions)))


def sketch_to_dict(sketch: ModuleSketch) -> dict[str, Any]:
    """A JSON-safe view, for embedding in serialized profiles."""
    return {
        "name": sketch.name,
        "main": sketch.main,
        "functions": [
            {
                "name": f.name, "entry": f.entry, "exit": f.exit,
                "blocks": [
                    {"name": b.name, "strict": b.strict, "loose": b.loose,
                     "calls": list(b.calls), "consts": list(b.consts),
                     "term": b.term}
                    for b in f.blocks],
                "edges": [[src, dst] for src, dst in f.edges],
            }
            for f in sketch.functions],
    }


def sketch_from_dict(data: Mapping[str, Any]) -> ModuleSketch:
    """Inverse of :func:`sketch_to_dict`."""
    functions: list[FunctionSketch] = []
    for f in data["functions"]:
        blocks = tuple(
            BlockSketch(name=b["name"], strict=b["strict"],
                        loose=b["loose"], calls=tuple(b["calls"]),
                        consts=tuple(b["consts"]), term=b["term"])
            for b in f["blocks"])
        edges = tuple((src, dst) for src, dst in f["edges"])
        functions.append(FunctionSketch(
            name=f["name"], entry=f["entry"], exit=f["exit"],
            blocks=blocks, edges=edges))
    return ModuleSketch(name=data["name"], main=data["main"],
                        functions=tuple(functions))


# ---------------------------------------------------------------------------
# Matches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockMatch:
    """One old-block -> new-block correspondence with its provenance."""

    old: str
    new: str
    anchor: str
    confidence: float


@dataclass(frozen=True)
class EdgeMatch:
    """One old-edge -> new-edge correspondence, as (src, dst) pairs."""

    old: Pair
    new: Pair


@dataclass(frozen=True)
class FunctionMatch:
    """An injective correspondence between two functions' CFGs."""

    old: str
    new: str
    blocks: tuple[BlockMatch, ...]
    edges: tuple[EdgeMatch, ...]
    old_blocks: int
    new_blocks: int
    old_edges: int
    new_edges: int

    def block_map(self) -> dict[str, str]:
        return {bm.old: bm.new for bm in self.blocks}

    def edge_map(self) -> dict[Pair, Pair]:
        return {em.old: em.new for em in self.edges}

    @property
    def block_coverage(self) -> float:
        """Fraction of old blocks the match carries over."""
        if not self.old_blocks:
            return 1.0
        return len(self.blocks) / self.old_blocks

    @property
    def edge_coverage(self) -> float:
        """Fraction of old edges the match carries over."""
        if not self.old_edges:
            return 1.0
        return len(self.edges) / self.old_edges

    @property
    def min_confidence(self) -> float:
        if not self.blocks:
            return 0.0
        return min(bm.confidence for bm in self.blocks)


@dataclass(frozen=True)
class ModuleMatch:
    """Function-level pairing plus one :class:`FunctionMatch` each."""

    old_fingerprint: str
    new_fingerprint: str
    functions: tuple[FunctionMatch, ...]

    @property
    def identical(self) -> bool:
        """True when the two modules fingerprint the same (self-match)."""
        return bool(self.old_fingerprint) and \
            self.old_fingerprint == self.new_fingerprint

    def for_old(self, name: str) -> Optional[FunctionMatch]:
        for fm in self.functions:
            if fm.old == name:
                return fm
        return None

    def for_new(self, name: str) -> Optional[FunctionMatch]:
        for fm in self.functions:
            if fm.new == name:
                return fm
        return None

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable view (for ``repro match --json``)."""
        return {
            "old_fingerprint": self.old_fingerprint,
            "new_fingerprint": self.new_fingerprint,
            "identical": self.identical,
            "functions": [
                {
                    "old": fm.old, "new": fm.new,
                    "old_blocks": fm.old_blocks,
                    "new_blocks": fm.new_blocks,
                    "old_edges": fm.old_edges,
                    "new_edges": fm.new_edges,
                    "block_coverage": fm.block_coverage,
                    "edge_coverage": fm.edge_coverage,
                    "blocks": [
                        {"old": bm.old, "new": bm.new,
                         "anchor": bm.anchor,
                         "confidence": bm.confidence}
                        for bm in fm.blocks],
                    "edges": [
                        {"old": list(em.old), "new": list(em.new)}
                        for em in fm.edges],
                }
                for fm in self.functions],
        }


# ---------------------------------------------------------------------------
# The anchor cascade
# ---------------------------------------------------------------------------

def _adjacency(sketch: FunctionSketch
               ) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    preds: dict[str, list[str]] = {b.name: [] for b in sketch.blocks}
    succs: dict[str, list[str]] = {b.name: [] for b in sketch.blocks}
    for src, dst in sketch.edges:
        succs[src].append(dst)
        preds[dst].append(src)
    return preds, succs


class _Matcher:
    """State of one function-pair matching run."""

    def __init__(self, old: FunctionSketch, new: FunctionSketch):
        self.old = old
        self.new = new
        # Blocks left to match, by name.
        self.old_left = {b.name: b for b in old.blocks}
        self.new_left = {b.name: b for b in new.blocks}
        self.matches: list[BlockMatch] = []
        #: Shared synthetic label per matched pair, for neighbourhood
        #: hashing: both sides of pair *i* carry label ``m<i>``.
        self.pair_label: dict[str, str] = {}

    def bind(self, old_name: str, new_name: str, anchor: str) -> None:
        label = f"m{len(self.matches)}"
        self.matches.append(BlockMatch(
            old=old_name, new=new_name, anchor=anchor,
            confidence=ANCHOR_CONFIDENCE[anchor]))
        self.pair_label[f"old:{old_name}"] = label
        self.pair_label[f"new:{new_name}"] = label
        del self.old_left[old_name]
        del self.new_left[new_name]

    def take_unique(self, old_keys: Mapping[str, Optional[str]],
                    new_keys: Mapping[str, Optional[str]],
                    anchor: str) -> bool:
        """Pair every key that is unique on both sides; True on progress."""
        by_old: dict[str, list[str]] = {}
        for name in sorted(self.old_left):
            key = old_keys.get(name)
            if key is not None:
                by_old.setdefault(key, []).append(name)
        by_new: dict[str, list[str]] = {}
        for name in sorted(self.new_left):
            key = new_keys.get(name)
            if key is not None:
                by_new.setdefault(key, []).append(name)
        progress = False
        for key in sorted(by_old):
            olds = by_old[key]
            news = by_new.get(key, [])
            if len(olds) == 1 and len(news) == 1:
                self.bind(olds[0], news[0], anchor)
                progress = True
        return progress

    # -- cascade stages -------------------------------------------------

    def pin_boundaries(self) -> None:
        if self.old.entry in self.old_left and \
                self.new.entry in self.new_left:
            self.bind(self.old.entry, self.new.entry, "entry")
        if self.old.exit in self.old_left and \
                self.new.exit in self.new_left:
            self.bind(self.old.exit, self.new.exit, "exit")

    def content_stage(self, attr: str, anchor: str) -> None:
        old_keys = {n: getattr(b, attr) for n, b in self.old_left.items()}
        new_keys = {n: getattr(b, attr) for n, b in self.new_left.items()}
        self.take_unique({n: str(k) for n, k in old_keys.items()},
                         {n: str(k) for n, k in new_keys.items()}, anchor)

    def anchor_stage(self, attr: str, anchor: str) -> None:
        """Key on a non-empty anchor tuple (calls, consts)."""
        def keys(pool: Mapping[str, BlockSketch]
                 ) -> dict[str, Optional[str]]:
            out: dict[str, Optional[str]] = {}
            for name, sketch in pool.items():
                value = getattr(sketch, attr)
                out[name] = "\x1f".join(value) if value else None
            return out

        self.take_unique(keys(self.old_left), keys(self.new_left), anchor)

    def neighbourhood_stage(self) -> None:
        """Weisfeiler-Lehman refinement rounds over both graphs.

        Labels seed from the loose hash (or the shared ``m<i>`` pair
        label for already-matched blocks) and are refined by hashing
        each block's label together with its sorted predecessor and
        successor label multisets.  After each refinement, keys unique
        on both sides are paired; fresh matches then seed the next
        round, so identity spreads outward from the anchors.
        """
        old_adj = _adjacency(self.old)
        new_adj = _adjacency(self.new)
        for _round in range(_WL_ROUNDS):
            if not self.old_left or not self.new_left:
                return
            old_labels = self._wl_labels(self.old, "old", old_adj)
            new_labels = self._wl_labels(self.new, "new", new_adj)
            progress = self.take_unique(
                {n: old_labels[n] for n in self.old_left},
                {n: new_labels[n] for n in self.new_left},
                "neighbourhood")
            if not progress:
                return

    def _wl_labels(self, sketch: FunctionSketch, side: str,
                   adj: tuple[dict[str, list[str]], dict[str, list[str]]]
                   ) -> dict[str, str]:
        preds, succs = adj
        labels: dict[str, str] = {}
        for block in sketch.blocks:
            matched = self.pair_label.get(f"{side}:{block.name}")
            labels[block.name] = matched if matched is not None \
                else _digest("seed", block.loose, block.term)
        for _step in range(_WL_ROUNDS):
            labels = {
                name: _digest(
                    "wl", labels[name],
                    ",".join(sorted(labels[p] for p in preds[name])),
                    ",".join(sorted(labels[s] for s in succs[name])))
                for name in labels}
        return labels

    def name_stage(self) -> None:
        """Last resort: block names themselves (they survive most edits
        that do not rename), qualified by loose-content agreement first
        so a renamed-and-replaced block does not steal a name match."""
        shared = sorted(set(self.old_left) & set(self.new_left))
        for name in shared:
            if self.old_left[name].loose == self.new_left[name].loose:
                self.bind(name, name, "name-loose")
        for name in sorted(set(self.old_left) & set(self.new_left)):
            self.bind(name, name, "name-only")

    def run(self) -> FunctionMatch:
        self.pin_boundaries()
        self.content_stage("strict", "strict-hash")
        self.content_stage("loose", "loose-hash")
        self.anchor_stage("calls", "call-anchor")
        self.anchor_stage("consts", "const-anchor")
        self.neighbourhood_stage()
        self.name_stage()
        block_map = {bm.old: bm.new for bm in self.matches}
        new_edges = set(self.new.edges)
        edge_matches = []
        for src, dst in self.old.edges:
            mapped_src = block_map.get(src)
            mapped_dst = block_map.get(dst)
            if mapped_src is None or mapped_dst is None:
                continue
            if (mapped_src, mapped_dst) in new_edges:
                edge_matches.append(EdgeMatch(old=(src, dst),
                                              new=(mapped_src, mapped_dst)))
        blocks = tuple(sorted(self.matches, key=lambda bm: bm.old))
        return FunctionMatch(
            old=self.old.name, new=self.new.name,
            blocks=blocks, edges=tuple(edge_matches),
            old_blocks=len(self.old.blocks),
            new_blocks=len(self.new.blocks),
            old_edges=len(self.old.edges),
            new_edges=len(self.new.edges))


def match_function_sketches(old: FunctionSketch,
                            new: FunctionSketch) -> FunctionMatch:
    """Match two function sketches through the anchor cascade."""
    return _Matcher(old, new).run()


def match_sketches(old: ModuleSketch, new: ModuleSketch,
                   old_fingerprint: str = "",
                   new_fingerprint: str = "") -> ModuleMatch:
    """Match two module sketches.

    Functions pair by name first; leftovers pair by unique
    whole-function content hash, which survives a function rename.
    """
    old_left = {f.name: f for f in old.functions}
    new_left = {f.name: f for f in new.functions}
    pairs: list[tuple[FunctionSketch, FunctionSketch]] = []
    for name in sorted(set(old_left) & set(new_left)):
        pairs.append((old_left.pop(name), new_left.pop(name)))
    by_hash_old: dict[str, list[str]] = {}
    for name, sketch in sorted(old_left.items()):
        by_hash_old.setdefault(sketch.content_hash, []).append(name)
    by_hash_new: dict[str, list[str]] = {}
    for name, sketch in sorted(new_left.items()):
        by_hash_new.setdefault(sketch.content_hash, []).append(name)
    for digest in sorted(by_hash_old):
        olds = by_hash_old[digest]
        news = by_hash_new.get(digest, [])
        if len(olds) == 1 and len(news) == 1:
            pairs.append((old_left.pop(olds[0]), new_left.pop(news[0])))
    matches = tuple(match_function_sketches(o, n)
                    for o, n in sorted(pairs, key=lambda p: p[0].name))
    return ModuleMatch(old_fingerprint=old_fingerprint,
                       new_fingerprint=new_fingerprint,
                       functions=matches)


# ---------------------------------------------------------------------------
# Module-level entry point, memoised per fingerprint pair
# ---------------------------------------------------------------------------

_MATCH_MEMO: dict[tuple[str, str], ModuleMatch] = {}
_MATCH_MEMO_CAP = 256


def clear_match_memo() -> None:
    """Drop the per-fingerprint match memo (tests, long sessions)."""
    _MATCH_MEMO.clear()


def match_modules(old: Module, new: Module) -> ModuleMatch:
    """Match two IR modules; memoised per fingerprint pair."""
    from ..engine.fingerprint import fingerprint_module

    key = (fingerprint_module(old), fingerprint_module(new))
    cached = _MATCH_MEMO.get(key)
    if cached is not None:
        return cached
    result = match_sketches(sketch_module(old), sketch_module(new),
                            old_fingerprint=key[0],
                            new_fingerprint=key[1])
    if len(_MATCH_MEMO) >= _MATCH_MEMO_CAP:
        _MATCH_MEMO.clear()
    _MATCH_MEMO[key] = result
    return result
