"""Profile serialization: save and load edge profiles as JSON.

A dynamic optimizer persists profiles across runs ("offline advice"); the
staleness study (:mod:`repro.harness.staleness`) and the CLI use this to
move profiles between processes.  Edge profiles are keyed by
``(source block, destination block, ordinal)`` rather than raw edge uids,
so a profile written for one compile of a module loads against another
compile of the *same* module (uids are not stable across compiles, the
CFG shape is).

When the module *has* changed, a profile saved with ``embed_sketch=True``
carries a :class:`~repro.analysis.match.ModuleSketch` of the module it
was collected on, and :func:`edge_profile_from_dict_or_remap` falls back
to stale-profile matching: the embedded sketch is matched against the
new module and the counts are transferred and repaired to exact flow
conservation (:mod:`repro.analysis.transfer`) instead of being
discarded.
"""

from __future__ import annotations

import json
from typing import TextIO

from ..ir.function import Module
from .edge_profile import EdgeProfile, FunctionEdgeProfile

FORMAT_VERSION = 1


def _edge_key_table(func) -> dict[int, list]:
    """uid -> [src, dst, ordinal] (ordinal disambiguates parallel edges)."""
    seen: dict[tuple[str, str], int] = {}
    table: dict[int, list] = {}
    for edge in func.cfg.edges():
        ordinal = seen.get((edge.src, edge.dst), 0)
        seen[(edge.src, edge.dst)] = ordinal + 1
        table[edge.uid] = [edge.src, edge.dst, ordinal]
    return table


def _edge_uid_table(func) -> dict[tuple[str, str, int], int]:
    return {tuple(v): uid for uid, v in _edge_key_table(func).items()}


def edge_profile_to_dict(profile: EdgeProfile,
                         embed_sketch: bool = False) -> dict:
    out = {"version": FORMAT_VERSION, "kind": "edge-profile",
           "module": profile.module.name, "functions": {}}
    for name, fp in profile.functions.items():
        table = _edge_key_table(fp.func)
        out["functions"][name] = {
            "invocations": fp.entry_count,
            "edges": [[*table[uid], count]
                      for uid, count in sorted(fp.edge_freq.items())],
        }
    if embed_sketch:
        # Lazy import: profiles must stay importable without analysis.
        from ..analysis.match import sketch_module, sketch_to_dict
        out["sketch"] = sketch_to_dict(sketch_module(profile.module))
    return out


def edge_profile_from_dict(data: dict, module: Module) -> EdgeProfile:
    if data.get("kind") != "edge-profile":
        raise ValueError("not a serialized edge profile")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported version {data.get('version')!r}")
    functions = {}
    for name, func in module.functions.items():
        entry = data["functions"].get(name, {"invocations": 0, "edges": []})
        uids = _edge_uid_table(func)
        freq: dict[int, int] = {}
        for src, dst, ordinal, count in entry["edges"]:
            key = (src, dst, ordinal)
            if key not in uids:
                raise ValueError(
                    f"profile edge {src}->{dst} not in function {name!r}; "
                    "was the module recompiled with different code?")
            freq[uids[key]] = count
        functions[name] = FunctionEdgeProfile(func, freq,
                                              entry["invocations"])
    return EdgeProfile(module, functions)


def edge_profile_from_dict_or_remap(data: dict, module: Module):
    """Load exactly, or remap through the embedded sketch when stale.

    Returns ``(profile, match)`` where ``match`` is ``None`` for an
    exact load and the :class:`~repro.analysis.match.ModuleMatch` used
    for the transfer otherwise.  A stale profile without an embedded
    sketch still raises :class:`ValueError` (there is nothing to match
    against), as do wrong-kind and wrong-version payloads.
    """
    try:
        return edge_profile_from_dict(data, module), None
    except ValueError:
        if (data.get("kind") != "edge-profile"
                or data.get("version") != FORMAT_VERSION
                or "sketch" not in data):
            raise
    from ..analysis.match import (match_sketches, sketch_from_dict,
                                  sketch_module)
    from ..analysis.transfer import transfer_function_counts

    match = match_sketches(sketch_from_dict(data["sketch"]),
                           sketch_module(module))
    functions = {}
    for name, func in module.functions.items():
        fmatch = match.for_new(name)
        entry = data["functions"].get(fmatch.old) if fmatch else None
        if fmatch is None or entry is None:
            functions[name] = FunctionEdgeProfile(func, {}, 0)
            continue
        counts: dict[tuple[str, str], int] = {}
        for src, dst, _ordinal, count in entry["edges"]:
            counts[(src, dst)] = counts.get((src, dst), 0) + count
        repaired, _mapped, _matched = transfer_function_counts(
            counts, entry["invocations"], fmatch, func)
        functions[name] = FunctionEdgeProfile(func, repaired,
                                              entry["invocations"])
    return EdgeProfile(module, functions), match


def save_edge_profile(profile: EdgeProfile, fp: TextIO,
                      embed_sketch: bool = False) -> None:
    json.dump(edge_profile_to_dict(profile, embed_sketch=embed_sketch),
              fp, indent=1)


def load_edge_profile(fp: TextIO, module: Module) -> EdgeProfile:
    return edge_profile_from_dict(json.load(fp), module)
