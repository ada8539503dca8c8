"""Profile diffs: what changed between two runs.

A dynamic optimizer that profiles continuously needs to know when the
flow distribution *shifts* -- new hot edges appearing (recompile), old
ones cooling (deoptimize or evict traces).  :func:`diff_edge_profiles`
compares two edge profiles of the same module and ranks every CFG edge
by how its share of program flow moved; ``repro profiles diff`` reports
it, since edge profiles are what the CLI persists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .edge_profile import EdgeProfile


@dataclass
class EdgeDelta:
    """One edge's count and flow-share movement between two profiles."""

    function: str
    edge: tuple[str, str]
    before: int
    after: int
    before_share: float
    after_share: float

    @property
    def delta(self) -> int:
        return self.after - self.before

    @property
    def shift(self) -> float:
        return self.after_share - self.before_share


@dataclass
class EdgeProfileDiff:
    """All edges whose flow share moved by at least ``threshold``."""

    deltas: list[EdgeDelta] = field(default_factory=list)
    invocations: dict[str, tuple[int, int]] = field(default_factory=dict)
    _stable: list[EdgeDelta] = field(default_factory=list, repr=False)

    @property
    def total_shift(self) -> float:
        """Half the L1 distance between the normalized edge-flow
        distributions (0 = identical, up to 1.0 = disjoint)."""
        return sum(abs(d.shift) for d in self.deltas + self._stable) / 2

    def to_dict(self) -> dict:
        return {
            "total_shift": self.total_shift,
            "invocations": {name: {"before": b, "after": a}
                            for name, (b, a) in
                            sorted(self.invocations.items())},
            "edges": [
                {"function": d.function, "edge": list(d.edge),
                 "before": d.before, "after": d.after,
                 "shift": d.shift}
                for d in self.deltas],
        }


def diff_edge_profiles(before: EdgeProfile, after: EdgeProfile,
                       threshold: float = 0.001) -> EdgeProfileDiff:
    """Classify every edge of two same-module profiles by flow shift."""
    if before.module is not after.module:
        raise ValueError("can only diff profiles of the same module")

    def shares(profile: EdgeProfile) -> dict[tuple[str, tuple[str, str]],
                                             int]:
        out: dict[tuple[str, tuple[str, str]], int] = {}
        for name, fp in profile.functions.items():
            for edge in fp.func.cfg.edges():
                count = fp.edge_freq.get(edge.uid, 0)
                if count:
                    out[(name, edge.pair)] = count
        return out

    counts_before = shares(before)
    counts_after = shares(after)
    total_before = sum(counts_before.values()) or 1
    total_after = sum(counts_after.values()) or 1
    diff = EdgeProfileDiff()
    for name, fp in sorted(before.functions.items()):
        after_fp = after.functions.get(name)
        if after_fp is not None and \
                (fp.entry_count or after_fp.entry_count):
            diff.invocations[name] = (fp.entry_count,
                                      after_fp.entry_count)
    for key in sorted(set(counts_before) | set(counts_after)):
        name, pair = key
        b = counts_before.get(key, 0)
        a = counts_after.get(key, 0)
        delta = EdgeDelta(function=name, edge=pair, before=b, after=a,
                          before_share=b / total_before,
                          after_share=a / total_after)
        if abs(delta.shift) < threshold:
            diff._stable.append(delta)
        else:
            diff.deltas.append(delta)
    diff.deltas.sort(key=lambda d: (-abs(d.shift), d.function, d.edge))
    return diff


def format_edge_diff(diff: EdgeProfileDiff, limit: int = 10) -> str:
    """A short human-readable report of the biggest edge movers."""
    lines = [f"total edge-flow shift: {diff.total_shift * 100:.1f}%"]
    moved = [name for name, (b, a) in diff.invocations.items() if b != a]
    for name in moved:
        b, a = diff.invocations[name]
        lines.append(f"  invocations {name}: {b} -> {a}")
    for delta in diff.deltas[:limit]:
        src, dst = delta.edge
        lines.append(f"  {delta.shift * 100:+6.2f}%  {delta.function}: "
                     f"{src} -> {dst}  ({delta.before} -> {delta.after})")
    if len(diff.deltas) > limit:
        lines.append(f"  ... and {len(diff.deltas) - limit} more edges")
    return "\n".join(lines)
