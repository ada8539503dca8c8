"""Flow metrics: unit flow and the paper's branch-flow metric (Section 5.1).

*Unit flow* weights every path execution equally: ``F(p) = freq(p)``.

*Branch flow* weights a path by the number of branch decisions made while
executing it: ``F(p) = freq(p) * b_p``, where ``b_p`` counts the edges of
the path whose source block has more than one outgoing edge in the CFG.
The terminating back edge of a loop path is one of its branch decisions,
so it is included; the edge that *entered* the path belongs to the previous
path and is not.

Branch flow is invariant under inlining (the paper's Figure 7), which is
what makes it the fairer metric in the staged-optimization setting.
"""

from __future__ import annotations

from typing import Literal

from ..ir.function import Function

Metric = Literal["unit", "branch"]

UNIT: Metric = "unit"
BRANCH: Metric = "branch"


def path_branches(func: Function, blocks: tuple[str, ...]) -> int:
    """The number of branch decisions ``b_p`` along a Ball-Larus path.

    ``blocks`` is the executed block sequence (the tracer's path key).  An
    edge counts when its source block has out-degree >= 2 in the CFG.  If
    the path does not end at the routine exit it was terminated by a back
    edge, whose branchness also depends only on the source block's
    out-degree, so the final block contributes too.
    """
    cfg = func.cfg
    count = 0
    for name in blocks[:-1]:
        if len(cfg.blocks[name].succ_edges) > 1:
            count += 1
    last = blocks[-1]
    if last != cfg.exit and len(cfg.blocks[last].succ_edges) > 1:
        count += 1
    return count


def path_flow(freq: float, branches: int, metric: Metric) -> float:
    """Flow of one path under the chosen metric."""
    if metric == "unit":
        return freq
    return freq * branches
