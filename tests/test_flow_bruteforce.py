"""Brute-force validation of definite and potential flow.

Definite flow of a path is defined as the minimum frequency over *all*
path profiles consistent with the edge profile; potential flow is the
maximum.  For small DAGs with small frequencies we can enumerate every
consistent integer path profile directly and compare the exact min/max
per path with what the Figure 14/15 dynamic programs compute -- a
from-first-principles check that the appendix algorithms are right.
"""

import itertools

import pytest

from repro.cfg import build_profiling_dag
from repro.ir import IRBuilder
from repro.profiles import (definite_flow_sets, potential_flow_sets,
                            reconstruct_hot_paths)
from repro.profiles.edge_profile import FunctionEdgeProfile


def _two_diamond(freqs, entry_count):
    """A->(B|C)->D->(E|F)->G with the given edge frequencies."""
    b = IRBuilder("g")
    b.block("A")
    b.const("c", 1)
    b.branch("c", "B", "C")
    for src, dst in (("B", "D"), ("C", "D")):
        b.block(src)
        b.jump(dst)
    b.block("D")
    b.branch("c", "E", "F")
    for src, dst in (("E", "G"), ("F", "G")):
        b.block(src)
        b.jump(dst)
    b.block("G")
    b.ret()
    func = b.finish("A")
    cfg = func.cfg
    table = {cfg.edge(*pair).uid: value for pair, value in freqs.items()}
    return func, FunctionEdgeProfile(func, table, entry_count)


def _enumerate_consistent_profiles(freqs):
    """All nonneg integer (p_BE, p_BF, p_CE, p_CF) matching the edges."""
    ab, ac = freqs[("A", "B")], freqs[("A", "C")]
    de, df = freqs[("D", "E")], freqs[("D", "F")]
    out = []
    for p_be in range(min(ab, de) + 1):
        p_bf = ab - p_be
        p_ce = de - p_be
        p_cf = ac - p_ce
        if p_bf < 0 or p_ce < 0 or p_cf < 0:
            continue
        if p_bf + p_cf != df:
            continue
        out.append({("A", "B", "D", "E", "G"): p_be,
                    ("A", "B", "D", "F", "G"): p_bf,
                    ("A", "C", "D", "E", "G"): p_ce,
                    ("A", "C", "D", "F", "G"): p_cf})
    return out


CASES = [
    # The paper's Figure 8 numbers.
    {("A", "B"): 50, ("A", "C"): 30, ("B", "D"): 50, ("C", "D"): 30,
     ("D", "E"): 60, ("D", "F"): 20, ("E", "G"): 60, ("F", "G"): 20},
    # Fully balanced: nothing is definite.
    {("A", "B"): 10, ("A", "C"): 10, ("B", "D"): 10, ("C", "D"): 10,
     ("D", "E"): 10, ("D", "F"): 10, ("E", "G"): 10, ("F", "G"): 10},
    # One dominant side pins almost everything.
    {("A", "B"): 19, ("A", "C"): 1, ("B", "D"): 19, ("C", "D"): 1,
     ("D", "E"): 19, ("D", "F"): 1, ("E", "G"): 19, ("F", "G"): 1},
    # Asymmetric slack.
    {("A", "B"): 7, ("A", "C"): 5, ("B", "D"): 7, ("C", "D"): 5,
     ("D", "E"): 4, ("D", "F"): 8, ("E", "G"): 4, ("F", "G"): 8},
]


@pytest.mark.parametrize("freqs", CASES)
def test_dp_matches_bruteforce(freqs):
    entry = freqs[("A", "B")] + freqs[("A", "C")]
    func, profile = _two_diamond(freqs, entry)
    profiles = _enumerate_consistent_profiles(freqs)
    assert profiles, "edge profile must be feasible"

    exact_min = {path: min(p[path] for p in profiles)
                 for path in profiles[0]}
    exact_max = {path: max(p[path] for p in profiles)
                 for path in profiles[0]}

    d_sets = definite_flow_sets(func, profile)
    p_sets = potential_flow_sets(func, profile)
    definite = {p.blocks: p.freq
                for p in reconstruct_hot_paths(d_sets, -1.0,
                                               max_paths=1000)}
    potential = {p.blocks: p.freq
                 for p in reconstruct_hot_paths(p_sets, -1.0,
                                                max_paths=1000)}

    for path, lo in exact_min.items():
        assert definite.get(path, 0) == lo, ("definite", path)
    for path, hi in exact_max.items():
        # Potential flow is an upper bound; on this diamond family the
        # DP's min-of-edges bound may exceed the exact max when the
        # binding constraint is a *combination* of edges.
        assert potential.get(path, 0) >= hi, ("potential", path)
        assert potential.get(path, 0) <= min(
            freqs[(path[0], path[1])], freqs[(path[2], path[3])]), \
            ("potential-bound", path)

    # Routine-level definite flow equals the sum of per-path minima
    # weighted by branches (every path here has exactly 2 branches).
    assert d_sets.total_flow() == 2 * sum(exact_min.values())
