"""Tests for event counting (spanning-tree edge-value reassignment)."""

from repro.cfg import build_profiling_dag
from repro.core import (dag_edge_weights, event_count,
                        max_weight_spanning_tree, number_paths,
                        static_edge_weights)

from conftest import fig8_function, fig8_profile
from repro.lang import compile_source
from repro.profiles.flowsets import DagFrequencies


def _all_dag_paths(dag):
    graph = dag.dag
    out = []

    def walk(v, path):
        if v == graph.exit:
            out.append(list(path))
            return
        for e in graph.out_edges(v):
            path.append(e)
            walk(e.dst, path)
            path.pop()

    walk(graph.entry, [])
    return out


def _tree(dag, live, weights):
    """The tree event counting builds: the live DAG edges, with the
    virtual exit->entry edge pre-joined."""
    graph = dag.dag
    return max_weight_spanning_tree(
        [e for e in graph.edges() if e.uid in live], weights,
        joined=(graph.exit, graph.entry))


def _setup(func, profile=None):
    dag = build_profiling_dag(func.cfg)
    live = {e.uid for e in dag.dag.edges()}
    numbering = number_paths(dag, live=live)
    if profile is not None:
        weights = DagFrequencies(dag, profile).edge
    else:
        weights = dag_edge_weights(dag, static_edge_weights(func.cfg))
    increments = event_count(dag, live, numbering.val, weights)
    return dag, live, numbering, weights, increments


class TestPathSumPreservation:
    def test_fig8_sums_preserved(self):
        func = fig8_function()
        dag, live, numbering, _w, increments = _setup(func,
                                                      fig8_profile(func))
        for path in _all_dag_paths(dag):
            original = sum(numbering.val.get(e.uid, 0) for e in path)
            counted = sum(increments[e.uid] for e in path)
            assert counted == original

    def test_loop_function_sums_preserved(self):
        m = compile_source("""
            func main() { s = 0;
                for (i = 0; i < 4; i = i + 1) {
                    if (i % 2 == 0) { s = s + 1; }
                }
                return s; }""")
        func = m.functions["main"]
        dag, live, numbering, _w, increments = _setup(func)
        for path in _all_dag_paths(dag):
            original = sum(numbering.val.get(e.uid, 0) for e in path)
            counted = sum(increments[e.uid] for e in path)
            assert counted == original


class TestSpanningTree:
    def test_tree_spans_connected_blocks(self):
        func = fig8_function()
        dag = build_profiling_dag(func.cfg)
        live = {e.uid for e in dag.dag.edges()}
        weights = {uid: 1.0 for uid in live}
        tree = _tree(dag, live, weights)
        # |V| blocks, virtual exit->entry edge pre-merged: |V| - 2 tree
        # edges span the rest.
        assert len(tree) == len(dag.dag.blocks) - 2

    def test_tree_edges_get_zero_increment(self):
        func = fig8_function()
        profile = fig8_profile(func)
        dag, live, numbering, weights, increments = _setup(func, profile)
        tree = _tree(dag, live, weights)
        for uid in tree:
            assert increments[uid] == 0

    def test_hot_edges_prefer_tree_membership(self):
        func = fig8_function()
        profile = fig8_profile(func)
        dag, live, _n, weights, increments = _setup(func, profile)
        # The two hottest real edges (E->G 60, A->B 50 / B->D 50) must be
        # increment-free under profile weights.
        for pair in [("E", "G"), ("A", "B"), ("B", "D")]:
            mirrored = dag.dag_edge_for(func.cfg.edge(*pair))
            assert increments[mirrored.uid] == 0, pair

    def test_cold_edges_carry_increments(self):
        func = fig8_function()
        profile = fig8_profile(func)
        _dag, _live, _n, _w, increments = _setup(func, profile)
        nonzero = [v for v in increments.values() if v != 0]
        # Exactly the chords carry the numbering information.
        assert nonzero, "some edges must carry increments"
