"""Tests for definite/potential flow (appendix Figures 14-15), pinned to
the worked example of the paper's Figure 8."""

import pytest

from repro.cfg import build_profiling_dag
from repro.profiles import (DagFrequencies, definite_flow_sets,
                            potential_flow_sets, reconstruct_hot_paths)
from repro.profiles import flowsets
from repro.profiles.flowsets import dag_edge_is_branch

from conftest import fig8_function, fig8_profile, trace_module
from repro.lang import compile_source


@pytest.fixture(scope="module")
def fig8():
    func = fig8_function()
    return func, fig8_profile(func)


class TestFigure8Definite:
    """The paper computes: total branch flow 160; definite flows of
    ABDEG/ACDEG/ABDFG/ACDFG are 60/20/0/0; routine definite flow 80;
    coverage 80/160 = 50%."""

    def test_total_definite_flow_is_80(self, fig8):
        func, profile = fig8
        sets = definite_flow_sets(func, profile)
        assert sets.total_flow() == 80

    def test_per_path_definite_flows(self, fig8):
        func, profile = fig8
        sets = definite_flow_sets(func, profile)
        paths = {p.blocks: p for p in reconstruct_hot_paths(sets, 0.0)}
        assert paths[("A", "B", "D", "E", "G")].freq == 30
        assert paths[("A", "B", "D", "E", "G")].flow() == 60
        assert paths[("A", "C", "D", "E", "G")].freq == 10
        assert paths[("A", "C", "D", "E", "G")].flow() == 20
        # Zero-definite-flow paths are not enumerated above cutoff 0.
        assert ("A", "B", "D", "F", "G") not in paths
        assert ("A", "C", "D", "F", "G") not in paths

    def test_unit_metric_definite(self, fig8):
        func, profile = fig8
        sets = definite_flow_sets(func, profile)
        # Unit definite flow: 30 + 10 = 40 (same freqs, no branch weight).
        assert sum(f * delta for (f, _b), delta
                   in sets.entry_set().items()) == 40

    def test_total_branch_flow_is_160(self, fig8):
        func, profile = fig8
        assert profile.branch_flow() == 160


class TestFigure8Potential:
    def test_potential_flows_are_edge_minima(self, fig8):
        func, profile = fig8
        sets = potential_flow_sets(func, profile)
        paths = {p.blocks: p.freq for p in reconstruct_hot_paths(sets, 0.0)}
        assert paths == {
            ("A", "B", "D", "E", "G"): 50,
            ("A", "C", "D", "E", "G"): 30,
            ("A", "B", "D", "F", "G"): 20,
            ("A", "C", "D", "F", "G"): 20,
        }

    def test_potential_bounds_definite(self, fig8):
        func, profile = fig8
        d = definite_flow_sets(func, profile).total_flow()
        p = potential_flow_sets(func, profile).total_flow()
        assert d <= p


class TestDagFrequencies:
    def test_loop_dummy_frequencies(self):
        m = compile_source("""
            func main() { s = 0;
                for (i = 0; i < 7; i = i + 1) { s = s + i; }
                return s; }""")
        _actual, profile, _r = trace_module(m)
        func = m.functions["main"]
        dag = build_profiling_dag(func.cfg)
        freqs = DagFrequencies(dag, profile["main"])
        back = dag.back_edges[0]
        entry_dummy, exit_dummy = dag.dummies_for(back)
        assert freqs.edge[entry_dummy.uid] == 7
        assert freqs.edge[exit_dummy.uid] == 7
        # Exit-block frequency F = invocations + back traversals
        # (every dynamic path ends at the DAG exit).
        assert freqs.total == 1 + 7

    def test_entry_dummy_is_not_branch(self):
        m = compile_source("""
            func main() { s = 0;
                for (i = 0; i < 7; i = i + 1) {
                    if (i % 2 == 0) { s = s + 1; }
                }
                return s; }""")
        func = m.functions["main"]
        dag = build_profiling_dag(func.cfg)
        for header, dummy in dag.entry_dummies.items():
            assert not dag_edge_is_branch(dag, dummy)

    def test_exit_dummy_branchness_follows_tail(self):
        # while-loop latch 'step' has a single successor -> not a branch;
        # a do-while-ish latch with a conditional back edge is one.
        m = compile_source("""
            func main() { s = 0; i = 0;
                while (i < 5) { i = i + 1; s = s + i; }
                return s; }""")
        func = m.functions["main"]
        dag = build_profiling_dag(func.cfg)
        for tail, dummy in dag.exit_dummies.items():
            expected = len(func.cfg.blocks[tail].succ_edges) > 1
            assert dag_edge_is_branch(dag, dummy) == expected


class TestCapping:
    def test_cap_truncates_conservatively(self, fig8, monkeypatch):
        func, profile = fig8
        full = definite_flow_sets(func, profile)
        monkeypatch.setattr(flowsets, "FLOW_SET_CAP", 1)
        capped = definite_flow_sets(func, fig8_profile(func))
        assert not full.truncated and capped.truncated
        assert capped.total_flow() <= full.total_flow()


class TestFlowMemo:
    """Planning and every scoring of one profile share its flow sets."""

    def test_sets_computed_once_per_profile(self):
        func = fig8_function()
        profile = fig8_profile(func)
        sets = definite_flow_sets(func, profile)
        assert definite_flow_sets(func, profile) is sets
        assert potential_flow_sets(func, profile) is not sets
        # Another profile of the same function shares only the DAG.
        other = definite_flow_sets(func, fig8_profile(func))
        assert other is not sets and other.dag is sets.dag

    def test_edited_profile_recomputes_after_invalidate(self):
        func = fig8_function()
        profile = fig8_profile(func)
        before = definite_flow_sets(func, profile).total_flow()
        profile.edge_freq = {uid: 2 * count
                             for uid, count in profile.edge_freq.items()}
        profile.entry_count *= 2
        profile.invalidate()
        assert definite_flow_sets(func, profile).total_flow() == 2 * before

    def test_memo_stays_out_of_pickles(self):
        import pickle

        func = fig8_function()
        profile = fig8_profile(func)
        bare = pickle.dumps(profile)
        definite_flow_sets(func, profile)
        assert pickle.dumps(profile) == bare
        copy = pickle.loads(bare)
        assert definite_flow_sets(copy.func, copy).total_flow() == 80
