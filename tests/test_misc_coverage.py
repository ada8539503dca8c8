"""Coverage for smaller branches across modules: builder error paths,
estimate edge cases, event counting on disconnected components, rebuild
utilities, and machine hook management."""

import pytest

from repro.cfg import build_profiling_dag
from repro.core import (event_count, measured_paths, number_paths,
                        path_dag_edges, plan_pp, run_with_plan)
from repro.interp import Machine
from repro.ir import IRBuilder, IRError, Jump
from repro.lang import compile_source

from conftest import fig8_function


class TestBuilderErrors:
    def test_current_without_block(self):
        b = IRBuilder("f")
        with pytest.raises(IRError):
            _ = b.current

    def test_switch_to_unknown(self):
        b = IRBuilder("f")
        b.block("entry")
        with pytest.raises(IRError):
            b.switch_to("ghost")

    def test_branch_identical_targets_becomes_jump(self):
        b = IRBuilder("f")
        b.block("entry")
        b.const("c", 1)
        b.branch("c", "next", "next")
        b.block("next")
        b.ret()
        f = b.finish()
        term = f.terminator("entry")
        assert isinstance(term, Jump)

    def test_finish_without_blocks(self):
        with pytest.raises(IRError):
            IRBuilder("f").finish()

    def test_new_block_names_unique(self):
        b = IRBuilder("f")
        b.block("entry")
        names = {b.new_block("x") for _ in range(5)}
        assert len(names) == 5

    def test_is_terminated(self):
        b = IRBuilder("f")
        b.block("entry")
        assert not b.is_terminated()
        b.ret()
        assert b.is_terminated()


class TestEstimateEdgeCases:
    def test_path_dag_edges_rejects_foreign_paths(self):
        m = compile_source("func main() { if (1) { return 1; } return 2; }")
        plan = plan_pp(m)
        fplan = plan.functions["main"]
        # A "path" whose consecutive blocks are not CFG edges.
        assert path_dag_edges(fplan, ("exit", "entry")) is None
        # A path starting at a block that is not a loop header.
        assert path_dag_edges(fplan, ("then0",)) is None or \
            path_dag_edges(fplan, ("then0",)) == []

    def test_measured_paths_without_store(self):
        m = compile_source("func main() { return 1; }")
        plan = plan_pp(m)
        run = run_with_plan(plan)
        # A function name with no store entry yields {} (uninstrumented).
        class FakeRun:
            stores = {}
            plan_obj = plan
        run.stores.pop("main", None)
        assert measured_paths(run, "main") == {}


class TestEventsEdgeCases:
    def test_disconnected_component_gets_zero_phi(self):
        # A block reachable only through a cold edge: its edges are not
        # live, so event counting just skips them without crashing.
        func = fig8_function()
        dag = build_profiling_dag(func.cfg)
        cold = {dag.dag_edge_for(func.cfg.edge("A", "C")).uid,
                dag.dag_edge_for(func.cfg.edge("C", "D")).uid}
        live = {e.uid for e in dag.dag.edges()} - cold
        numbering = number_paths(dag, live=live)
        weights = {uid: 1.0 for uid in live}
        increments = event_count(dag, live, numbering.val, weights)
        assert set(increments) == live

    def test_zero_weight_edges_still_consistent(self):
        func = fig8_function()
        dag = build_profiling_dag(func.cfg)
        live = {e.uid for e in dag.dag.edges()}
        numbering = number_paths(dag, live=live)
        increments = event_count(dag, live, numbering.val,
                                 {uid: 0.0 for uid in live})
        # All-equal weights: sums must still be preserved.
        def paths(v, acc, out):
            if v == dag.dag.exit:
                out.append(list(acc))
                return
            for e in dag.dag.out_edges(v):
                acc.append(e)
                paths(e.dst, acc, out)
                acc.pop()
        all_paths = []
        paths(dag.dag.entry, [], all_paths)
        for p in all_paths:
            assert sum(increments[e.uid] for e in p) == \
                numbering.number_of(p)


class TestRebuild:
    def test_prune_unreachable_drops_islands(self):
        from repro.opt import prune_unreachable
        from repro.ir import Const, Ret
        blocks = {
            "entry": [Const("x", 1), Jump("end")],
            "end": [Ret("x")],
            "island": [Jump("end")],
        }
        pruned = prune_unreachable(blocks, "entry")
        assert set(pruned) == {"entry", "end"}

    def test_block_map_is_a_copy(self):
        from repro.opt import block_map
        m = compile_source("func main() { return 1; }")
        func = m.functions["main"]
        blocks = block_map(func)
        blocks["entry"].clear()
        assert func.cfg.blocks["entry"].instructions  # original untouched


class TestMachineHooks:
    def test_run_named_function_with_args(self):
        m = compile_source("""
            func add(a, b) { return a + b; }
            func main() { return add(1, 2); }""")
        machine = Machine(m)
        assert machine.run("add", (40, 2)).return_value == 42


class TestSingleBlockProfiling:
    def test_pp_counts_zero_edge_function_via_invocations(self):
        """After full cleanup a helper can collapse to one block with no
        edges; PP's counting degenerates to the invocation counter."""
        from repro.opt import cleanup_module
        from repro.profiles import PathProfile
        m = compile_source("""
            func flat(x) { return x * 3 + 1; }
            func main() {
                s = 0;
                for (i = 0; i < 7; i = i + 1) { s = s + flat(i); }
                return s;
            }""")
        cleaned, _stats = cleanup_module(m)
        assert cleaned.functions["flat"].cfg.num_edges == 0
        truth = Machine(cleaned, trace_paths=True).run()
        actual = PathProfile.from_trace(cleaned, truth.path_counts)
        plan = plan_pp(cleaned)
        run = run_with_plan(plan)
        assert run.run.return_value == truth.return_value
        assert measured_paths(run, "flat") == actual["flat"].counts
        assert measured_paths(run, "flat") == {("entry",): 7}
