"""Tests for instrumentation placement, pushing, and poisoning.

The key correctness property is *semantic*: executing the placed
instrumentation must produce exactly the ground-truth path counts.  The
structural tests then pin the pushing/combining behaviour (Figure 1(e-g))
and PPP's cold-ignoring push (Figure 5) and free poisoning (Section 4.6).
"""

import pytest

from repro.cfg import build_profiling_dag
from repro.core import (AddReg, CountConst, CountReg, SetReg,
                        number_paths, place_instrumentation,
                        static_edge_weights, dag_edge_weights, event_count)

from conftest import fig8_function, trace_module
from repro.lang import compile_source


def _place(func, cold_cfg_pairs=(), push_ignore_cold=False,
           poison_style="free"):
    dag = build_profiling_dag(func.cfg)
    cold_uids = set()
    for pair in cold_cfg_pairs:
        cfg_edge = func.cfg.edge(*pair)
        mirrored = dag.dag_edge_for(cfg_edge)
        cold_uids.add(mirrored.uid if mirrored is not None else None)
    live = {e.uid for e in dag.dag.edges()} - cold_uids
    numbering = number_paths(dag, live=live)
    weights = dag_edge_weights(dag, static_edge_weights(func.cfg))
    increments = event_count(dag, live, numbering.val, weights)
    placement = place_instrumentation(
        dag, live, increments, numbering.total,
        push_ignore_cold=push_ignore_cold, poison_style=poison_style)
    return dag, numbering, placement


def _op_kinds(placement):
    kinds = []
    for ops in placement.edge_ops.values():
        kinds.extend(type(op).__name__ for op in ops)
    return kinds


class TestStructure:
    def test_fig8_full_instrumentation(self):
        func = fig8_function()
        _dag, numbering, placement = _place(func)
        assert placement.num_hot == 4
        kinds = _op_kinds(placement)
        # Counting must be present; combining keeps ops minimal.
        assert any(k.startswith("Count") for k in kinds)

    def test_single_path_function_counts_const(self):
        m = compile_source("func main() { x = 1; return x + 1; }")
        func = m.functions["main"]
        # Single block, no edges at all: nothing to place on.
        _dag, numbering, placement = _place(func)
        assert numbering.total == 1
        # entry -> exit jump exists in lowered code, so there is one edge
        # carrying count[0]++.
        all_ops = [op for ops in placement.edge_ops.values() for op in ops]
        assert len(all_ops) == 1
        assert isinstance(all_ops[0], CountConst)

    def test_back_edge_gets_count_then_set(self):
        m = compile_source("""
            func main() { s = 0;
                for (i = 0; i < 4; i = i + 1) { s = s + i; }
                return s; }""")
        func = m.functions["main"]
        dag, numbering, placement = _place(func)
        back = dag.back_edges[0]
        ops = placement.edge_ops.get(back.uid, [])
        assert ops, "loop back edge must be instrumented"
        count_positions = [i for i, op in enumerate(ops)
                           if isinstance(op, (CountReg, CountConst))]
        set_positions = [i for i, op in enumerate(ops)
                         if isinstance(op, (SetReg, AddReg))]
        if count_positions and set_positions:
            assert max(count_positions) < min(set_positions), \
                "the old path is counted before the new one starts"

    def test_pushing_reduces_dynamic_ops(self):
        func = fig8_function()
        _d, _n, pushed = _place(func)
        # Unpushed, Figure 8 carries ops on five edges: two inits, one
        # add and two counts.  Pushing combines the add into a count.
        assert len(pushed.edge_ops) == 4
        assert "AddReg" not in _op_kinds(pushed)


class TestColdAndPoison:
    def test_free_poisoning_sets_at_least_n(self):
        func = fig8_function()
        _dag, numbering, placement = _place(
            func, cold_cfg_pairs=[("D", "F")], poison_style="free")
        assert numbering.total == 2
        poisons = [op for ops in placement.edge_ops.values() for op in ops
                   if isinstance(op, SetReg) and op.poison]
        assert len(poisons) == 1
        assert poisons[0].value >= numbering.total
        assert placement.counter_span >= numbering.total

    def test_check_poisoning_sets_negative(self):
        func = fig8_function()
        _dag, _n, placement = _place(
            func, cold_cfg_pairs=[("D", "F")], poison_style="check")
        poisons = [op for ops in placement.edge_ops.values() for op in ops
                   if isinstance(op, SetReg) and op.poison]
        assert poisons and all(op.value < 0 for op in poisons)

    def test_unknown_poison_style_rejected(self):
        func = fig8_function()
        dag = build_profiling_dag(func.cfg)
        with pytest.raises(ValueError):
            place_instrumentation(dag, set(), {}, 0, poison_style="wat")

    def test_ppp_push_ignores_cold_merge(self):
        """Figure 5's effect: with a cold in-edge at a merge, TPP-style
        pushing stops but PPP-style pushing continues, so PPP never has
        *more* instrumented edges."""
        m = compile_source("""
            func main() {
                s = 0;
                if (s == 0) { s = s + 1; } else { s = s + 2; }
                if (s > 100) { s = s * 2; }
                return s;
            }""")
        func = m.functions["main"]
        # Mark the rarely-taken then-edge of the second if cold.
        branchy = [b for b in func.cfg.blocks
                   if len(func.cfg.blocks[b].succ_edges) > 1]
        cold_pair = None
        for b in branchy:
            for e in func.cfg.blocks[b].succ_edges:
                if e.dst.startswith("then") and b.startswith("endif"):
                    cold_pair = (e.src, e.dst)
        assert cold_pair is not None
        _d1, _n1, tpp = _place(func, cold_cfg_pairs=[cold_pair],
                               push_ignore_cold=False)
        _d2, _n2, ppp = _place(func, cold_cfg_pairs=[cold_pair],
                               push_ignore_cold=True)
        assert ppp.static_ops <= tpp.static_ops


class TestSemantics:
    """Executing placed instrumentation reproduces ground truth; covered
    exhaustively by the pipeline tests, spot-checked here at the placement
    level via the PP pipeline equivalence in test_core_pipelines."""

    def test_counter_span_at_least_hot(self):
        func = fig8_function()
        _d, numbering, placement = _place(func)
        assert placement.counter_span >= placement.num_hot == 4
