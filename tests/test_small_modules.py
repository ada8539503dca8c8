"""Tests for the small supporting modules: cost model, report rendering,
static heuristics, and instrumentation op formatting."""

import pytest

from repro.core import (AddReg, CountConst, CountReg, SetReg, describe,
                        static_block_weights, static_edge_weights)
from repro.harness import mean, render_table
from repro.interp import CostCounter, CostModel, DEFAULT_COSTS
from repro.lang import compile_source


class TestCostModel:
    def test_defaults_match_paper_ratios(self):
        # Hash counting ~5x array counting (Section 3.2 via Joshi et al.).
        assert DEFAULT_COSTS.count_hash == pytest.approx(
            5 * DEFAULT_COSTS.count_array)

    def test_counter_overhead(self):
        counter = CostCounter(base=200.0, instrumentation=10.0)
        assert counter.overhead == pytest.approx(0.05)

    def test_zero_base_overhead_is_zero(self):
        assert CostCounter().overhead == 0.0

    def test_model_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_COSTS.count_hash = 1  # type: ignore[misc]

    def test_custom_model_flows_through(self):
        from repro.core import plan_pp, run_with_plan
        m = compile_source("""
            func main() { s = 0;
                for (i = 0; i < 50; i = i + 1) { s = s + i; }
                return s; }""")
        plan = plan_pp(m)
        cheap = run_with_plan(plan, cost_model=CostModel(count_array=1.0))
        pricey = run_with_plan(plan, cost_model=CostModel(count_array=50.0))
        assert pricey.overhead > cheap.overhead


class TestStaticHeuristics:
    def test_loop_blocks_weighted_10x(self):
        m = compile_source("""
            func main() { s = 0;
                for (i = 0; i < 9; i = i + 1) { s = s + i; }
                return s; }""")
        cfg = m.functions["main"].cfg
        weights = static_block_weights(cfg)
        assert weights["entry"] == 1
        body = [b for b in cfg.blocks if b.startswith("body")][0]
        assert weights[body] == 10

    def test_nested_loops_multiply(self):
        m = compile_source("""
            func main() { s = 0;
                for (i = 0; i < 3; i = i + 1) {
                    for (j = 0; j < 3; j = j + 1) { s = s + 1; }
                }
                return s; }""")
        cfg = m.functions["main"].cfg
        weights = static_block_weights(cfg)
        assert max(weights.values()) == 100

    def test_branches_split_5050(self):
        m = compile_source("""
            func main() {
                x = 1;
                if (x) { x = 2; } else { x = 3; }
                return x; }""")
        cfg = m.functions["main"].cfg
        weights = static_edge_weights(cfg)
        branch_edges = [e for e in cfg.edges()
                        if len(cfg.blocks[e.src].succ_edges) > 1]
        assert len(branch_edges) == 2
        for e in branch_edges:
            assert weights[e.uid] == 0.5

    def test_depth_capped(self):
        # 12 nested loops must not produce 10^12 weights.
        src = "func main() { s = 0;\n"
        for d in range(12):
            src += f"for (i{d} = 0; i{d} < 2; i{d} = i{d} + 1) {{\n"
        src += "s = s + 1;\n" + "}" * 12 + "\nreturn s; }"
        m = compile_source(src)
        weights = static_block_weights(m.functions["main"].cfg)
        assert max(weights.values()) <= 10 ** 8


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["name", "v"], [["a", 1], ["bbbb", 22]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows padded to the same width

    def test_float_formatting(self):
        text = render_table(["x"], [[1.23456]])
        assert "1.23" in text

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0


class TestOpFormatting:
    def test_describe_ops(self):
        ops = [CountReg(2), SetReg(5)]
        assert describe(ops) == "count[r + 2]++; r = 5"
        assert describe([]) == "(none)"
        assert describe([CountConst(0)]) == "count[0]++"
        assert describe([AddReg(-3)]) == "r += -3"
        assert "poison" in describe([SetReg(8, poison=True)])

    def test_count_reg_zero_shows_r(self):
        assert str(CountReg(0)) == "count[r]++"

    def test_ops_are_hashable_values(self):
        assert SetReg(1) == SetReg(1)
        assert SetReg(1) != SetReg(1, poison=True)
        assert len({AddReg(2), AddReg(2), AddReg(3)}) == 2
