"""Tests for superblock formation (tail duplication from hot paths)."""

import pytest

from repro.interp import run_module
from repro.ir import validate_module
from repro.lang import compile_source
from repro.opt import form_superblocks, merge_crossings
from repro.opt.superblock import GROWTH_BUDGET

from conftest import trace_module

DIAMONDS = """
func main() {
    s = 0;
    for (i = 0; i < 300; i = i + 1) {
        if (i % 4 == 0) { s = s + 3; } else { s = s + 1; }
        if (i % 4 == 1) { s = s - 1; } else { s = s + 2; }
    }
    return s;
}
"""


def _form(src, top_n=3):
    m = compile_source(src)
    actual, profile, before = trace_module(m)
    hot = actual.hot_paths(0.00125)[:top_n]
    formed, stats = form_superblocks(m, hot)
    assert validate_module(formed) == []
    after = run_module(formed)
    assert after.return_value == before.return_value
    return m, formed, stats, actual, profile


class TestFormation:
    def test_behaviour_preserved_and_blocks_cloned(self):
        _m, formed, stats, _a, _p = _form(DIAMONDS)
        assert stats.traces_formed >= 1
        assert stats.blocks_duplicated >= 1
        cloned = [b for b in formed.functions["main"].cfg.blocks
                  if "@sb" in b]
        assert cloned

    def test_trace_becomes_straight_line(self):
        _m, formed, stats, _a, _p = _form(DIAMONDS, top_n=1)
        func = formed.functions["main"]
        # Every clone must have exactly one predecessor.
        for name, block in func.cfg.blocks.items():
            if "@sb" in name:
                assert len(block.pred_edges) == 1, name

    def test_merge_crossings_drop_on_hot_code(self):
        m, formed, _s, _a, profile_before = _form(DIAMONDS, top_n=2)
        from repro.opt import collect_edge_profile
        before = merge_crossings(m, profile_before)
        after = merge_crossings(formed, collect_edge_profile(formed))
        assert after < before

    def test_growth_budget_respected(self):
        src = """
        func main() {
            s = 0;
            for (i = 0; i < 300; i = i + 1) {
                if (i % 4 == 0) { s = s + 3; } else { s = s + 1; }
                if (i % 3 == 1) { s = s - 1; } else { s = s + 2; }
                if (i % 5 == 2) { s = s - 4; } else { s = s + 5; }
            }
            return s;
        }
        """
        m, formed, stats, _a, _p = _form(src, top_n=10)
        budget = max(2, int(m.functions["main"].cfg.num_blocks
                            * GROWTH_BUDGET))
        assert stats.blocks_duplicated <= budget
        # Unbounded, three traces form and duplicate 15 blocks.
        assert stats.traces_formed == 1

    def test_exit_block_never_cloned(self):
        src = """
        func f(x) {
            if (x % 2 == 0) { y = x + 1; } else { y = x - 1; }
            return y;
        }
        func main() {
            s = 0;
            for (i = 0; i < 200; i = i + 1) { s = s + f(i); }
            return s;
        }
        """
        _m, formed, _s, _a, _p = _form(src)
        for func in formed.functions.values():
            rets = [b for b, blk in func.cfg.blocks.items()
                    if blk.instructions
                    and type(blk.instructions[-1]).__name__ == "Ret"]
            assert len(rets) == 1, func.name

    def test_short_paths_skipped(self):
        m = compile_source("func main() { return 1; }")
        actual, _p, _r = trace_module(m)
        hot = actual.hot_paths(0.0, metric="unit")
        formed, stats = form_superblocks(m, hot)
        assert stats.traces_formed == 0

    def test_stale_paths_skipped_not_crashed(self):
        # A path referencing edges a previous trace redirected.
        m = compile_source(DIAMONDS)
        actual, _p, before = trace_module(m)
        hot = actual.hot_paths(0.00125)
        # Feed the same hottest path twice: second formation must skip.
        doubled = [hot[0], hot[0]] + hot[1:3]
        formed, stats = form_superblocks(m, doubled)
        assert stats.traces_skipped >= 1
        assert run_module(formed).return_value == before.return_value

    def test_loop_trace_keeps_back_edge_semantics(self):
        src = """
        func main() {
            s = 0;
            for (i = 0; i < 100; i = i + 1) {
                if (i % 10 == 0) { s = s + 5; } else { s = s + 1; }
            }
            return s;
        }
        """
        m, formed, stats, _a, _p = _form(src, top_n=1)
        assert stats.traces_formed == 1
        # The formed module still loops 100 times.
        assert run_module(formed).return_value == \
            run_module(m).return_value

    def test_cleanup_composes_after_formation(self):
        from repro.opt import cleanup_module
        _m, formed, _s, _a, _p = _form(DIAMONDS)
        before = run_module(formed)
        cleaned, _stats = cleanup_module(formed)
        after = run_module(cleaned)
        assert after.return_value == before.return_value
