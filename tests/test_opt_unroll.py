"""Tests for profile-guided loop unrolling (Section 7.3)."""

import pytest

from repro.cfg import find_back_edges
from repro.interp import run_module
from repro.lang import compile_source
from repro.opt import collect_edge_profile, expand_module, unroll_module

from conftest import trace_module

HOT_LOOP = """
global out[64];
func main() {
    s = 0;
    for (i = 0; i < 64; i = i + 1) {
        out[i] = i * 3 % 17;
        s = s + out[i];
    }
    return s;
}
"""


def _unroll(src):
    m = compile_source(src)
    before = run_module(m).return_value
    profile = collect_edge_profile(m)
    unrolled, stats = unroll_module(m, profile)
    after = run_module(unrolled).return_value
    assert after == before, "unrolling changed behaviour"
    return m, unrolled, stats


class TestBasicUnrolling:
    def test_hot_loop_unrolled_by_four(self):
        m, unrolled, stats = _unroll(HOT_LOOP)
        assert stats.loops_unrolled == 1
        assert stats.average_unroll_factor == pytest.approx(4.0)
        # Back-edge traversals drop to ~1/4.
        _a, p_before, _ = trace_module(m)
        _a2, p_after, _ = trace_module(unrolled)
        backs_before = sum(
            p_before["main"].freq(e)
            for e in find_back_edges(m.functions["main"].cfg))
        backs_after = sum(
            p_after["main"].freq(e)
            for e in find_back_edges(unrolled.functions["main"].cfg))
        assert backs_after <= backs_before // 3

    def test_low_trip_loop_skipped(self):
        src = """
        func main() {
            s = 0;
            for (o = 0; o < 40; o = o + 1) {
                for (i = 0; i < 3; i = i + 1) { s = s + i; }
            }
            return s;
        }
        """
        _m, _u, stats = _unroll(src)
        # The inner loop trips 3 < 8: not unrolled (the outer loop is not
        # innermost and is never considered).
        inner = [f for f, w in stats.weighted]
        assert stats.loops_unrolled == 0
        assert all(f == 1 for f in inner)

    def test_large_body_unrolled_less(self):
        body = "\n".join(f"        s = s + {i};" for i in range(80))
        src = f"""
        func main() {{
            s = 0;
            for (i = 0; i < 64; i = i + 1) {{
        {body}
            }}
            return s;
        }}
        """
        _m, _u, stats = _unroll(src)
        factors = [f for f, _w in stats.weighted]
        assert max(factors) in (1, 2)  # 80 stmts * 4 > 256 cap

    def test_paths_lengthen(self):
        m, unrolled, _s = _unroll(HOT_LOOP)
        a_before, _p, _r = trace_module(m)
        a_after, _p2, _r2 = trace_module(unrolled)
        assert a_after.average_instructions_per_path() > \
            a_before.average_instructions_per_path()
        assert a_after.dynamic_paths() < a_before.dynamic_paths()

    def test_loop_with_internal_branch(self):
        src = """
        func main() {
            s = 0;
            for (i = 0; i < 40; i = i + 1) {
                if (i % 3 == 0) { s = s + 2; } else { s = s - 1; }
            }
            return s;
        }
        """
        _m, unrolled, stats = _unroll(src)
        assert stats.loops_unrolled == 1

    def test_loop_with_break_preserved(self):
        src = """
        func main() {
            s = 0;
            for (i = 0; i < 100; i = i + 1) {
                s = s + i;
                if (s > 500) { break; }
            }
            return s;
        }
        """
        _m, _u, stats = _unroll(src)
        assert stats.loops_unrolled == 1  # exit tests kept in every copy

    def test_multi_latch_loop_skipped(self):
        # `continue` in a while loop adds a second back edge.
        src = """
        func main() {
            s = 0; i = 0;
            while (i < 50) {
                i = i + 1;
                if (i % 2 == 0) { continue; }
                s = s + i;
            }
            return s;
        }
        """
        m = compile_source(src)
        backs = find_back_edges(m.functions["main"].cfg)
        if len(backs) > 1:
            _m, _u, stats = _unroll(src)
            assert stats.loops_unrolled == 0

    def test_unrolled_module_validates(self):
        from repro.ir import validate_module
        _m, unrolled, _s = _unroll(HOT_LOOP)
        assert validate_module(unrolled) == []


class TestExpandPipeline:
    def test_expand_checks_behaviour(self):
        m = compile_source(HOT_LOOP)
        result = expand_module(m, code_bloat=0.5)
        assert result.unroll_stats.loops_unrolled == 1
        assert result.speedup == pytest.approx(1.0, abs=0.3)

    def test_expand_reports_costs(self):
        m = compile_source(HOT_LOOP)
        result = expand_module(m)
        assert result.baseline_cost > 0
        assert result.optimized_cost > 0
