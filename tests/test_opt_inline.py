"""Tests for profile-guided inlining (Section 7.3)."""

import pytest

from repro.interp import run_module
from repro.lang import compile_source
from repro.opt import collect_edge_profile, inline_module
from repro.opt.inline import MAX_CALLEE_SIZE

from conftest import trace_module

CALLS = """
global acc;
func tiny(x) {
    if (x > 3) { return x * 2; }
    return x + 1;
}
func big(x) {
    s = x;
    for (i = 0; i < 10; i = i + 1) {
        s = s + i;
        s = s - 1;
        s = s * 1;
        s = s + 2;
        s = s % 1000;
    }
    return s;
}
func main() {
    s = 0;
    for (i = 0; i < 50; i = i + 1) {
        s = s + tiny(i);
        if (i % 10 == 0) { s = s + big(i); }
    }
    acc = s;
    return s;
}
"""


def _inline(src, **kwargs):
    m = compile_source(src)
    before = run_module(m).return_value
    profile = collect_edge_profile(m)
    inlined, stats = inline_module(m, profile, **kwargs)
    after = run_module(inlined).return_value
    assert after == before, "inlining changed behaviour"
    return m, inlined, stats


class TestBasicInlining:
    def test_hot_small_callee_inlined(self):
        _m, inlined, stats = _inline(CALLS, code_bloat=0.5)
        assert stats.sites_inlined >= 1
        inlined_callees = {c for _, _, c in stats.inlined_sites}
        assert "tiny" in inlined_callees

    def test_priority_prefers_hot_and_small(self):
        # With a tight budget only `tiny` (hotter, smaller) fits.
        _m, _i, stats = _inline(CALLS, code_bloat=0.35)
        callees = {c for _, _, c in stats.inlined_sites}
        assert "tiny" in callees

    def test_budget_respected(self):
        m, inlined, stats = _inline(CALLS, code_bloat=0.25)
        assert inlined.size() <= int(m.size() * 1.25) + 8  # move/jump slack

    def test_zero_budget_inlines_nothing(self):
        _m, _i, stats = _inline(CALLS, code_bloat=0.0)
        assert stats.sites_inlined == 0

    def test_large_callee_never_inlined(self):
        huge = f"""
            func huge(x) {{ {"x = x + 1; " * MAX_CALLEE_SIZE} return x; }}
            func main() {{
                s = 0;
                for (i = 0; i < 50; i = i + 1) {{ s = s + huge(i); }}
                return s;
            }}
        """
        m, _i, stats = _inline(huge, code_bloat=5.0)
        assert m.functions["huge"].size() > MAX_CALLEE_SIZE
        assert stats.sites_inlined == 0

    def test_percent_dynamic_calls(self):
        _m, _i, stats = _inline(CALLS, code_bloat=5.0)
        assert 0.0 <= stats.percent_calls_inlined <= 1.0
        assert stats.percent_calls_inlined > 0.5  # tiny dominates calls


class TestCorrectnessEdgeCases:
    def test_recursive_call_not_inlined(self):
        src = """
        func fact(n) { if (n < 2) { return 1; }
            return n * fact(n - 1); }
        func main() { return fact(8); }
        """
        _m, _i, stats = _inline(src, code_bloat=5.0)
        assert all(c != "fact" or caller != "fact"
                   for caller, _b, c in stats.inlined_sites)
        # Direct self-recursion specifically is never inlined.
        assert ("fact", "fact") not in {(cl, ce) for cl, _b, ce
                                        in stats.inlined_sites}

    def test_callee_with_local_array_not_inlined(self):
        src = """
        func scratch(x) {
            var tmp[4];
            tmp[0] = x;
            return tmp[0] + 1;
        }
        func main() {
            s = 0;
            for (i = 0; i < 20; i = i + 1) { s = s + scratch(i); }
            return s;
        }
        """
        _m, _i, stats = _inline(src, code_bloat=5.0)
        assert all(c != "scratch" for _cl, _b, c in stats.inlined_sites)

    def test_two_calls_same_block(self):
        src = """
        func f(x) { return x + 1; }
        func main() {
            s = f(1) + f(2);
            return s;
        }
        """
        m, inlined, stats = _inline(src, code_bloat=5.0)
        assert stats.sites_inlined == 2

    def test_void_call_inlined(self):
        src = """
        global g;
        func bump(x) { g = g + x; return 0; }
        func main() {
            for (i = 0; i < 10; i = i + 1) { bump(i); }
            return g;
        }
        """
        _m, inlined, stats = _inline(src, code_bloat=5.0)
        assert stats.sites_inlined == 1
        assert run_module(inlined).return_value == 45

    def test_inlined_module_validates(self):
        from repro.ir import validate_module
        _m, inlined, _s = _inline(CALLS, code_bloat=5.0)
        assert validate_module(inlined) == []

    def test_paths_lengthen_across_call_boundary(self):
        m, inlined, stats = _inline(CALLS, code_bloat=5.0)
        actual_before, _p, _r = trace_module(m)
        actual_after, _p2, _r2 = trace_module(inlined)
        b_before, _ = actual_before.average_path_stats()
        b_after, _ = actual_after.average_path_stats()
        assert b_after > b_before

    def test_cold_sites_not_inlined(self):
        src = """
        func cold_fn(x) { return x + 1; }
        func main() {
            s = 0;
            if (s == 1) { s = cold_fn(s); }
            return s;
        }
        """
        _m, _i, stats = _inline(src, code_bloat=5.0)
        # The call never executes; frequency 0 sites are skipped.
        assert stats.sites_inlined == 0
